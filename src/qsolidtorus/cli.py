"""Experiment driver: validate hypotheses, solve mode systems, scan decay.

Exit codes: 0 success, 1 mathematical violation (a check or residual failed),
2 usage or configuration error.  Outputs are deterministic for a fixed config
and seed, apart from the generated_at field in each file's meta header.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import RowTable, decay_scan, scan_to_files, write_json
from .config import ConfigError, ExperimentConfig, int_text, json_int, json_list, json_number, load_config
from .families import validate_hypotheses
from .parametrix import (
    RhsPair,
    WeightedSeq,
    apply_A,
    apply_Q,
    oracle_solve,
    random_rhs,
)
from .solutions import MODE_ERRORS, build_solution, mirror_solution, paired, stack, wronskian_residuals
from .transfer import Levels, ModeIndex, limit_product, mirror_product

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _meta(cfg: ExperimentConfig, k_max: int, seed: int | None = None) -> dict:
    meta = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "k_max": k_max,
        "boundary_rule": cfg.boundary.name,
    }
    if seed is not None:
        meta["seed"] = seed
    return meta


def _m_list(cfg: ExperimentConfig, only_m: list[int] | None) -> tuple[int, ...]:
    """The config's m values, or every m passed to --modes (in or out of the grid)."""
    return cfg.m_list if only_m is None else tuple(dict.fromkeys(only_m))


def _modes(cfg: ExperimentConfig, only_m: list[int] | None) -> list[tuple[int, int]]:
    return [(m, n) for m in _m_list(cfg, only_m) for n in cfg.n_list]


def _solutions(cfg: ExperimentConfig, k_max: int, modes: list[ModeIndex]):
    """``build_solution`` for ``modes`` on the command's level data, once per +-m pair (``solutions.paired``)."""
    levels = Levels(cfg.weights, cfg.coeffs, k_max)
    return paired(lambda mode: build_solution(mode, cfg.weights, cfg.coeffs, k_max, rule=cfg.boundary, levels=levels),
                  lambda sol: mirror_solution(sol, cfg.boundary), modes)


def cmd_validate(cfg: ExperimentConfig, out_dir: Path, k_max: int) -> int:
    report = validate_hypotheses(cfg.weights, cfg.coeffs, n_probe=cfg.n_list)
    payload = report.as_dict()
    payload["meta"] = _meta(cfg, k_max)
    write_json(out_dir / "validation.json", payload)
    for ch in report.checks:
        print(f"[{'pass' if ch.passed else 'FAIL'}] {ch.name}: {ch.witness}")
    return EXIT_OK if report.all_passed else EXIT_VIOLATION


def _load_rhs(path: Path, k_max: int) -> dict[tuple[int, int], RhsPair]:
    """The --rhs records by (m, n); a malformed file is a ConfigError (exit 2).

    Each record needs JSON integers m and n >= 0 (not booleans), a finite
    JSON number q0, and r1 and r2 as lists of at least k_max finite JSON
    numbers; entries beyond k_max are ignored.
    """
    try:
        parsed = [
            (json_int(rec["m"], "m"), json_int(rec["n"], "n"),
             np.array(json_list(rec["r1"], "r1")), np.array(json_list(rec["r2"], "r2")),
             json_number(rec["q0"], "q0"))
            for rec in json.loads(path.read_text())["modes"]
        ]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"rhs file {path}: {exc!r}") from exc
    out = {}
    for m, n, r1, r2, q0 in parsed:
        where = f"rhs file {path}, mode ({m}, {n})"
        if n < 0 or (m, n) in out:
            raise ConfigError(f"{where}: n must be >= 0 and each mode listed once")
        if min(len(r1), len(r2)) < k_max:
            raise ConfigError(f"{where}: r1 and r2 need >= k_max = {k_max} values")
        out[(m, n)] = RhsPair(WeightedSeq(r1[:k_max], n + 1), WeightedSeq(r2[:k_max], n), q0)
    return out


def cmd_solve(
    cfg: ExperimentConfig,
    out_dir: Path,
    rhs_path: Path | None,
    seed: int,
    only_m: list[int] | None,
    k_max: int,
) -> int:
    if rhs_path is not None:
        rhs_map = _load_rhs(rhs_path, k_max)
    else:
        rng = np.random.default_rng(seed)
        modes = sorted(_modes(cfg, only_m))
        rhs_map = {(m, n): random_rhs(ModeIndex(m, n), k_max, rng) for (m, n) in modes}
    modes = [ModeIndex(m, n) for (m, n) in sorted(rhs_map)]
    solution = _solutions(cfg, k_max, modes)
    found = {}
    # each level's modes go through the inverse, the operator and the norms as one stack
    for n in sorted({mode.n for mode in modes}):
        built = {}
        for mode in (mode for mode in modes if mode.n == n):
            try:
                built[mode] = solution(mode)
            except MODE_ERRORS as exc:
                found[mode] = exc
        if built:
            st, rs = stack(list(built.values())), [rhs_map[(mode.m, n)] for mode in built]
            r1 = WeightedSeq(np.array([r.r1.values for r in rs]), n + 1)
            r2 = WeightedSeq(np.array([r.r2.values for r in rs]), n)
            r = RhsPair(r1, r2, np.array([r.q0 for r in rs]))
            res = apply_Q(st, r, k_max)
            back = apply_A(st.table, res.h_g, res.h_f)
            diff = RhsPair(WeightedSeq(back.r1.values - r1.values, n + 1), WeightedSeq(back.r2.values - r2.values, n), back.q0 - r.q0)
            resid_inv = diff.norm(st.table) / np.maximum(r.norm(st.table), 1e-300)
            scale = np.maximum(res.norm(st.table), 1e-300)
            found.update((mode, (sol, res, j, resid_inv[j], scale[j])) for j, (mode, sol) in enumerate(built.items()))
    records = []
    ok = True
    for mode in modes:
        m, n = mode.m, mode.n
        try:
            if isinstance(found[mode], Exception):
                raise found[mode]
            sol, res, j, resid_inv, scale = found[mode]
            orc = oracle_solve(sol, rhs_map[(m, n)])
            d_orc = float(
                np.sqrt(
                    np.sum((orc.h_g.values - res.h_g.values[j]) ** 2)
                    + np.sum((orc.h_f.values - res.h_f.values[j]) ** 2)
                )
            ) / scale
            records.append(
                {
                    "m": m,
                    "n": n,
                    "residual_right_inverse": float(resid_inv),
                    "residual_oracle": float(d_orc),
                    "boundary_residual": float(res.boundary_residual[j]),
                    "beta": float(res.beta[j]),
                }
            )
            # written as "not <=" so that a NaN residual fails the mode
            if not (resid_inv <= cfg.tol_residual and d_orc <= 10 * cfg.tol_residual):
                ok = False
        except (*MODE_ERRORS, np.linalg.LinAlgError) as exc:
            ok = False
            records.append({"m": m, "n": n, "error": f"mode ({m}, {n}): {exc}"})
            print(f"mode ({m}, {n}) failed: {exc}", file=sys.stderr)
    payload = {"meta": _meta(cfg, k_max, seed), "solutions": records}
    write_json(out_dir / "solutions.json", payload)
    n_err = sum(1 for r in records if "error" in r)
    print(f"solved {len(records) - n_err}/{len(records)} modes; outputs in {out_dir}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_scan(
    cfg: ExperimentConfig, out_dir: Path, only_m: list[int] | None, k_max: int
) -> int:
    table = decay_scan(
        _m_list(cfg, only_m), cfg.n_list, cfg.weights, cfg.coeffs, k_max, rule=cfg.boundary
    )
    for (m, n), msg in table.failures.items():
        print(f"mode ({m}, {n}) failed: {msg}", file=sys.stderr)
    scan_to_files(table, out_dir, cfg.formats, meta=_meta(cfg, k_max))
    lemma_rows = []
    ok = table.all_passed
    first_bad = None
    for (m, n), (rep, wr) in table.lemmas.items():
        failures = [ch.name for ch in rep.failed()]
        lemma_rows.append(
            {
                "m": m,
                "n": n,
                "all_passed": rep.all_passed,
                "worst_slack": rep.worst_slack,
                "wronskian_worst": wr,
                "failures": failures,
            }
        )
        if not rep.all_passed and first_bad is None:
            first_bad = (m, n, failures)
            ok = False
    write_json(out_dir / "lemma_summary.json", {"meta": _meta(cfg, k_max), "modes": lemma_rows})
    for ch in table.checks:
        print(f"[{'pass' if ch.passed else 'FAIL'}] {ch.name}: {ch.witness}")
    n_bounds = sum(1 for r in table.rows if not r.all_bounds_hold)
    print(f"scan: {len(table.rows)} modes, {n_bounds} bound violations")
    n_nonfinite = sum(1 for r in table.rows if not r.all_finite)
    if n_nonfinite:
        print(f"scan: {n_nonfinite} modes with a non-finite HS sum, bound or proxy")
    if first_bad is not None:
        print(f"first inequality counterexample at mode {first_bad[:2]}: {first_bad[2]}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_dump(
    cfg: ExperimentConfig,
    out_dir: Path,
    what: str,
    only_m: list[int] | None,
    k_max: int,
) -> int:
    modes = [ModeIndex(m, n) for (m, n) in _modes(cfg, only_m)]
    if what == "transfer":
        levels = Levels(cfg.weights, cfg.coeffs, k_max)
        get = paired(lambda mode: limit_product(mode, cfg.weights, cfg.coeffs, k_max, levels), mirror_product, modes)
    else:
        get = _solutions(cfg, k_max, modes)
    blocks = []
    ok = True
    for mode in modes:
        m, n = mode.m, mode.n
        try:
            built = get(mode)
        except MODE_ERRORS as exc:
            ok = False
            print(f"mode ({m}, {n}) failed: {exc}", file=sys.stderr)
            continue
        if what == "transfer":
            k_rows = k_max
            block = {"C": built.table.C.reshape(k_rows, 4), "P": built.partials[:k_rows].reshape(k_rows, 4)}
        else:
            k_rows = len(built.I)
            block = {
                "I1": built.I[:, 0],
                "I2": built.I[:, 1],
                "K1": built.K[:, 0],
                "K2": built.K[:, 1],
                "wronskian_residual": wronskian_residuals(built),
            }
        if not all(np.isfinite(col).all() for col in block.values()):
            ok = False
            print(f"mode ({m}, {n}): non-finite entries in the {what} table", file=sys.stderr)
        k = np.arange(k_rows)
        blocks.append({**block, "m": np.full_like(k, m), "n": np.full_like(k, n), "k": k})
    rows = RowTable.concat(blocks)
    write_json(out_dir / f"dump_{what}.json", {"meta": _meta(cfg, k_max), "rows": rows})
    print(f"wrote {len(rows)} rows to {out_dir / f'dump_{what}.json'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS defaults let the shared flags appear before or after the
    # subcommand without the unset position clobbering the set one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="path to the experiment JSON config")
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory (default: config output.dir)")
    common.add_argument("--seed", default=argparse.SUPPRESS, help="seed for generated fixtures")
    common.add_argument("--modes", default=argparse.SUPPRESS, help="m values to run in place of grid.m_list, e.g. 0,1,-2")
    common.add_argument("--kmax", default=argparse.SUPPRESS, help="override truncation k_max")
    parser = argparse.ArgumentParser(
        prog="qsolidtorus",
        description="Mode-system solver and verification driver for the quantum solid torus operator",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="check the family hypotheses", parents=[common])
    p_solve = sub.add_parser("solve", help="apply the inverse to a right-hand side", parents=[common])
    p_solve.add_argument("--rhs", default=None, help="rhs JSON file (default: seeded random fixtures)")
    sub.add_parser("scan", help="Hilbert-Schmidt decay and inequality scan", parents=[common])
    p_dump = sub.add_parser("dump", help="debug tables", parents=[common])
    p_dump.add_argument("--what", choices=("transfer", "solution"), default="solution")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = getattr(args, "config", None)
    if config is None:
        print("a --config file is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(getattr(args, "out", None) or cfg.out_dir)
    # every command-line integer is spelt as JSON writes it, as the config's are
    try:
        seed = int_text(args.seed, "--seed") if hasattr(args, "seed") else 20250808
        k_max = int_text(args.kmax, "--kmax") if hasattr(args, "kmax") else cfg.k_max
        modes = getattr(args, "modes", None)
        only_m = None if modes is None else [int_text(tok, "--modes entry") for tok in modes.split(",")]
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if k_max < 2:
        print("--kmax must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    if seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.command in ("solve", "scan"):  # the bounds they report assume the family hypotheses
        for ch in validate_hypotheses(cfg.weights, cfg.coeffs, n_probe=cfg.n_list).failed():
            print(f"hypothesis {ch.name} failed: {ch.witness}", file=sys.stderr)
    try:
        if args.command == "validate":
            return cmd_validate(cfg, out_dir, k_max)
        if args.command == "solve":
            rhs = Path(args.rhs) if args.rhs else None
            if rhs is not None and not rhs.exists():
                print(f"rhs file not found: {rhs}", file=sys.stderr)
                return EXIT_USAGE
            if rhs is not None and only_m is not None:
                print("--modes cannot be used with --rhs: the file's records are the modes", file=sys.stderr)
                return EXIT_USAGE
            return cmd_solve(cfg, out_dir, rhs, seed, only_m, k_max)
        if args.command == "scan":
            return cmd_scan(cfg, out_dir, only_m, k_max)
        if args.command == "dump":
            return cmd_dump(cfg, out_dir, args.what, only_m, k_max)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
