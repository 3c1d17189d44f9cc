"""Benchmark workloads and the checker that re-reads every output they write.

A workload is a list of operations.  An operation is one ``cli.main(argv)``
invocation or one library call; it *fails* when the command exits nonzero (or
the library report does not pass), when the program raises, or when the
checker finds a problem in what it wrote: a missing file, a non-finite number
anywhere in a JSON or CSV output, a wrong row count, or a residual above the
config's ``tol_residual`` (``10 * tol_residual`` for the oracle difference).
A problem found in the output of an operation the program itself reported as
passing is a *silent* failure, which makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from qsolidtorus import cli, dirac
from qsolidtorus.config import default_config_dict

NAMES = ("grid-k128", "grid-k128-tabulated", "deep-k65536", "algebra-dim169")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# The tabulated families of tests/test_tabulated_families.py.
TABULATED_WEIGHTS = {
    "kind": "tabulated",
    "table": [[1.5, 3.0, 7.5], [2.5, 9.0]],
    "tail": {"rule": "power", "lambda": 1.0, "p": 1.0, "q": 2.0},
}
TABULATED_COEFFS = {
    "kind": "tabulated",
    "table1": [0.5, 0.8],
    "table2": [0.6],
    "tail": {"rule": "geometric", "t1": 0.5, "t2": 0.5},
    "kappa": 2.0,
}


@dataclass
class Outcome:
    """What one operation did and what the checker found in its output."""

    label: str
    program_ok: bool
    verdict: str = ""  # the program's own account of a failure
    problems: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return not self.program_ok or bool(self.problems)

    @property
    def silent(self) -> bool:
        return self.program_ok and bool(self.problems)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    ops: list[Op]
    out_dir: Path | None
    configs: dict[str, str]  # config label -> SHA-256 of the file written

    def clear_outputs(self) -> None:
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            self.out_dir.mkdir(parents=True)

    def run_pass(self) -> tuple[float, list[object]]:
        """Run every operation once; returns the pass's wall time and results."""
        results = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            for op in self.ops:
                try:
                    results.append(op.run())
                except Exception as exc:  # a crash is a failed operation, not a stop
                    results.append(exc)
            wall = perf_counter() - t0
        return wall, results

    def check_pass(self, results: list[object]) -> list[Outcome]:
        out = []
        for op, res in zip(self.ops, results):
            if isinstance(res, Exception):
                out.append(Outcome(op.label, False, f"raised {type(res).__name__}: {res}"))
            else:
                out.append(op.check(res))
        return out


# ---------------------------------------------------------------- checking


def walk_nonfinite(obj, where: str = "$") -> list[str]:
    """Paths of every non-finite float inside a decoded JSON value."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [f"{where}={obj!r}"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in walk_nonfinite(v, f"{where}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in walk_nonfinite(v, f"{where}[{i}]")]
    return []


def read_json(path: Path, problems: list[str]):
    """Decode an output file, recording a missing file or any non-finite number.

    The encoder writes NaN and inf as the bare tokens NaN / Infinity, which the
    decoder accepts, so every value is walked after decoding.
    """
    if not path.is_file():
        problems.append(f"{path.name}: missing")
        return None
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        problems.append(f"{path.name}: not JSON ({exc})")
        return None
    problems.extend(f"{path.name}: non-finite {p}" for p in walk_nonfinite(data)[:3])
    return data


def read_csv_rows(path: Path, problems: list[str]) -> list[dict]:
    if not path.is_file():
        problems.append(f"{path.name}: missing")
        return []
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    for i, row in enumerate(rows):
        for key, val in row.items():
            try:
                x = float(val)
            except (TypeError, ValueError):
                continue  # empty cells and booleans
            if not math.isfinite(x):
                problems.append(f"{path.name}: non-finite row {i} {key}={val}")
    return rows


def _count(problems: list[str], what: str, got: int, want: int) -> None:
    if got != want:
        problems.append(f"{what}: {got} rows, expected {want}")


def _worst(problems: list[str], what: str, values: list[float], tol: float) -> float:
    # max() treats NaN inconsistently, so non-finite values are reported first
    if not values:
        problems.append(f"{what}: no values")
        return math.inf
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{what}: non-finite residual")
        return math.inf
    worst = max(values)
    if worst > tol:
        problems.append(f"{what}: worst residual {worst:.3g} above {tol:.3g}")
    return worst


def _cli_op(label: str, argv: list[str], check: Callable[[Outcome], None]) -> Op:
    def run() -> int:
        return cli.main(argv)

    def check_rc(rc) -> Outcome:
        o = Outcome(label, rc == 0, f"exit {rc}")
        check(o)
        return o

    return Op(label, run, check_rc)


def _cli_ops(cfg: dict, cfg_path: Path, out_dir: Path, seed: int, commands: list[str]) -> list[Op]:
    m_list, n_list = cfg["grid"]["m_list"], cfg["grid"]["n_list"]
    modes = len(m_list) * len(n_list)
    k_max = cfg["truncation"]["k_max"]
    tol = cfg["truncation"]["tol_residual"]
    base = ["--config", str(cfg_path), "--out", str(out_dir)]

    def check_validate(o: Outcome) -> None:
        data = read_json(out_dir / "validation.json", o.problems)
        if data is not None:
            if not data.get("checks"):
                o.problems.append("validation.json: no checks")
            o.verdict += _failed_names(data.get("checks", []))

    def check_solve(o: Outcome) -> None:
        data = read_json(out_dir / "solutions.json", o.problems)
        if data is None:
            return
        recs = data.get("solutions", [])
        _count(o.problems, "solutions.json", len(recs), modes)
        o.problems.extend(f"solutions.json: {r['error']}" for r in recs if "error" in r)
        recs = [r for r in recs if "error" not in r]
        o.accuracy["right_inverse"] = _worst(
            o.problems, "residual_right_inverse", [r["residual_right_inverse"] for r in recs], tol
        )
        o.accuracy["oracle"] = _worst(
            o.problems, "residual_oracle", [r["residual_oracle"] for r in recs], 10 * tol
        )

    def check_scan(o: Outcome) -> None:
        data = read_json(out_dir / "hs_scan.json", o.problems)
        if data is not None:
            _count(o.problems, "hs_scan.json", len(data.get("rows", [])), modes)
            o.verdict += _failed_names(data.get("envelope", []))
        _count(o.problems, "hs_scan.csv", len(read_csv_rows(out_dir / "hs_scan.csv", o.problems)), modes)
        lemma = read_json(out_dir / "lemma_summary.json", o.problems)
        if lemma is not None:
            rows = lemma.get("modes", [])
            _count(o.problems, "lemma_summary.json", len(rows), sum(m != 0 for m in m_list) * len(n_list))
            if rows:
                o.accuracy["wronskian"] = _worst(
                    o.problems, "wronskian_worst", [r["wronskian_worst"] for r in rows], tol
                )

    def check_dump(what: str, rows_per_mode: int | None):
        def check(o: Outcome) -> None:
            data = read_json(out_dir / f"dump_{what}.json", o.problems)
            if data is None:
                return
            rows = len(data.get("rows", []))
            if rows_per_mode is not None:
                _count(o.problems, f"dump_{what}.json", rows, modes * rows_per_mode)
            elif rows == 0:
                o.problems.append(f"dump_{what}.json: no rows")

        return check

    table = {
        "validate": (["validate"], check_validate),
        "solve": (["solve", "--seed", str(seed)], check_solve),
        "scan": (["scan"], check_scan),
        "dump-solution": (["dump", "--what", "solution"], check_dump("solution", k_max + 1)),
        "dump-transfer": (["dump", "--what", "transfer"], check_dump("transfer", None)),
    }
    return [_cli_op(name, base + table[name][0], table[name][1]) for name in commands]


def _failed_names(checks: list[dict]) -> str:
    bad = [ch.get("name", "?") for ch in checks if not ch.get("passed", False)]
    return f"; failed checks: {', '.join(bad)}" if bad else ""


def _algebra_op(theta: float, label: str, seed: int, tiny: bool) -> Op:
    k_cut, l_cut, n_roundtrip, n_trace = (8, 4, 2, 5) if tiny else (12, 6, 20, 100)

    def run():
        rep = dirac.TruncatedAlgebraRep(theta, k_cut, l_cut)
        return dirac.algebra_sanity(
            rep, np.random.default_rng(seed), n_roundtrip=n_roundtrip, n_trace=n_trace
        )

    def check(report) -> Outcome:
        payload = report.as_dict()
        o = Outcome(label, report.all_passed, _failed_names(payload["checks"]))
        o.problems.extend(f"non-finite {p}" for p in walk_nonfinite(payload)[:3])
        worst = payload["worst"]
        o.accuracy["algebra"] = max(float(worst["commutation"]), float(worst["roundtrip_minus_rel"]))
        return o

    return Op(label, run, check)


# ---------------------------------------------------------------- workloads


def _write_config(cfg: dict, path: Path) -> str:
    text = json.dumps(cfg, indent=2, sort_keys=True)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _grid_config(seed: int, m_list, n_list, k_max: int, out_dir: Path, tabulated: bool = False) -> dict:
    """Default config on the given grid; the seed fixes the order the m modes run in.

    n_list keeps its ascending order: ``validate`` checks that s(n) decreases
    along n_list as written, so a shuffled n_list fails it.
    """
    m_list = list(m_list)
    random.Random(seed).shuffle(m_list)
    cfg = default_config_dict()
    cfg["grid"] = {"m_list": m_list, "n_list": list(n_list)}
    cfg["truncation"]["k_max"] = k_max
    cfg["output"]["dir"] = str(out_dir)
    if tabulated:
        cfg["weights"] = TABULATED_WEIGHTS
        cfg["coeffs"] = TABULATED_COEFFS
    return cfg


def make(name: str, tmp: Path, seed: int, tiny: bool = False) -> Workload:
    """Build a workload's inputs under ``tmp`` from ``seed``."""
    out_dir = tmp / "out"
    default = default_config_dict()["grid"]
    if name in ("grid-k128", "grid-k128-tabulated"):
        tabulated = name.endswith("tabulated")
        if tiny:
            cfg = _grid_config(seed, (0, 1, -2), (0, 1), 16, out_dir, tabulated)
        else:
            cfg = _grid_config(seed, default["m_list"], default["n_list"], 128, out_dir, tabulated)
        commands = ["solve", "scan"] if tabulated else ["validate", "solve", "scan", "dump-solution", "dump-transfer"]
    elif name == "deep-k65536":
        cfg = _grid_config(seed, (0, 1, -8, 64), (0, 4), 256 if tiny else 65536, out_dir)
        commands = ["scan"]
    elif name == "algebra-dim169":
        thetas = {"theta=0": 0.0, "theta=1/4": 0.25, "theta=golden": GOLDEN}
        ops = [_algebra_op(th, label, seed, tiny) for label, th in thetas.items()]
        return Workload(ops, None, {})
    else:
        raise KeyError(name)
    tmp.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp / "config.json"
    sha = _write_config(cfg, cfg_path)
    ops = _cli_ops(cfg, cfg_path, out_dir, seed, commands)
    return Workload(ops, out_dir, {cfg_path.name: sha})
