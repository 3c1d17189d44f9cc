"""The (-m, n) tables are the (m, n) ones with their signs flipped, bit for bit.

Each command builds one mode of each +-m pair and derives the other; these
tests hold the derived tables, reports and command outputs to direct builds.
"""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

import qsolidtorus.analysis as analysis
import qsolidtorus.cli as cli
from qsolidtorus.analysis import hs_norms
from qsolidtorus.cli import main
from qsolidtorus.config import default_config_dict, load_config
from qsolidtorus.families import CoefficientFamily
from qsolidtorus.solutions import (
    build_solution,
    by_level,
    mirror_solution,
    verify_lemma_suite,
    wronskian_residuals,
)
from qsolidtorus.transfer import Levels, ModeIndex, SingularMatrixError, limit_product, mirror_product


def same_bits(a, b) -> bool:
    """Equal shape and bytes: unlike np.array_equal, -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k_max", [16, 128, 1024])
@pytest.mark.parametrize("m", [1, 3, 32, 1024])
@pytest.mark.parametrize("n", [0, 4])
def test_mirrored_tables_equal_direct_builds_bit_for_bit(families, k_max, m, n):
    w, c = families
    plus = build_solution(ModeIndex(m, n), Levels(w, c, k_max))
    minus = build_solution(ModeIndex(-m, n), Levels(w, c, k_max))
    twin = mirror_solution(plus)
    assert twin.mode == minus.mode and twin.K_inf == minus.K_inf
    for name in ("I", "K"):
        assert same_bits(getattr(twin, name), getattr(minus, name)), name
    # the checks read the oriented view, so -m gives +m's arrays: decay_scan copies +m's reports to -m
    for got, want in zip(twin.oriented(), minus.oriented()):
        assert same_bits(got, want)
    for got, want in zip(minus.oriented(), plus.oriented()):
        assert same_bits(got, want)
    assert same_bits(twin.tau, minus.tau) and twin.eps == minus.eps
    assert same_bits(twin.seed_tail_bound, minus.seed_tail_bound)
    for name in ("an", "an1", "c1", "c2", "prefix"):
        assert same_bits(getattr(twin.table, name), getattr(minus.table, name)), name
    assert same_bits(wronskian_residuals(twin), wronskian_residuals(minus))

    assert dataclasses.replace(hs_norms(plus, w, c), mode=twin.mode) == hs_norms(minus, w, c)
    assert dataclasses.replace(verify_lemma_suite(plus), mode=twin.mode) == verify_lemma_suite(minus)
    assert dataclasses.replace(verify_lemma_suite(minus), mode=plus.mode) == verify_lemma_suite(plus)

    try:
        direct = limit_product(ModeIndex(-m, n), Levels(w, c, k_max))
    except SingularMatrixError:
        # the determinants are equal, so the mirrored side raises too
        with pytest.raises(SingularMatrixError):
            limit_product(ModeIndex(m, n), Levels(w, c, k_max))
        return
    flipped = mirror_product(limit_product(ModeIndex(m, n), Levels(w, c, k_max)))
    assert same_bits(flipped.partials, direct.partials)
    assert flipped.mode == direct.mode and same_bits(flipped.C, direct.C)


def test_singular_limit_raises_on_the_mirrored_path(families):
    """With c_2 = 1e-160 at k = 0, 1, det P(K) = prod c2/c1 falls below the floor at every m; each side of
    (+-4, 0) reports its own failure."""
    w, _ = families
    c = CoefficientFamily(table2=(1e-160, 1e-160), tail_rule="constant")
    modes = [ModeIndex(4, 0), ModeIndex(-4, 0)]
    calls = []

    def build(mode):
        calls.append(mode)
        return limit_product(mode, Levels(w, c, 16))

    levels = [(n, dict(results), dict(errors)) for n, results, errors, _ in by_level(modes, build, mirror_product)]
    assert [(n, results) for n, results, _ in levels] == [(0, {})]
    assert levels[0][2] == dict.fromkeys(modes, "limit product determinant underflowed")
    assert calls == modes


def test_a_zero_entry_is_not_mirrored(families):
    """A zero that a flip would turn into -0.0 sends the partner to a direct build."""
    w, c = families
    sol = build_solution(ModeIndex(2, 1), Levels(w, c, 32))
    I_tab = sol.I.copy()
    I_tab[5, 1] = 0.0
    assert mirror_solution(dataclasses.replace(sol, I=I_tab)) is None
    tp = limit_product(ModeIndex(2, 1), Levels(w, c, 32))
    parts = tp.partials.copy()
    parts[3, 1, 0] = 0.0
    assert mirror_product(dataclasses.replace(tp, partials=parts)) is None
    # P(0) = I keeps its +0.0 off-diagonals
    assert not np.signbit(mirror_product(tp).partials[0]).any()
    assert mirror_solution(build_solution(ModeIndex(0, 1), Levels(w, c, 32))) is None


def test_a_rule_that_is_not_odd_is_not_mirrored(families):
    from qsolidtorus.solutions import BoundaryRule

    w, c = families
    rule = BoundaryRule({2: (0.1, 1.0)})
    assert mirror_solution(build_solution(ModeIndex(2, 0), Levels(w, c, 32), rule=rule), rule) is None
    assert mirror_solution(build_solution(ModeIndex(-2, 0), Levels(w, c, 32), rule=rule), rule) is None
    assert mirror_solution(build_solution(ModeIndex(3, 0), Levels(w, c, 32), rule=rule), rule) is not None


def test_by_level_names_the_mirrored_modes(families):
    """``mirrored`` holds each mode that mirror_solution made, and no mode that was built: not one whose
    partner has a zero entry, not one where the rule is not odd, and not one whose partner failed."""
    from qsolidtorus.solutions import BoundaryRule

    w, c = families
    levels, rule = Levels(w, c, 32), BoundaryRule({2: (0.1, 1.0)})

    def build(mode):
        if mode.m == 5:
            raise SingularMatrixError(f"mode {mode}")
        sol = build_solution(mode, levels, rule)
        if mode.m == 3:
            I_tab = sol.I.copy()
            I_tab[5, 1] = 0.0
            sol = dataclasses.replace(sol, I=I_tab)
        return sol

    modes = [ModeIndex(m, n) for n in (0, 1) for m in (0, 1, -1, 2, -2, 3, -3, 5, -5)]
    got = []
    for n, results, errors, mirrored in by_level(modes, build, lambda sol: mirror_solution(sol, rule)):
        assert all(results[mode].mode == mode for mode in results)
        got.append((n, mirrored, sorted(mode.m for mode in results), sorted(mode.m for mode in errors)))
    assert got == [
        (n, {ModeIndex(-1, n): ModeIndex(1, n)}, [-5, -3, -2, -1, 0, 1, 2, 3], [5]) for n in (0, 1)
    ]


def test_by_level_pairs_plus_minus_m_within_each_level():
    class Built:
        def __init__(self, mode, derived=False):
            self.mode, self.derived = mode, derived

    built = []

    def build(mode):
        built.append(mode)
        if abs(mode.m) == 5:
            raise SingularMatrixError(f"mode {mode}")
        return Built(mode)

    def mirror(src):
        # a result that cannot be mirrored sends its partner to a build
        return None if abs(src.mode.m) == 3 else Built(ModeIndex(-src.mode.m, src.mode.n), derived=True)

    order = [(-1, 1), (2, 0), (1, 1), (0, 0), (-2, 0), (5, 0), (-5, 0), (3, 0), (-3, 0), (1, 0), (2, 0), (-1, 2)]
    modes = [ModeIndex(m, n) for m, n in order]
    levels, kept = [], []
    for n, results, errors, mirrored in by_level(modes, build, mirror):
        gc.collect()
        # the results of the level before are gone
        assert [ref() for ref in kept] == [None] * len(kept)
        derived = {mode.m: res.derived for mode, res in results.items()}
        assert all(src.n == n for src in mirrored.values())
        levels.append((n, derived, {mode.m: msg for mode, msg in errors.items()},
                       {mode.m: src.m for mode, src in mirrored.items()}))
        kept = [weakref.ref(res) for res in results.values()]
    # levels in the order the modes first reach them, each level's modes in the modes' order, each mode once;
    # mirrored names exactly the derived modes, not -3 (its mirror gave None) nor -5 (its partner failed)
    level_0 = {2: False, 0: False, -2: True, 3: False, -3: False, 1: False}
    failed = {m: f"mode {ModeIndex(m, 0)}" for m in (5, -5)}
    assert levels == [(1, {-1: False, 1: True}, {}, {1: -1}), (0, level_0, failed, {-2: 2}), (2, {-1: False}, {}, {})]
    # a failed build is not mirrored: its partner is built and names its own mode;
    # an equal |m| on another level is not a partner
    assert built == [modes[j] for j in (0, 1, 3, 5, 6, 7, 8, 9, 11)]


def _pm_config(tmp_path, boundary=None, m_list=(2, 0, -1, -2, 1, 3), n_list=(0, 1), k_max=24):
    cfg = default_config_dict()
    cfg["grid"] = {"m_list": list(m_list), "n_list": list(n_list)}
    cfg["truncation"]["k_max"] = k_max
    cfg["output"]["dir"] = str(tmp_path / "out")
    if boundary is not None:
        cfg["boundary"] = boundary
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def _count_builds(monkeypatch):
    calls = {"build_solution": [], "limit_product": []}
    for name, real in (("build_solution", cli.build_solution), ("limit_product", cli.limit_product)):
        def counting(mode, *args, _real=real, _name=name, **kwargs):
            calls[_name].append((mode.m, mode.n))
            return _real(mode, *args, **kwargs)

        for module in (analysis, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


def _level_major(cfg):
    """The grid in the order scan and the dumps build it: level by level, each level in m_list's order."""
    return [(m, n) for n in cfg["grid"]["n_list"] for m in cfg["grid"]["m_list"]]


def _first_of_each_pair(modes):
    seen, out = set(), []
    for m, n in modes:
        if (abs(m), n) not in seen:
            seen.add((abs(m), n))
            out.append((m, n))
    return out


@pytest.mark.parametrize("argv", [["solve"], ["scan"], ["dump", "--what", "solution"], ["dump", "--what", "transfer"]])
def test_each_command_builds_each_pair_once(tmp_path, monkeypatch, argv):
    path, cfg = _pm_config(tmp_path)
    calls = _count_builds(monkeypatch)
    assert main(["--config", str(path), *argv]) == 0
    grid = [(m, n) for m in cfg["grid"]["m_list"] for n in cfg["grid"]["n_list"]]
    # each command builds level by level: solve each level's modes sorted, the others in grid order
    order = sorted(grid, key=lambda mn: (mn[1], mn[0])) if argv == ["solve"] else _level_major(cfg)
    want = _first_of_each_pair(order)
    name = "limit_product" if argv[-1] == "transfer" else "build_solution"
    assert calls[name] == want
    assert len(want) == len({(abs(m), n) for m, n in grid})


@pytest.mark.parametrize("argv", [["solve"], ["scan"], ["dump", "--what", "solution"], ["dump", "--what", "transfer"]])
def test_no_result_outlives_its_level(tmp_path, monkeypatch, argv):
    """When a command starts its second level, no solution (or product) of its first level is alive."""
    path, _ = _pm_config(tmp_path)
    first, started = [], []

    def tracking(real, mode_of):
        def wrapped(*args, **kwargs):
            n = mode_of(args[0]).n
            if n != 0 and not started:
                gc.collect()
                started.append(sum(ref() is not None for ref in first))
            out = real(*args, **kwargs)
            if out is not None and n == 0:
                first.append(weakref.ref(out))
            return out

        return wrapped

    for name, mode_of in (("build_solution", lambda mode: mode), ("limit_product", lambda mode: mode),
                          ("mirror_solution", lambda sol: sol.mode), ("mirror_product", lambda tp: tp.mode)):
        for module in (analysis, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, tracking(getattr(module, name), mode_of))
    assert main(["--config", str(path), *argv]) == 0
    # six first-level results were made, and none was alive when the second level began
    assert len(first) == 6 and started == [0]


def test_a_table_rule_that_is_not_odd_builds_both_sides(tmp_path, monkeypatch):
    boundary = {"rule": "table", "table": {"2": [0.1, 1.0]}}
    path, cfg = _pm_config(tmp_path, boundary=boundary)
    calls = _count_builds(monkeypatch)
    assert main(["--config", str(path), "scan"]) == 0
    grid = _level_major(cfg)
    both = [(m, n) for m, n in grid if abs(m) == 2]
    assert calls["build_solution"] == [mn for mn in grid if mn in both or mn in _first_of_each_pair(grid)]
    _assert_scan_equals_direct_builds(path, tmp_path)


def test_scan_rows_equal_direct_per_mode_builds(tmp_path):
    path, _ = _pm_config(tmp_path)
    assert main(["--config", str(path), "scan"]) == 0
    _assert_scan_equals_direct_builds(path, tmp_path)


def _assert_scan_equals_direct_builds(path, tmp_path):
    conf = load_config(path)
    w, c, k_max = conf.weights, conf.coeffs, conf.k_max
    hs_rows = json.loads((tmp_path / "out" / "hs_scan.json").read_text())["rows"]
    lemma_rows = json.loads((tmp_path / "out" / "lemma_summary.json").read_text())["modes"]
    grid = [(m, n) for m in conf.m_list for n in conf.n_list]
    assert [(r["m"], r["n"]) for r in hs_rows] == grid
    assert [(r["m"], r["n"]) for r in lemma_rows] == [(m, n) for m, n in grid if m != 0]
    lemmas = iter(lemma_rows)
    for row, (m, n) in zip(hs_rows, grid):
        sol = build_solution(ModeIndex(m, n), Levels(w, c, k_max), rule=conf.boundary)
        assert row == json.loads(json.dumps(hs_norms(sol, w, c).row()))
        if m == 0:
            continue
        rep = verify_lemma_suite(sol)
        assert next(lemmas) == {
            "m": m,
            "n": n,
            "all_passed": rep.all_passed,
            "worst_slack": rep.worst,
            "wronskian_worst": float(np.max(wronskian_residuals(sol))),
            "failures": [ch.name for ch in rep.failed()],
        }


def test_solve_and_dump_equal_direct_per_mode_builds(tmp_path):
    """On the +-m grid plus one mode that fails to build, solve's records and the solution dump's rows
    equal, bit for bit, one mode at a time on direct builds: no stack, no mirror, no shared level data."""
    from qsolidtorus.parametrix import RhsPair, WeightedSeq, apply_A, apply_Q, oracle_solve, random_rhs
    from qsolidtorus.solutions import RangeOverflowError

    path, _ = _pm_config(tmp_path)
    conf = load_config(path)
    w, c, k_max = conf.weights, conf.coeffs, conf.k_max
    ms = (*conf.m_list, 10**8)  # (10**8, 0) overflows its forward recursion; (10**8, 1) builds
    only = ["--modes", ",".join(map(str, ms))]
    assert main(["--config", str(path), *only, "solve", "--seed", "3"]) == 1
    assert main(["--config", str(path), *only, "dump", "--what", "solution"]) == 1
    out = tmp_path / "out"
    records = json.loads((out / "solutions.json").read_text())["solutions"]
    rows = json.loads((out / "dump_solution.json").read_text())["rows"]

    rng = np.random.default_rng(3)
    rhs = {mn: random_rhs(ModeIndex(*mn), k_max, rng) for mn in sorted((m, n) for m in ms for n in conf.n_list)}
    want, sols = [], {}
    for (m, n), r in rhs.items():
        try:
            sols[(m, n)] = sol = build_solution(ModeIndex(m, n), Levels(w, c, k_max), rule=conf.boundary)
        except RangeOverflowError as exc:
            want.append({"m": m, "n": n, "error": f"mode ({m}, {n}): {exc}"})
            continue
        t = sol.table
        res = apply_Q(sol, r)
        back = apply_A(sol, res.h_g, res.h_f)
        diff = RhsPair(WeightedSeq(back.r1.values - r.r1.values, n + 1), WeightedSeq(back.r2.values - r.r2.values, n),
                       back.q0 - r.q0)
        orc = oracle_solve(sol, r)
        gap = np.sum((orc.h_g.values - res.h_g.values) ** 2) + np.sum((orc.h_f.values - res.h_f.values) ** 2)
        want.append({
            "m": m,
            "n": n,
            "residual_right_inverse": float(diff.norm(t) / np.maximum(r.norm(t), 1e-300)),
            "residual_oracle": float(float(np.sqrt(gap)) / np.maximum(res.norm(t), 1e-300)),
            "boundary_residual": float(res.boundary_residual),
            "beta": float(res.beta),
        })
    assert (10**8, 0) not in sols and (10**8, 1) in sols
    assert records == json.loads(json.dumps(want))

    grid = [(m, n) for m in ms for n in conf.n_list if (m, n) in sols]
    assert [(r["m"], r["n"]) for r in rows] == [mn for mn in grid for _ in range(k_max + 1)]
    for j, mn in enumerate(grid):
        sol, got = sols[mn], rows[j * (k_max + 1) : (j + 1) * (k_max + 1)]
        columns = {"I1": sol.I[:, 0], "I2": sol.I[:, 1], "K1": sol.K[:, 0], "K2": sol.K[:, 1],
                   "wronskian_residual": wronskian_residuals(sol)}
        for name, col in columns.items():
            assert same_bits(np.array([row[name] for row in got]), col), (mn, name)
