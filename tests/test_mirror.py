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
from qsolidtorus.solutions import (
    build_solution,
    mirror_solution,
    paired,
    verify_lemma_suite,
    wronskian_residuals,
)
from qsolidtorus.transfer import ModeIndex, SingularMatrixError, limit_product, mirror_product


def same_bits(a, b) -> bool:
    """Equal shape and bytes: unlike np.array_equal, -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k_max", [16, 128, 1024])
@pytest.mark.parametrize("m", [1, 3, 32, 1024])
@pytest.mark.parametrize("n", [0, 4])
def test_mirrored_tables_equal_direct_builds_bit_for_bit(families, k_max, m, n):
    w, c = families
    plus = build_solution(ModeIndex(m, n), w, c, k_max)
    minus = build_solution(ModeIndex(-m, n), w, c, k_max)
    twin = mirror_solution(plus)
    assert twin.mode == minus.mode and twin.K_inf == minus.K_inf
    for name in ("I", "K"):
        assert same_bits(getattr(twin, name), getattr(minus, name)), name
    assert same_bits(twin.tau, minus.tau) and twin.eps == minus.eps
    assert same_bits(twin.seed_tail_bound, minus.seed_tail_bound)
    for name in ("an", "an1", "c1", "c2", "C", "prefix"):
        assert same_bits(getattr(twin.table, name), getattr(minus.table, name)), name
    assert same_bits(wronskian_residuals(twin), wronskian_residuals(minus))

    assert dataclasses.replace(hs_norms(plus, w, c), mode=twin.mode) == hs_norms(minus, w, c)
    assert dataclasses.replace(verify_lemma_suite(plus), mode=twin.mode) == verify_lemma_suite(minus)
    assert dataclasses.replace(verify_lemma_suite(minus), mode=plus.mode) == verify_lemma_suite(plus)

    try:
        direct = limit_product(ModeIndex(-m, n), w, c, k_max)
    except SingularMatrixError:
        # the determinants are equal, so the mirrored side raises too
        with pytest.raises(SingularMatrixError):
            limit_product(ModeIndex(m, n), w, c, k_max)
        return
    flipped = mirror_product(limit_product(ModeIndex(m, n), w, c, k_max))
    assert same_bits(flipped.partials, direct.partials)
    assert same_bits(flipped.table.C, direct.table.C)


def test_singular_limit_raises_on_the_mirrored_path(families):
    """At K = 16, (+-1024, 0) falls below the determinant floor; each side reports its own failure."""
    w, c = families
    modes = [ModeIndex(1024, 0), ModeIndex(-1024, 0)]
    calls = []

    def build(mode):
        calls.append(mode)
        return limit_product(mode, w, c, 16)

    get = paired(build, mirror_product, modes)
    for mode in modes:
        with pytest.raises(SingularMatrixError):
            get(mode)
    assert calls == modes


def test_a_zero_entry_is_not_mirrored(families):
    """A zero that a flip would turn into -0.0 sends the partner to a direct build."""
    w, c = families
    sol = build_solution(ModeIndex(2, 1), w, c, 32)
    I_tab = sol.I.copy()
    I_tab[5, 1] = 0.0
    assert mirror_solution(dataclasses.replace(sol, I=I_tab)) is None
    tp = limit_product(ModeIndex(2, 1), w, c, 32)
    parts = tp.partials.copy()
    parts[3, 1, 0] = 0.0
    assert mirror_product(dataclasses.replace(tp, partials=parts)) is None
    # P(0) = I keeps its +0.0 off-diagonals
    assert not np.signbit(mirror_product(tp).partials[0]).any()
    assert mirror_solution(build_solution(ModeIndex(0, 1), w, c, 32)) is None


def test_a_rule_that_is_not_odd_is_not_mirrored(families):
    from qsolidtorus.solutions import BoundaryRule

    w, c = families
    rule = BoundaryRule({2: (0.1, 1.0)})
    assert mirror_solution(build_solution(ModeIndex(2, 0), w, c, 32, rule=rule), rule) is None
    assert mirror_solution(build_solution(ModeIndex(-2, 0), w, c, 32, rule=rule), rule) is None
    assert mirror_solution(build_solution(ModeIndex(3, 0), w, c, 32, rule=rule), rule) is not None


def test_paired_builds_the_first_of_each_pair_and_drops_what_it_kept():
    class Built:
        def __init__(self, mode, derived=False):
            self.mode, self.derived = mode, derived

    built = []

    def build(mode):
        if abs(mode.m) == 5:
            raise SingularMatrixError(f"mode {mode}")
        built.append(mode)
        return Built(mode)

    def mirror(src):
        return Built(ModeIndex(-src.mode.m, src.mode.n), derived=True)

    order = [(-1, 0), (2, 0), (1, 0), (0, 0), (-2, 0), (5, 0), (-5, 0), (3, 0), (1, 1)]
    modes = [ModeIndex(m, n) for m, n in order]
    get = paired(build, mirror, modes)
    kept = weakref.ref(get(modes[0]))
    gc.collect()
    assert kept() is not None
    get(modes[1])
    twin = get(modes[2])
    assert twin.derived and twin.mode == modes[2]
    gc.collect()
    assert kept() is None
    results = {}
    for mode in modes[3:]:
        try:
            results[mode] = get(mode)
        except SingularMatrixError as exc:
            results[mode] = str(exc)
    assert built == [ModeIndex(-1, 0), ModeIndex(2, 0), ModeIndex(0, 0), ModeIndex(3, 0), ModeIndex(1, 1)]
    assert results[ModeIndex(-2, 0)].derived
    # an error is not mirrored: the partner is built and names its own mode
    assert results[ModeIndex(5, 0)] == f"mode {ModeIndex(5, 0)}"
    assert results[ModeIndex(-5, 0)] == f"mode {ModeIndex(-5, 0)}"


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
    # solve runs its modes sorted, the others in grid order
    want = _first_of_each_pair(sorted(grid) if argv == ["solve"] else grid)
    name = "limit_product" if argv[-1] == "transfer" else "build_solution"
    assert calls[name] == want
    assert len(want) == len({(abs(m), n) for m, n in grid})


def test_a_table_rule_that_is_not_odd_builds_both_sides(tmp_path, monkeypatch):
    boundary = {"rule": "table", "table": {"2": [0.1, 1.0]}}
    path, cfg = _pm_config(tmp_path, boundary=boundary)
    calls = _count_builds(monkeypatch)
    assert main(["--config", str(path), "scan"]) == 0
    grid = [(m, n) for m in cfg["grid"]["m_list"] for n in cfg["grid"]["n_list"]]
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
        sol = build_solution(ModeIndex(m, n), w, c, k_max, rule=conf.boundary)
        assert row == json.loads(json.dumps(hs_norms(sol, w, c).row()))
        if m == 0:
            continue
        rep = verify_lemma_suite(sol)
        assert next(lemmas) == {
            "m": m,
            "n": n,
            "all_passed": rep.all_passed,
            "worst_slack": rep.worst_slack,
            "wronskian_worst": float(np.max(wronskian_residuals(sol))),
            "failures": [ch.name for ch in rep.failed()],
        }
