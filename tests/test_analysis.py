import dataclasses
import math

import numpy as np
import pytest

from qsolidtorus.analysis import decay_scan, hs_norms, scan_to_files
from qsolidtorus.families import eval_s
from qsolidtorus.parametrix import RhsPair, WeightedSeq, apply_Q
from qsolidtorus.solutions import build_solution
from qsolidtorus.transfer import Levels, ModeIndex, scalar_det_prefix
from reference import FUBINI_PAIRS


def test_hs_z_direct_double_sum(families, unit_coeffs):
    w, _ = families
    mode = ModeIndex(0, 0)
    K = 128
    sol = build_solution(mode, Levels(w, unit_coeffs, K))
    report = hs_norms(sol, w, unit_coeffs)
    got = report.hs[("Z", 0, 0)]
    brute = 0.0
    for k in range(K + 1):
        inner = sum(1.0 / w.a(0, i) for i in range(k + 1))
        brute += inner / w.a(1, k)
    assert got == pytest.approx(brute, rel=1e-12)
    assert got <= math.pi**4 / 72
    assert report.all_bounds_hold
    assert report.proxy == pytest.approx(math.sqrt(got))


def test_hs_z_with_gap_coefficients(families, tab_families):
    """Z00 sums the gap c1 that the m = 0 x equation carries, on matched and on tabulated (c1 != c2) families."""
    for w, c in (families, tab_families):
        mode = ModeIndex(0, 2)
        sol = build_solution(mode, Levels(w, c, 64))
        report = hs_norms(sol, w, c)
        got = report.hs[("Z", 0, 0)]
        brute = 0.0
        c1 = np.asarray(c.c(1, 2, np.arange(64)), dtype=float)
        for k in range(65):
            inner = 0.0
            for i in range(k + 1):
                inner += float(np.prod(c1[i:k] ** 2)) / w.a(2, i)
            brute += inner / w.a(3, k)
        assert got == pytest.approx(brute, rel=1e-11)
        assert got <= eval_s(w, 2).upper * eval_s(w, 3).upper


def inverse_block_hs2(sol) -> dict:
    """The squared HS norm of each (output, input) block of the inverse that ``apply_Q`` applies.

    The dense inverse is ``apply_Q`` on the 2K + 1 unit right-hand sides, each column scaled by its
    ``RhsPair.norm`` and each output measured by the norms ``ParametrixResult.norm`` adds up:
    x at level n, y at level n + 1.
    """
    K, n, t = sol.k_table, sol.mode.n, sol.table
    blocks = {(out, inp): 0.0 for out in "xy" for inp in ("r1", "r2", "q0")}
    for j in range(2 * K + 1):
        unit = np.zeros(2 * K + 1)
        unit[j] = 1.0
        r = RhsPair(WeightedSeq(unit[:K], n + 1), WeightedSeq(unit[K:-1], n), unit[-1])
        res = apply_Q(sol, r)
        inp = "r1" if j < K else "r2" if j < 2 * K else "q0"
        blocks["x", inp] += float(res.h_g.norm(t)) ** 2 / float(r.norm(t)) ** 2
        blocks["y", inp] += float(res.h_f.norm(t)) ** 2 / float(r.norm(t)) ** 2
    return blocks


@pytest.mark.parametrize("n", [0, 1, 4])
def test_hs_z_is_the_x_from_r1_block_of_the_inverse(families, tab_families, n):
    """At m = 0, Z00 is the x <- r1 block's squared HS norm up to an edge term, and the cross blocks are 0."""
    for w, c in (families, tab_families):
        sol = build_solution(ModeIndex(0, n), Levels(w, c, 128))
        blocks = inverse_block_hs2(sol)
        assert hs_norms(sol, w, c).hs["Z", 0, 0] == pytest.approx(blocks["x", "r1"], rel=1e-4)
        assert blocks["y", "r1"] == 0.0 and blocks["x", "r2"] == 0.0


@pytest.mark.parametrize("m, n", [(0, 0), (1, 0), (4, 1), (-2, 0)])
def test_proxy_is_not_the_hs_norm_of_the_inverse(families, tab_families, m, n):
    """proxy^2 over the weighted inverse's Frobenius^2 (all six blocks), K = 128: 0.52-0.53 at (0, 0), where
    the y blocks are in no sum, and 1.07-1.11 at m != 0."""
    low, high = (0.50, 0.55) if m == 0 else (1.05, 1.12)
    for w, c in (families, tab_families):
        sol = build_solution(ModeIndex(m, n), Levels(w, c, 128))
        ratio = hs_norms(sol, w, c).proxy ** 2 / sum(inverse_block_hs2(sol).values())
        assert low < ratio < high, ratio


def test_hs_x_brute_force_single_entry(families):
    w, c = families
    mode = ModeIndex(2, 1)
    n = 1
    K = 24
    sol = build_solution(mode, Levels(w, c, K))
    report = hs_norms(sol, w, c)
    R = 1.0 / scalar_det_prefix(c.c(1, n, np.arange(K)), c.c(2, n, np.arange(K)))
    an = np.asarray(w.a(n, np.arange(K + 1)), dtype=float)
    an1 = np.asarray(w.a(n + 1, np.arange(K + 1)), dtype=float)
    brute = 0.0
    for k in range(K + 1):
        inner = 0.0
        for i in range(k + 1, K + 2):  # kernel argument i-1 capped at the table end
            idx = i - 1
            if idx > K:
                continue
            inner += (R[idx] * sol.K[idx, 1]) ** 2 / an1[idx]
        brute += sol.I[k, 0] ** 2 / an[k] * inner
    assert report.hs[("X", 1, 2)] == pytest.approx(brute, rel=1e-12)


def test_fubini_cross_pairs_match_and_diagonal_gap_identified(families):
    w, c = families
    for (m, n) in ((1, 0), (4, 2), (-8, 1)):
        mode = ModeIndex(m, n)
        K = 96
        sol = build_solution(mode, Levels(w, c, K))
        rep = hs_norms(sol, w, c)
        hs = rep.hs
        assert hs[("X", 1, 2)] == pytest.approx(hs[("Y", 2, 1)], rel=1e-12)
        assert hs[("X", 2, 1)] == pytest.approx(hs[("Y", 1, 2)], rel=1e-12)
        # the same-index pairs differ by exactly the lower-triangle diagonal
        # (matched default coefficients: the scalar prefix products are all 1)
        R = 1.0 / scalar_det_prefix(c.c(1, n, np.arange(K)), c.c(2, n, np.arange(K)))
        assert np.all(R == 1.0)
        an = np.asarray(w.a(n, np.arange(K + 1)), dtype=float)
        an1 = np.asarray(w.a(n + 1, np.arange(K + 1)), dtype=float)
        diag_11 = float(np.sum((sol.K[: K + 1, 0] * sol.I[: K + 1, 0]) ** 2 / an**2))
        assert hs[("Y", 1, 1)] - hs[("X", 1, 1)] == pytest.approx(diag_11, rel=1e-10)
        diag_22 = float(np.sum((sol.K[: K + 1, 1] * sol.I[: K + 1, 1]) ** 2 / an1**2))
        assert hs[("X", 2, 2)] - hs[("Y", 2, 2)] == pytest.approx(diag_22, rel=1e-10)


def test_bounds_hold_with_margin(families):
    w, c = families
    for (m, n) in ((1, 0), (8, 0), (32, 0), (2, 8), (-16, 4)):
        mode = ModeIndex(m, n)
        sol = build_solution(mode, Levels(w, c, 128))
        rep = hs_norms(sol, w, c)
        assert rep.all_bounds_hold, rep.pass_flags


def test_hs_values_even_in_m(families):
    w, c = families
    for n in (0, 3):
        a = hs_norms(build_solution(ModeIndex(6, n), Levels(w, c, 64)), w, c)
        b = hs_norms(build_solution(ModeIndex(-6, n), Levels(w, c, 64)), w, c)
        for key in a.hs:
            assert a.hs[key] == pytest.approx(b.hs[key], rel=1e-14)
        assert a.proxy == pytest.approx(b.proxy, rel=1e-14)


def test_decay_scan_envelopes_and_outputs(families, tmp_path):
    w, c = families
    table = decay_scan((0, 1, -1, 4, -4), (0, 1, 4), Levels(w, c, 64))
    assert table.all_passed, table.failed()
    assert len(table.rows) == 15
    rows = {(r.mode.m, r.mode.n): r for r in table.rows}
    # m = 0 rows carry only Z00
    assert set(rows[(0, 0)].hs) == {("Z", 0, 0)}
    # ratio column matches the configured boundary rule
    assert rows[(4, 1)].ratio == pytest.approx(1.0 / 17.0)
    paths = scan_to_files(table, tmp_path, {"seed": 0})
    assert sorted(p.name for p in paths) == ["hs_scan.csv", "hs_scan.json"]
    text = (tmp_path / "hs_scan.csv").read_text()
    assert text.splitlines()[0].startswith("m,n")
    assert len(text.splitlines()) == 16


@pytest.mark.parametrize(("m_list", "n_list", "named"), [((1, 1, -2), (0,), "m=1"), ((1, -2), (0, 3, 0), "n=0")])
def test_decay_scan_rejects_a_repeated_m_or_n(families, m_list, n_list, named):
    """A repeated mode would be compared with itself by the decay checks; load_config rejects one too."""
    w, c = families
    with pytest.raises(ValueError, match=f"lists {named} more than once"):
        decay_scan(m_list, n_list, Levels(w, c, 16))


def test_assembled_kernel_values_decay_in_m(families):
    """Every tau-normalized kernel sum shrinks from m = 1 to m = 32.

    The bare double sums grow with the pairing scale tau; the assembled
    inverse divides by tau, and those are the quantities that decay.
    """
    w, c = families
    a = hs_norms(build_solution(ModeIndex(1, 0), Levels(w, c, 128)), w, c)
    b = hs_norms(build_solution(ModeIndex(32, 0), Levels(w, c, 128)), w, c)
    for key in a.hs:
        assert b.hs[key] / b.tau**2 < a.hs[key] / a.tau**2


def test_proxy_uses_assembled_scale(families):
    """The compactness surrogate divides by |tau| (the assembly prefactor)."""
    w, c = families
    mode = ModeIndex(8, 0)
    sol = build_solution(mode, Levels(w, c, 64))
    rep = hs_norms(sol, w, c)
    assert rep.proxy == pytest.approx(math.sqrt(sum(rep.hs.values())) / abs(rep.tau))


def test_fubini_pair_list_is_the_documented_one():
    assert FUBINI_PAIRS[0] == (("X", 1, 2), ("Y", 2, 1))
    assert len(FUBINI_PAIRS) == 4


def _each_report(real, change):
    """``real`` hs_norms with ``change`` applied to each report it gives, for one solution or a stack."""

    def patched(sol, *args, **kwargs):
        reps = real(sol, *args, **kwargs)
        return [change(rep) for rep in reps] if isinstance(reps, list) else change(reps)

    return patched


@pytest.mark.parametrize("part", ["hs", "bounds"])
def test_infinite_hs_sum_or_bound_fails_scan(families, monkeypatch, tmp_path, capsys, part):
    """An infinite HS sum or bound fails all_finite, the scan and the scan's exit code."""
    import dataclasses
    import json

    import qsolidtorus.analysis as analysis
    from qsolidtorus.cli import main
    from qsolidtorus.config import default_config_dict

    cfg = default_config_dict()
    cfg["grid"] = {"m_list": [1, 2], "n_list": [0, 1]}
    cfg["truncation"]["k_max"] = 32
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "scan"]) == 0

    real = analysis.hs_norms

    def inf_entry(rep):
        if rep.mode.m != 2:
            return rep
        values = dict(getattr(rep, part))
        values[next(iter(values))] = math.inf
        return dataclasses.replace(rep, **{part: values})

    monkeypatch.setattr(analysis, "hs_norms", _each_report(real, inf_entry))
    w, c = families
    table = decay_scan((1, 2), (0, 1), Levels(w, c, 32))
    assert [r.all_finite for r in table.rows] == [True, True, False, False]
    assert not table.all_passed
    capsys.readouterr()
    assert main(["--config", str(path), "scan"]) == 1
    assert "2 modes with a non-finite HS sum, bound or proxy" in capsys.readouterr().out


def test_an_infinite_sum_under_an_infinite_bound_fails_its_flag(families):
    """At K = 256, (8192, 0) squares tau past the float range: inf <= inf must not pass a bound flag.

    The flags agree alone and in a stack, and the finite rows of the stack keep theirs.
    """
    from qsolidtorus.solutions import stack

    w, c = families
    sols = [build_solution(ModeIndex(m, 0), Levels(w, c, 256)) for m in (1, 8192)]
    for rep in (hs_norms(sols[1], w, c), hs_norms(stack(sols), w, c)[1]):
        assert rep.hs["X", 1, 2] == rep.bounds["X", 1, 2] == math.inf
        infinite = [key for key in rep.hs if not (math.isfinite(rep.hs[key]) and math.isfinite(rep.bounds[key]))]
        assert [rep.pass_flags[key] for key in infinite] == [False] * len(infinite)
        assert not rep.all_bounds_hold and not rep.all_finite
    assert hs_norms(stack(sols), w, c)[0] == hs_norms(sols[0], w, c)
    assert hs_norms(sols[0], w, c).all_bounds_hold


def test_nan_proxy_fails_envelope_checks(families, monkeypatch):
    import dataclasses

    import qsolidtorus.analysis as analysis

    real = analysis.hs_norms

    def nan_proxy(rep):
        return dataclasses.replace(rep, proxy=math.nan) if rep.mode.m == 2 else rep

    monkeypatch.setattr(analysis, "hs_norms", _each_report(real, nan_proxy))
    w, c = families
    table = decay_scan((1, 2), (0, 1), Levels(w, c, 32))
    checks = {ch.name: ch.passed for ch in table.checks}
    assert checks["proxy_decays_in_m"] is False
    assert checks["proxy_decays_in_n"] is False
    assert not table.all_passed


def test_eps_above_s_fails_eps_below_s(families, monkeypatch):
    """A negative control for eps_below_s: one report's eps above s(n) fails that decay check alone."""
    import dataclasses

    import qsolidtorus.analysis as analysis

    w, c = families

    def eps_above_s(rep):
        return dataclasses.replace(rep, eps=2.0 * eval_s(w, rep.mode.n).upper) if rep.mode.m == 2 else rep

    monkeypatch.setattr(analysis, "hs_norms", _each_report(analysis.hs_norms, eps_above_s))
    table = decay_scan((1, 2), (0, 1), Levels(w, c, 32))
    assert [ch.name for ch in table.failed()] == ["eps_below_s"]
    assert not table.all_passed


def _at(mode, **fields):
    """hs_norms with ``fields`` (a function of the report each) replaced in the report of ``mode`` = (m, n)."""

    def change(rep):
        if (rep.mode.m, rep.mode.n) != mode:
            return rep
        return dataclasses.replace(rep, **{name: f(rep) for name, f in fields.items()})

    return lambda real: _each_report(real, change)


def _on_inputs(change):
    """hs_norms on ``change`` of each solution it is given, one or a stack."""
    return lambda real: lambda sol, *args: real(change(sol), *args)


def _scaled(table: str, j: int, factor: float):
    """hs_norms on each solution with column j of its I or K table scaled by ``factor``."""

    def change(sol):
        values = getattr(sol, table).copy()
        values[..., j] *= factor
        return dataclasses.replace(sol, **{table: values})

    return _on_inputs(change)


# each decay_scan envelope check and each HS pass_* flag: a mutant of hs_norms (its reports, or the solutions
# it is given) and the full set of envelope checks and pass_* flags of any row that the mutant fails, as
# measured on m in (0, 1, 2), n in (0, 1), K = 32.  Scaling an I or K column scales the four sums that read
# it by factor^2, and Z00 = X12 / tau^2 where that is I1 or K2; tau / 1000 shrinks all eight X/Y bounds by
# 1e6 and grows Z00 by 1e6.
ENVELOPE_MUTANTS = {
    "proxy_decays_in_m": (_at((2, 0), proxy=lambda rep: 1e3 * rep.proxy), {"proxy_decays_in_m"}),
    "proxy_decays_in_n": (_at((1, 1), proxy=lambda rep: 1e3 * rep.proxy), {"proxy_decays_in_n"}),
    "eps_below_s": (_at((2, 0), eps=lambda rep: 2.0 * rep.s_n), {"eps_below_s"}),
    "K1 x 100": (_scaled("K", 0, 100.0), {"pass_X11", "pass_X21", "pass_Y11", "pass_Y12", "proxy_decays_in_m"}),
    "K2 x 10": (_scaled("K", 1, 10.0), {"pass_X12", "pass_X22", "pass_Y21", "pass_Z00"}),
    "I1 x 10": (_scaled("I", 0, 10.0), {"pass_X12", "pass_Y11", "pass_Y21", "pass_Z00"}),
    "I2 x 100": (_scaled("I", 1, 100.0), {"pass_X21", "pass_X22", "pass_Y12", "pass_Y22", "proxy_decays_in_m"}),
    "tau / 1000": (
        _on_inputs(lambda sol: dataclasses.replace(sol, tau=1e-3 * sol.tau)),
        {"pass_Z00"} | {f"pass_{op}{a}{b}" for op in "XY" for a in (1, 2) for b in (1, 2)},
    ),
    "a_n / 4": (
        _on_inputs(lambda sol: dataclasses.replace(sol, table=dataclasses.replace(sol.table, an=sol.table.an / 4))),
        {"pass_Z00"},
    ),
}


def _envelope_failures(table) -> set[str]:
    """The envelope checks a scan fails, and the pass_* flags that any of its rows fails."""
    flags = {"pass_%s%d%d" % key for row in table.rows for key, ok in row.pass_flags.items() if not ok}
    return {ch.name for ch in table.failed()} | flags


@pytest.mark.parametrize("name", list(ENVELOPE_MUTANTS))
def test_each_envelope_mutant_fails_its_measured_set(families, monkeypatch, name):
    """A negative control per envelope check and HS flag: the mutant's full failing set, and the scan fails."""
    import qsolidtorus.analysis as analysis

    w, c = families
    patch, failing = ENVELOPE_MUTANTS[name]
    assert decay_scan((0, 1, 2), (0, 1), Levels(w, c, 32)).all_passed
    monkeypatch.setattr(analysis, "hs_norms", patch(analysis.hs_norms))
    table = decay_scan((0, 1, 2), (0, 1), Levels(w, c, 32))
    assert _envelope_failures(table) == failing
    assert not table.all_passed


def test_every_envelope_check_has_a_mutant(families):
    """An envelope check or an HS flag added without a mutant that fails it fails here."""
    w, c = families
    table = decay_scan((0, 1, 2), (0, 1), Levels(w, c, 32))
    names = {ch.name for ch in table.checks} | {"pass_%s%d%d" % key for row in table.rows for key in row.pass_flags}
    assert len(names) == 12
    assert names == set().union(*(failing for _, failing in ENVELOPE_MUTANTS.values()))


@pytest.mark.parametrize(("name", "witness"), [
    ("proxy_decays_in_m", "proxy(2,0)=685 >= proxy(1,0)=0.928"),
    ("proxy_decays_in_n", "proxy(1,1) >= proxy(1,0)"),
])
def test_each_proxy_mutant_names_its_failing_pair(families, monkeypatch, name, witness):
    """The failing decay check's witness is its last failing pair; the other checks keep their pass texts."""
    import qsolidtorus.analysis as analysis

    w, c = families
    held = {
        "proxy_decays_in_m": "proxy(|m|=2, n) < proxy(|m|=1, n) for all n",
        "proxy_decays_in_n": "proxy(m, 1) < proxy(m, 0) for all m",
        "eps_below_s": "eps(m,n) <= s(n) on the grid",
    }
    monkeypatch.setattr(analysis, "hs_norms", ENVELOPE_MUTANTS[name][0](analysis.hs_norms))
    table = decay_scan((0, 1, 2), (0, 1), Levels(w, c, 32))
    assert [(ch.name, ch.passed, ch.witness) for ch in table.checks] == [
        (check, check != name, witness if check == name else text) for check, text in held.items()
    ]


def test_proxy_decays_in_m_compares_a_sign_with_the_other_signs_largest_m(families, monkeypatch):
    """With no m = 2 on the grid, m = 1 is compared with m = -2; the witness is the last level's pair."""
    import qsolidtorus.analysis as analysis

    w, c = families
    monkeypatch.setattr(analysis, "hs_norms", _at((-2, 4), proxy=lambda rep: 1e3 * rep.proxy)(analysis.hs_norms))
    table = decay_scan((1, -2), (0, 4), Levels(w, c, 32))
    rows = {(r.mode.m, r.mode.n): r.proxy for r in table.rows}
    check = table.checks[0]
    assert check.name == "proxy_decays_in_m" and not check.passed
    assert check.witness == f"proxy(-2,4)={rows[-2, 4]:.3g} >= proxy(1,4)={rows[1, 4]:.3g}"


def test_scan_checks_each_level_once_and_no_mirrored_mode(families, monkeypatch):
    """On the default grid, hs_norms and the lemma suite run once on each level's built m != 0 stack and once
    on its m = 0 solution, never on a -m mode, which mirrors its +m partner."""
    import qsolidtorus.analysis as analysis
    from qsolidtorus.config import default_config_dict

    grid = default_config_dict()["grid"]
    calls = {"hs_norms": [], "verify_lemma_suite": []}
    for name in calls:
        def counting(sol, *args, _real=getattr(analysis, name), _calls=calls[name]):
            _calls.append((np.asarray(sol.mode.m).tolist(), sol.mode.n))
            return _real(sol, *args)

        monkeypatch.setattr(analysis, name, counting)
    w, c = families
    table = decay_scan(tuple(grid["m_list"]), tuple(grid["n_list"]), Levels(w, c, 32))
    assert table.all_passed and len(table.rows) == 78
    want = [call for n in grid["n_list"] for call in (([1, 2, 4, 8, 16, 32], n), (0, n))]
    assert calls == {"hs_norms": want, "verify_lemma_suite": want}
