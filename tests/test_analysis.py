import math

import numpy as np
import pytest

from qsolidtorus.analysis import FUBINI_PAIRS, decay_scan, hs_norms, scan_to_files
from qsolidtorus.families import CoefficientFamily, eval_s
from qsolidtorus.solutions import build_solution
from qsolidtorus.transfer import ModeIndex, scalar_det_prefix


def test_hs_z_direct_double_sum(families, unit_coeffs):
    w, _ = families
    mode = ModeIndex(0, 0)
    K = 128
    sol = build_solution(mode, w, unit_coeffs, K)
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


def test_hs_z_with_gap_coefficients(families):
    w, c = families
    mode = ModeIndex(0, 2)
    sol = build_solution(mode, w, c, 64)
    report = hs_norms(sol, w, c)
    got = report.hs[("Z", 0, 0)]
    brute = 0.0
    c2 = np.asarray(c.c(2, 2, np.arange(64)), dtype=float)
    for k in range(65):
        inner = 0.0
        for i in range(k + 1):
            inner += float(np.prod(c2[i:k] ** 2)) / w.a(2, i)
        brute += inner / w.a(3, k)
    assert got == pytest.approx(brute, rel=1e-11)
    assert got <= eval_s(w, 2).upper * eval_s(w, 3).upper


def test_hs_x_brute_force_single_entry(families):
    w, c = families
    mode = ModeIndex(2, 1)
    n = 1
    K = 24
    sol = build_solution(mode, w, c, K)
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
        sol = build_solution(mode, w, c, K)
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
        sol = build_solution(mode, w, c, 128)
        rep = hs_norms(sol, w, c)
        assert rep.all_bounds_hold, rep.pass_flags


def test_hs_values_even_in_m(families):
    w, c = families
    for n in (0, 3):
        a = hs_norms(build_solution(ModeIndex(6, n), w, c, 64), w, c)
        b = hs_norms(build_solution(ModeIndex(-6, n), w, c, 64), w, c)
        for key in a.hs:
            assert a.hs[key] == pytest.approx(b.hs[key], rel=1e-14)
        assert a.proxy == pytest.approx(b.proxy, rel=1e-14)


def test_decay_scan_envelopes_and_outputs(families, tmp_path):
    w, c = families
    table = decay_scan((0, 1, -1, 4, -4), (0, 1, 4), w, c, k_max=64)
    assert table.all_passed, table.failed()
    assert len(table.rows) == 15
    rows = {(r.mode.m, r.mode.n): r for r in table.rows}
    # m = 0 rows carry only the cumulative kernel
    assert set(rows[(0, 0)].hs) == {("Z", 0, 0)}
    # ratio column matches the configured boundary rule
    assert rows[(4, 1)].ratio == pytest.approx(1.0 / 17.0)
    paths = scan_to_files(table, tmp_path, ("csv", "json"), meta={"seed": 0})
    assert sorted(p.name for p in paths) == ["hs_scan.csv", "hs_scan.json"]
    text = (tmp_path / "hs_scan.csv").read_text()
    assert text.splitlines()[0].startswith("m,n")
    assert len(text.splitlines()) == 16


def test_assembled_kernel_values_decay_in_m(families):
    """Every tau-normalized kernel sum shrinks from m = 1 to m = 32.

    The bare double sums grow with the pairing scale tau; the assembled
    inverse divides by tau, and those are the quantities that decay.
    """
    w, c = families
    a = hs_norms(build_solution(ModeIndex(1, 0), w, c, 128), w, c)
    b = hs_norms(build_solution(ModeIndex(32, 0), w, c, 128), w, c)
    for key in a.hs:
        assert b.hs[key] / b.tau**2 < a.hs[key] / a.tau**2


def test_proxy_uses_assembled_scale(families):
    """The compactness surrogate divides by |tau| (the assembly prefactor)."""
    w, c = families
    mode = ModeIndex(8, 0)
    sol = build_solution(mode, w, c, 64)
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
    table = decay_scan((1, 2), (0, 1), w, c, 32)
    assert [r.all_finite for r in table.rows] == [True, True, False, False]
    assert not table.all_passed
    capsys.readouterr()
    assert main(["--config", str(path), "scan"]) == 1
    assert "2 modes with a non-finite HS sum, bound or proxy" in capsys.readouterr().out


def test_nan_proxy_fails_envelope_checks(families, monkeypatch):
    import dataclasses

    import qsolidtorus.analysis as analysis

    real = analysis.hs_norms

    def nan_proxy(rep):
        return dataclasses.replace(rep, proxy=math.nan) if rep.mode.m == 2 else rep

    monkeypatch.setattr(analysis, "hs_norms", _each_report(real, nan_proxy))
    w, c = families
    table = decay_scan((1, 2), (0, 1), w, c, 32)
    checks = {ch.name: ch.passed for ch in table.checks}
    assert checks["proxy_decays_in_m"] is False
    assert checks["proxy_decays_in_n"] is False
    assert not table.all_passed
