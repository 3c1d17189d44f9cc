import dataclasses
import math

import numpy as np
import pytest

from qsolidtorus.config import DEFAULT_GRID_M, DEFAULT_GRID_N
from qsolidtorus.families import CoefficientFamily, WeightFamily, eval_s
from qsolidtorus.solutions import (
    BoundaryRuleError,
    build_solution,
    choose_K_infinity,
    compute_I,
    compute_K,
    epsilon,
    perp_transport_residual,
    tau_of_tables,
    verify_lemma_suite,
    wronskian_residuals,
)
from qsolidtorus.transfer import ModeIndex, mode_table, partial_products, scalar_det_prefix


def test_default_boundary_rule_values():
    assert choose_K_infinity(ModeIndex(2, 0)).K_inf == (0.2, 1.0)
    assert choose_K_infinity(ModeIndex(-2, 3)).K_inf == (-0.2, 1.0)
    assert choose_K_infinity(ModeIndex(0, 1)).K_inf == (0.0, 1.0)


def test_custom_rule_rejected_with_clause():
    def bad_sign(m):
        return (-0.5, 1.0) if m > 0 else ((0.5, 1.0) if m < 0 else (0.0, 1.0))

    with pytest.raises(BoundaryRuleError, match="m>0"):
        choose_K_infinity(ModeIndex(1, 0), bad_sign)

    def no_decay(m):
        return (0.9 * np.sign(m), 1.0) if m != 0 else (0.0, 1.0)

    with pytest.raises(BoundaryRuleError, match="decay"):
        choose_K_infinity(ModeIndex(1, 0), no_decay)


def test_I_normalization_and_first_step(families):
    w, c = families
    I = compute_I(ModeIndex(1, 0), w, c, 4)
    assert tuple(I[0]) == (-1.0, 1.0)
    assert np.allclose(I[1], [-3.0, 1.25], rtol=0, atol=0)


def test_I_diagonal_mode_is_coefficient_product(families):
    w, c = families
    K = 20
    I = compute_I(ModeIndex(0, 2), w, c, K)
    ks = np.arange(K)
    prods = np.concatenate(([1.0], np.cumprod(1.0 / np.asarray(c.c(1, 2, ks)))))
    assert np.allclose(I[:, 0], -prods, rtol=1e-15, atol=0)
    assert np.all(I[:, 1] == 0.0)


def test_K_diagonal_mode(families, unit_coeffs):
    w, c = families
    bd = choose_K_infinity(ModeIndex(0, 1))
    K_tab, _ = compute_K(ModeIndex(0, 1), w, c, 16, bd)
    assert np.all(K_tab[:, 0] == 0.0)
    K_unit, _ = compute_K(ModeIndex(0, 1), w, unit_coeffs, 16, bd)
    assert np.all(K_unit == np.array([0.0, 1.0]))


def test_K_positive_and_monotone_for_positive_m(families):
    w, c = families
    bd = choose_K_infinity(ModeIndex(1, 0))
    K_tab, tail = compute_K(ModeIndex(1, 0), w, c, 32, bd)
    assert np.all(K_tab > 0)
    assert np.all(np.diff(K_tab[:, 1]) <= 0)
    assert tail > 0


def test_tau_values(families):
    w, c = families
    sol0 = build_solution(ModeIndex(0, 2), w, c, 32)
    assert sol0.tau == sol0.K[0, 1]
    for m in (1, 2, 7, -3):
        sol = build_solution(ModeIndex(m, 0), w, c, 32)
        assert sol.tau > 0


def test_wronskian_transport(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-5, 2), ModeIndex(32, 0), ModeIndex(0, 4)):
        sol = build_solution(mode, w, c, 128)
        res = wronskian_residuals(sol)
        assert float(np.max(res)) <= 1e-12
        # spot check the k = 5 instance against the scalar prefix
        pairing = sol.K[5, 0] * sol.I[5, 1] - sol.K[5, 1] * sol.I[5, 0]
        pref = scalar_det_prefix(c.c(1, mode.n, np.arange(5)), c.c(2, mode.n, np.arange(5)))[5]
        assert pairing == pytest.approx(sol.tau * pref, rel=1e-12)


def test_tau_via_tables_function(families):
    w, c = families
    sol = build_solution(ModeIndex(3, 1), w, c, 16)
    assert tau_of_tables(sol.I, sol.K) == sol.tau


def test_independence_everywhere(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(0, 0), ModeIndex(-9, 3)):
        sol = build_solution(mode, w, c, 64)
        dets = sol.K[:, 0] * sol.I[:, 1] - sol.K[:, 1] * sol.I[:, 0]
        assert np.all(np.abs(dets) > 0)


def test_epsilon_values(families):
    w, c = families
    for n in (0, 3, 16):
        e = epsilon(ModeIndex(0, n), w)
        s = eval_s(w, n)
        assert e.value == pytest.approx(s.value, rel=1e-12)
    for m in (1, 4, 32):
        for n in (0, 16):
            e = epsilon(ModeIndex(m, n), w)
            assert e.upper <= eval_s(w, n).value * (1 + 1e-12)
    assert epsilon(ModeIndex(32, 0), w).value < epsilon(ModeIndex(1, 0), w).value
    assert epsilon(ModeIndex(3, 16), w).value < epsilon(ModeIndex(3, 0), w).value


def test_epsilon_direct_summation_oracle(families):
    w, c = families
    m, n = 5, 1
    ks = np.arange(200000)
    an = np.asarray(w.a(n, ks), dtype=float)
    an1 = np.asarray(w.a(n + 1, ks), dtype=float)
    direct = float(np.sum(an1 / (m * m + an * an1)))
    got = epsilon(ModeIndex(m, n), w)
    assert got.value == pytest.approx(direct, rel=1e-5)
    assert got.tail < 1e-12


def test_perp_transport(families):
    w, c = families
    for mode in (ModeIndex(2, 0), ModeIndex(-6, 1)):
        sol = build_solution(mode, w, c, 48)
        assert perp_transport_residual(sol) <= 1e-10


def test_lemma_suite_positive_modes(families):
    w, c = families
    for m in range(1, 9):
        for n in range(0, 5):
            sol = build_solution(ModeIndex(m, n), w, c, 128)
            report = verify_lemma_suite(sol)
            assert report.all_passed, (m, n, [ch.name for ch in report.checks if not ch.passed])
            assert report.worst_slack <= 1e-14


def test_lemma_suite_product_bound_at_k_zero_is_tau(families):
    w, c = families
    sol = build_solution(ModeIndex(2, 0), w, c, 32)
    assert sol.K[0, 0] * sol.I[0, 1] <= sol.tau * (1 + 1e-14)


def test_lemma_suite_mirror_flagged(families):
    w, c = families
    plus = verify_lemma_suite(build_solution(ModeIndex(4, 1), w, c, 64))
    minus = verify_lemma_suite(build_solution(ModeIndex(-4, 1), w, c, 64))
    assert minus.all_passed and plus.all_passed
    assert minus.flagged and not plus.flagged
    assert minus.worst_slack == plus.worst_slack


def test_lemma_suite_m_zero_pattern(families):
    w, c = families
    report = verify_lemma_suite(build_solution(ModeIndex(0, 1), w, c, 64))
    assert report.all_passed
    assert {ch.name for ch in report.checks} == {
        "diag_pattern_I",
        "diag_pattern_K",
        "K2_nonincreasing",
    }


def test_compute_K_tolerance_guard(families):
    from qsolidtorus.transfer import ConvergenceError

    w, c = families
    bd = choose_K_infinity(ModeIndex(8, 0))
    with pytest.raises(ConvergenceError):
        compute_K(ModeIndex(8, 0), w, c, 32, bd, tol=1e-12)
    tab, tail = compute_K(ModeIndex(8, 0), w, c, 32, bd, tol=10.0)
    assert tail <= 10.0 and tab.shape == (33, 2)


def test_compute_I_overflow_guard(families):
    from qsolidtorus.solutions import RangeOverflowError

    w, c = families
    with pytest.raises(RangeOverflowError):
        compute_I(ModeIndex(10**40, 0), w, c, 8)


def test_lemma_suite_zero_slack_reports_not_raises(families):
    """Strictness stress: slack 0 may surface float ties as findings."""
    w, c = families
    sol = build_solution(ModeIndex(3, 0), w, c, 64)
    report = verify_lemma_suite(sol, slack=0.0)
    assert isinstance(report.all_passed, bool)
    assert all(ch.witness for ch in report.checks)


def test_seeded_solution_matches_deeper_seed_directionally(families):
    """A deeper seed changes the K table only within the drift certificate."""
    w, c = families
    mode = ModeIndex(3, 0)
    shallow = build_solution(mode, w, c, 64)
    deep = build_solution(mode, w, c, 512)
    # compare tau-normalized tables (the K function is scale-free in the inverse)
    a = shallow.K[:65] / shallow.tau
    b = deep.K[:65] / deep.tau
    rel = np.max(np.abs(a - b)) / np.max(np.abs(b))
    assert rel <= 2 * shallow.seed_tail_bound
    assert deep.seed_tail_bound < shallow.seed_tail_bound


def _row_rel_gap(got: np.ndarray, ref: np.ndarray) -> float:
    """Worst per-step gap relative to that step's largest reference entry."""
    got = got.reshape(len(got), -1)
    ref = ref.reshape(len(ref), -1)
    return float(np.max(np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)))


def test_scalar_sweeps_match_matmul_reference(families):
    """The plain-float I, K and P recurrences equal numpy 2x2 products to rounding."""
    w, c = families
    K = 128
    worst = {"I": 0.0, "K": 0.0, "P": 0.0}
    for m in DEFAULT_GRID_M:
        for n in DEFAULT_GRID_N:
            mode = ModeIndex(m, n)
            C = mode_table(mode, w, c, K).C
            ref_I = np.empty((K + 1, 2))
            ref_I[0] = (-1.0, m / w.a(n, 0))
            ref_P = np.empty((K + 1, 2, 2))
            ref_P[0] = np.eye(2)
            for k in range(K):
                ref_I[k + 1] = C[k] @ ref_I[k]
                ref_P[k + 1] = C[k] @ ref_P[k]
            bd = choose_K_infinity(mode)
            ks = np.arange(K)
            dets = np.asarray(c.c(2, n, ks)) / np.asarray(c.c(1, n, ks))
            ref_K = np.empty((K + 1, 2))
            ref_K[K] = bd.K_inf
            for k in range(K - 1, -1, -1):
                adj = np.array([[C[k, 1, 1], -C[k, 0, 1]], [-C[k, 1, 0], C[k, 0, 0]]])
                ref_K[k] = adj / dets[k] @ ref_K[k + 1]
            worst["I"] = max(worst["I"], _row_rel_gap(compute_I(mode, w, c, K), ref_I))
            worst["K"] = max(worst["K"], _row_rel_gap(compute_K(mode, w, c, K, bd)[0], ref_K))
            worst["P"] = max(worst["P"], _row_rel_gap(partial_products(C), ref_P))
    assert all(np.isfinite(v) and v <= 1e-14 for v in worst.values()), worst


def test_lemma_suite_worst_slack_keeps_nan(families):
    w, c = families
    sol = build_solution(ModeIndex(2, 1), w, c, 32)
    K = sol.K.copy()
    K[5, 0] = np.nan
    rep = verify_lemma_suite(dataclasses.replace(sol, K=K))
    assert not rep.all_passed
    assert math.isnan(rep.worst_slack)  # the builtin max dropped it and read -2.6e-4
