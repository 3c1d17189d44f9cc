import dataclasses
import math

import numpy as np
import pytest

from qsolidtorus.analysis import hs_norms
from qsolidtorus.config import DEFAULT_GRID_M, DEFAULT_GRID_N
from qsolidtorus.families import CoefficientFamily, WeightFamily, eval_s
from qsolidtorus.solutions import (
    M_PROBE,
    BoundaryRule,
    BoundaryRuleError,
    DegeneratePairingError,
    RangeOverflowError,
    build_solution,
    compute_I,
    compute_K,
    cumulative_product_sum,
    epsilon,
    mirror_solution,
    pairing,
    stack,
    verify_lemma_suite,
    wronskian_residuals,
)
from qsolidtorus.transfer import Levels, ModeIndex, partial_products, scalar_det_prefix
from reference import (
    compute_I_loop,
    compute_K_loop,
    cumulative_product_sum_loop,
    partial_products_loop,
    perp_transport_residual,
)


def test_default_boundary_rule_values():
    assert BoundaryRule()(2) == (0.2, 1.0)
    assert BoundaryRule()(-2) == (-0.2, 1.0)
    assert BoundaryRule()(0) == (0.0, 1.0)


def test_custom_rule_rejected_with_clause():
    with pytest.raises(BoundaryRuleError, match="m>0"):
        BoundaryRule({1: (-0.5, 1.0)})

    no_decay = {s * m: (0.9 * s, 1.0) for m in M_PROBE for s in (1, -1)}
    with pytest.raises(BoundaryRuleError, match="decay"):
        BoundaryRule(no_decay)


def test_boundary_rule_values_and_table_lookup():
    """The default rule is the closed form bit for bit; a table rule overrides only its entries."""
    entries = {0: (0.0, 2.0), 2: (0.3, 1.5), -300: (-1e-9, 3.0)}
    default, table = BoundaryRule(), BoundaryRule(entries)
    assert (default.name, table.name, BoundaryRule({}).name) == ("default", "table", "table")
    for m in range(-300, 301):
        expected = (0.0, 1.0) if m == 0 else (float(np.sign(m)) / (1.0 + m * m), 1.0)
        # repr tells apart -0.0 and a numpy scalar, which == does not
        assert repr(default(m)) == repr(expected), m
        assert repr(table(m)) == repr(entries.get(m, expected)), m


@pytest.mark.parametrize(
    ("table", "clause"),
    [
        ({100: (-0.2, 1.0)}, "m=100: m>0"),
        ({-3: (0.1, 1.0)}, "m=-3: m<0"),
        ({0: (0.0, 0.0)}, "m=0: m=0"),
        ({4: (0.5, 1.0)}, "m=4: .*decay"),
        ({s * 64: (0.4 * s, 1.0) for s in (1, -1)}, "m=64: .*decay"),
    ],
    ids=["off-probe-entry", "negative-m", "zero-k2", "rising-ratio", "ratio-not-halved"],
)
def test_boundary_rule_checked_once_when_built(table, clause):
    """Every table entry is checked, in or out of the probe, and the error names its m."""
    with pytest.raises(BoundaryRuleError, match=clause):
        BoundaryRule(table)


def test_I_normalization_and_first_step(families):
    w, c = families
    I = compute_I(ModeIndex(1, 0), Levels(w, c, 4))
    assert tuple(I[0]) == (-1.0, 1.0)
    assert np.allclose(I[1], [-3.0, 1.25], rtol=0, atol=0)


def test_I_diagonal_mode_is_coefficient_product(families):
    w, c = families
    K = 20
    I = compute_I(ModeIndex(0, 2), Levels(w, c, K))
    ks = np.arange(K)
    prods = np.concatenate(([1.0], np.cumprod(1.0 / np.asarray(c.c(1, 2, ks)))))
    assert np.allclose(I[:, 0], -prods, rtol=1e-15, atol=0)
    assert np.all(I[:, 1] == 0.0)


def test_K_diagonal_mode(families, unit_coeffs):
    w, c = families
    k_inf = BoundaryRule()(0)
    K_tab, _ = compute_K(ModeIndex(0, 1), Levels(w, c, 16), k_inf, 16)
    assert np.all(K_tab[:, 0] == 0.0)
    K_unit, _ = compute_K(ModeIndex(0, 1), Levels(w, unit_coeffs, 16), k_inf, 16)
    assert np.all(K_unit == np.array([0.0, 1.0]))


def test_K_positive_and_monotone_for_positive_m(families):
    w, c = families
    K_tab, tail = compute_K(ModeIndex(1, 0), Levels(w, c, 32), BoundaryRule()(1), 32)
    assert np.all(K_tab > 0)
    assert np.all(np.diff(K_tab[:, 1]) <= 0)
    assert tail > 0


def test_tau_values(families):
    w, c = families
    sol0 = build_solution(ModeIndex(0, 2), Levels(w, c, 32))
    assert sol0.tau == sol0.K[0, 1]
    for m in (1, 2, 7, -3):
        sol = build_solution(ModeIndex(m, 0), Levels(w, c, 32))
        assert sol.tau > 0
        # the two terms of tau share a sign: no cancellation, whatever the scale
        (i1, i2), (k1, k2) = sol.I[0], sol.K[0]
        assert sol.tau == abs(k1 * i2) + abs(k2 * i1)


def test_wronskian_transport(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-5, 2), ModeIndex(32, 0), ModeIndex(0, 4)):
        sol = build_solution(mode, Levels(w, c, 128))
        res = wronskian_residuals(sol)
        assert float(np.max(res)) <= 1e-12
        # spot check the k = 5 instance against the scalar prefix
        pairing = sol.K[5, 0] * sol.I[5, 1] - sol.K[5, 1] * sol.I[5, 0]
        pref = scalar_det_prefix(c.c(1, mode.n, np.arange(5)), c.c(2, mode.n, np.arange(5)))[5]
        assert pairing == pytest.approx(sol.tau * pref, rel=1e-12)


def test_tau_via_tables_function(families):
    w, c = families
    sol = build_solution(ModeIndex(3, 1), Levels(w, c, 16))
    assert pairing(sol.I, sol.K)[0] == sol.tau


def _tau_of_seed(mode: ModeIndex, w, c, k: int):
    """tau as a function of the seed K(inf) = (k1, k2) of the K sweep, with I fixed."""
    I_tab = compute_I(mode, Levels(w, c, k))
    return lambda k1, k2: float(pairing(I_tab, compute_K(mode, Levels(w, c, k), (k1, k2), k)[0])[0])


@pytest.mark.parametrize("m, n", [(1, 0), (-1, 0), (4, 2), (32, 16)])
def test_tau_is_affine_in_the_seed_ratio(families, m, n):
    """K is linear in its seed (r, 1), so tau(r) = r tau(1, 0) + tau(0, 1) to rounding."""
    tau = _tau_of_seed(ModeIndex(m, n), *families, 1024)
    t10, t01 = tau(1.0, 0.0), tau(0.0, 1.0)
    for r in (-7.5, 0.3, 2.0):
        assert abs(tau(r, 1.0) - (r * t10 + t01)) <= 1e-13 * (abs(r * t10) + abs(t01))


@pytest.mark.parametrize("n", [0, 4])
def test_tau_at_m_zero_ignores_K1_at_infinity(families, n):
    """At m = 0, I2 = 0 and C is diagonal, so tau(1, 0) = 0 and tau does not depend on K1(inf), bit for bit."""
    tau = _tau_of_seed(ModeIndex(0, n), *families, 1024)
    assert tau(1.0, 0.0) == 0.0
    assert len({tau(k1, 1.0).hex() for k1 in (0.0, 0.5, -3.0, 1e3)}) == 1


def test_critical_seed_ratio_converges_in_K(families):
    """r* = -tau(0, 1)/tau(1, 0), the seed ratio at which the truncated (1, 0) problem has a kernel, converges in K."""
    for k, want in ((128, -2.3073), (1024, -2.2753)):
        tau = _tau_of_seed(ModeIndex(1, 0), *families, k)
        assert -tau(0.0, 1.0) / tau(1.0, 0.0) == pytest.approx(want, abs=5e-5)


@pytest.mark.parametrize("m, n, k", [(1, 0, 128), (4, 2, 1024), (32, 16, 1024), (-4, 0, 128)])
def test_rule_at_the_critical_ratio_is_a_degenerate_pairing(families, m, n, k):
    """A rule at r* leaves tau as rounding left over from cancelling terms (1e-12 and below of their size).

    tau is far above TAU_FLOOR there, so only the cancellation test catches it.
    """
    mode = ModeIndex(m, n)
    tau = _tau_of_seed(mode, *families, k)
    r_star = -tau(0.0, 1.0) / tau(1.0, 0.0)
    with pytest.raises(DegeneratePairingError):
        build_solution(mode, Levels(*families, k), lambda m: (r_star, 1.0))


def test_independence_everywhere(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(0, 0), ModeIndex(-9, 3)):
        sol = build_solution(mode, Levels(w, c, 64))
        dets = sol.K[:, 0] * sol.I[:, 1] - sol.K[:, 1] * sol.I[:, 0]
        assert np.all(np.abs(dets) > 0)


def test_epsilon_values(families):
    w, c = families
    levels = Levels(w, c, 0)
    for n in (0, 3, 16):
        e = epsilon(ModeIndex(0, n), levels)
        s = eval_s(w, n)
        assert e.value == pytest.approx(s.value, rel=1e-12)
    for m in (1, 4, 32):
        for n in (0, 16):
            e = epsilon(ModeIndex(m, n), levels)
            assert e.upper <= eval_s(w, n).value * (1 + 1e-12)
    assert epsilon(ModeIndex(32, 0), levels).value < epsilon(ModeIndex(1, 0), levels).value
    assert epsilon(ModeIndex(3, 16), levels).value < epsilon(ModeIndex(3, 0), levels).value


def test_epsilon_direct_summation_oracle(families):
    w, c = families
    m, n = 5, 1
    ks = np.arange(200000)
    an = np.asarray(w.a(n, ks), dtype=float)
    an1 = np.asarray(w.a(n + 1, ks), dtype=float)
    direct = float(np.sum(an1 / (m * m + an * an1)))
    got = epsilon(ModeIndex(m, n), Levels(w, c, 0))
    assert got.value == pytest.approx(direct, rel=1e-5)
    assert got.tail < 1e-12


def test_perp_transport(families):
    w, c = families
    for mode in (ModeIndex(2, 0), ModeIndex(-6, 1)):
        sol = build_solution(mode, Levels(w, c, 48))
        assert perp_transport_residual(sol) <= 1e-10


def test_lemma_suite_positive_modes(families):
    w, c = families
    for m in range(1, 9):
        for n in range(0, 5):
            sol = build_solution(ModeIndex(m, n), Levels(w, c, 128))
            report = verify_lemma_suite(sol)
            assert report.all_passed, (m, n, [ch.name for ch in report.checks if not ch.passed])
            assert report.worst <= 1e-14


def test_lemma_suite_product_bound_at_k_zero_is_tau(families):
    w, c = families
    sol = build_solution(ModeIndex(2, 0), Levels(w, c, 32))
    assert sol.K[0, 0] * sol.I[0, 1] <= sol.tau * (1 + 1e-14)


def test_lemma_suite_negative_m_is_the_reflected_positive_suite(families):
    """The m < 0 suite on the sign-oriented components is the m > 0 suite of the system whose rule is (-k1, k2)."""
    w, c = families
    plus_rule, minus_rule = BoundaryRule({2: (0.3, 1.0)}), BoundaryRule({-2: (-0.3, 1.0)})
    for n in (0, 3):
        for k_max in (16, 128):
            plus = verify_lemma_suite(build_solution(ModeIndex(2, n), Levels(w, c, k_max), rule=plus_rule))
            minus = verify_lemma_suite(build_solution(ModeIndex(-2, n), Levels(w, c, k_max), rule=minus_rule))
            assert plus.all_passed and minus.all_passed
            assert dataclasses.replace(minus, mode=plus.mode) == plus
            assert minus.worst == plus.worst


def test_lemma_suite_m_zero_pattern(families):
    w, c = families
    report = verify_lemma_suite(build_solution(ModeIndex(0, 1), Levels(w, c, 64)))
    assert report.all_passed
    assert {ch.name for ch in report.checks} == {
        "diag_pattern_I",
        "diag_pattern_K",
        "K2_nonincreasing",
    }


def _entry(comp: str, k: int, value):
    """A mutant: the solution with entry k of one raw component ("I1" .. "K2") set to value(component)."""
    name, j = comp[0], int(comp[1]) - 1

    def mutate(sol):
        tab = getattr(sol, name).copy()
        tab[k, j] = value(tab[:, j])
        return dataclasses.replace(sol, **{name: tab})

    return mutate


# each lemma clause: a mutant that fails it and the full set of clauses that
# mutant fails, the same at m = 1 and m = -4 (n = 0, K = 32); the m = 0
# clauses are failed at (0, 0).  Negating an entry of the raw tables fails the
# positive_* clause at both signs of m, which an abs() view would pass at m < 0.
LEMMA_MUTANTS = {
    "positive_neg_I1": (_entry("I1", 0, lambda v: -v[0]), {"positive_neg_I1"}),
    "positive_I2": (_entry("I2", 5, lambda v: -v[5]), {"positive_I2", "monotone_I2_over_c2"}),
    "positive_K1": (_entry("K1", 5, lambda v: -v[5]), {"positive_K1", "monotone_K1_over_c1", "tail_sum_K2_kernel"}),
    "positive_K2": (
        _entry("K2", 5, lambda v: -v[5]), {"positive_K2", "monotone_K2", "ratio_bound_K", "tail_sum_K1_kernel"}
    ),
    "monotone_neg_I1": (_entry("I1", 5, lambda v: 0.5 * v[5]), {"monotone_neg_I1"}),
    "monotone_I2_over_c2": (_entry("I2", 5, lambda v: 0.5 * v[5]), {"monotone_I2_over_c2"}),
    "monotone_K1_over_c1": (_entry("K1", 5, lambda v: 2.0 * v[5]), {"monotone_K1_over_c1"}),
    "monotone_K2": (_entry("K2", 6, lambda v: 1.01 * v[5]), {"monotone_K2"}),
    "ratio_bound_I": (_entry("I2", 16, lambda v: 4.0 * v[16]), {"ratio_bound_I", "monotone_I2_over_c2"}),
    "ratio_bound_K": (_entry("K2", 20, lambda v: 0.01 * v[20]), {"ratio_bound_K", "monotone_K2"}),
    "tail_sum_K2_kernel": (_entry("K1", 0, lambda v: 0.5 * v[0]), {"tail_sum_K2_kernel"}),
    "tail_sum_K1_kernel": (
        _entry("K2", 5, lambda v: 0.01 * v[5]), {"tail_sum_K1_kernel", "monotone_K2", "ratio_bound_K"}
    ),
    "product_K1_I2": (_entry("K1", 0, lambda v: 4.0 * v[0]), {"product_K1_I2"}),
    "product_K2_negI1": (_entry("I1", 0, lambda v: 0.99 * v[1]), {"product_K2_negI1"}),
    "product_negI1_next_K2": (_entry("I1", 1, lambda v: 1.1 * v[1]), {"product_negI1_next_K2"}),
    # a smaller tau tightens all four product bounds (a larger one loosens them)
    "product_I2_K1_next": (
        lambda sol: dataclasses.replace(sol, tau=0.1 * sol.tau),
        {"product_I2_K1_next", "product_K1_I2", "product_K2_negI1", "product_negI1_next_K2"},
    ),
    "diag_pattern_I": (_entry("I2", 3, lambda v: 1e-300), {"diag_pattern_I"}),
    "diag_pattern_K": (_entry("K1", 3, lambda v: 1e-300), {"diag_pattern_K"}),
    "K2_nonincreasing": (_entry("K2", 6, lambda v: 1.01 * v[5]), {"K2_nonincreasing"}),
}
M_ZERO_CLAUSES = {"diag_pattern_I", "diag_pattern_K", "K2_nonincreasing"}


@pytest.mark.parametrize("clause", sorted(LEMMA_MUTANTS))
def test_each_lemma_clause_fails_on_its_mutant(families, clause):
    """A negative control per clause: the mutant fails this clause, and exactly the measured others."""
    w, c = families
    mutate, failing = LEMMA_MUTANTS[clause]
    assert clause in failing
    for m in (0,) if clause in M_ZERO_CLAUSES else (1, -4):
        sol = build_solution(ModeIndex(m, 0), Levels(w, c, 32))
        assert verify_lemma_suite(sol).all_passed
        report = verify_lemma_suite(mutate(sol))
        assert {ch.name for ch in report.failed()} == failing, m


# Rules for K at infinity that BoundaryRule rejects, each with the lemma clauses it fails at m in {1, 4, 32},
# n = 0, K in {128, 1024} (measured), and the clause of BoundaryRule's config-time probe that rejects it.
# build_solution takes a plain callable as its rule, which skips the probe.  None fails an HS bound, and the
# non-decaying rule fails no lemma clause either: only the probe's decay clause rejects it.
RULE_MUTANTS = {
    "sign_flipped": (
        lambda m: (-float(np.sign(m)) / (1.0 + m * m), 1.0),
        {"monotone_K2", "positive_K1", "product_K2_negI1", "product_negI1_next_K2", "tail_sum_K2_kernel"},
        "m>0 requires both components",
    ),
    "zero_K1": (lambda m: (0.0, 1.0), {"positive_K1"}, "m>0 requires both components"),
    "non_decaying": (lambda m: (float(np.sign(m)), 1.0), set(), "must decay"),
}


@pytest.mark.parametrize("name", sorted(RULE_MUTANTS))
def test_each_rule_mutant_fails_its_measured_clauses(families, name):
    """A negative control per rule mutant: exactly the measured lemma clauses fail, no HS bound does, and the
    probe rejects the rule on the probe's modes and the tested ones."""
    w, c = families
    rule, failing, probe_clause = RULE_MUTANTS[name]
    for K in (128, 1024):
        levels = Levels(w, c, K)
        for m in (1, 4, 32):
            sol = build_solution(ModeIndex(m, 0), levels, rule)
            assert {ch.name for ch in verify_lemma_suite(sol).failed()} == failing, (K, m)
            assert hs_norms(sol, w, c).all_bounds_hold, (K, m)
    with pytest.raises(BoundaryRuleError, match=probe_clause):
        BoundaryRule({sign * m: rule(sign * m) for m in (*M_PROBE, 4, 32) for sign in (1, -1)})


def test_positive_I2_holds_at_k_zero(families):
    """positive_I2 covers I2(0) = m/a_n(0), oriented |m|/a_n(0) > 0: negating the raw entry there fails that
    clause alone."""
    w, c = families
    for m in (1, -4):
        sol = build_solution(ModeIndex(m, 0), Levels(w, c, 32))
        report = verify_lemma_suite(_entry("I2", 0, lambda v: -v[0])(sol))
        assert [ch.name for ch in report.failed()] == ["positive_I2"], m


def test_every_lemma_clause_has_a_mutant(families):
    """A clause added to the suite without a negative control fails here."""
    w, c = families
    sols = [build_solution(ModeIndex(m, 0), Levels(w, c, 32)) for m in (0, 1)]
    names = {ch.name for sol in sols for ch in verify_lemma_suite(sol).checks}
    assert names == set(LEMMA_MUTANTS)
    assert len(names) == 19


def test_a_level_shares_one_table_and_holds_no_C_stack(families):
    """Built solutions, their mirrors and their stack all hold the level's one table, and none of them a C stack."""
    w, c = families
    K = 32
    levels = Levels(w, c, K)
    built = [build_solution(ModeIndex(m, 1), levels) for m in (3, 0, 1)]
    twins = [mirror_solution(sol) for sol in built if sol.mode.m]
    assert [sol.mode.m for sol in twins] == [-3, -1]
    sols = [*built, *twins]
    st = stack(sols)
    assert all(sol.table is levels.table(1) for sol in (*sols, st))
    for obj in (*sols, st, st.table):
        for f in dataclasses.fields(obj):
            assert f.name != "C" and np.shape(getattr(obj, f.name))[-3:] != (K, 2, 2), f.name


def test_compute_K_tolerance_guard(families):
    """compute_K returns the seed tail certificate; a caller compares it with its own tolerance."""
    from qsolidtorus.transfer import tail_sum_C_minus_I

    w, c = families
    k_inf = BoundaryRule()(8)
    tab, tail = compute_K(ModeIndex(8, 0), Levels(w, c, 32), k_inf, 32)
    assert tail == tail_sum_C_minus_I(ModeIndex(8, 0), Levels(w, c, 32), 32)
    assert 1e-12 < tail <= 10.0 and tab.shape == (33, 2)
    assert tuple(tab[32]) == k_inf


TABULATED = (
    WeightFamily(table=((1.5, 3.0, 7.5), (2.5, 9.0)), tail_rule="power", lam=1.0, p=1.0, q=2.0),
    CoefficientFamily(table1=(0.5, 0.8), table2=(0.6,), tail_rule="geometric", t1=0.5, t2=0.5, kappa=2.0),
)


@pytest.mark.parametrize("tabulated", [False, True], ids=["default", "tabulated"])
@pytest.mark.parametrize("m, n", [(1, 0), (-4, 2), (0, 1), (32, 16)])
def test_compute_K_seeded_inside_a_longer_window(families, tabulated, m, n):
    """A seed at k_hi sweeps the table's first k_hi steps: a longer window moves no bit, tail included."""
    w, c = TABULATED if tabulated else families
    mode, k_inf = ModeIndex(m, n), BoundaryRule()(m)
    inside, alone = (compute_K(mode, Levels(w, c, window), k_inf, 128) for window in (1024, 128))
    assert inside[0].shape == (129, 2) and inside[0].tobytes() == alone[0].tobytes()
    assert np.float64(inside[1]).tobytes() == np.float64(alone[1]).tobytes()
    with pytest.raises(ValueError, match="beyond the level data's window"):
        compute_K(mode, Levels(w, c, 128), k_inf, 129)


def test_compute_I_overflow_guard(families):
    from qsolidtorus.solutions import RangeOverflowError

    w, c = families
    with pytest.raises(RangeOverflowError):
        compute_I(ModeIndex(10**40, 0), Levels(w, c, 8))


def test_lemma_suite_zero_slack_reports_not_raises(families, monkeypatch):
    """Strictness stress: LEMMA_SLACK 0 may surface float ties as findings."""
    w, c = families
    sol = build_solution(ModeIndex(3, 0), Levels(w, c, 64))
    monkeypatch.setattr("qsolidtorus.solutions.LEMMA_SLACK", 0.0)
    report = verify_lemma_suite(sol)
    assert isinstance(report.all_passed, bool)
    assert all(ch.witness for ch in report.checks)


def test_seeded_solution_matches_deeper_seed_directionally(families):
    """A deeper seed changes the K table only within the drift certificate."""
    w, c = families
    mode = ModeIndex(3, 0)
    shallow = build_solution(mode, Levels(w, c, 64))
    deep = build_solution(mode, Levels(w, c, 512))
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
            C = Levels(w, c, K).C(mode)
            ref_I = np.empty((K + 1, 2))
            ref_I[0] = (-1.0, m / w.a(n, 0))
            ref_P = np.empty((K + 1, 2, 2))
            ref_P[0] = np.eye(2)
            for k in range(K):
                ref_I[k + 1] = C[k] @ ref_I[k]
                ref_P[k + 1] = C[k] @ ref_P[k]
            k_inf = BoundaryRule()(m)
            ks = np.arange(K)
            dets = np.asarray(c.c(2, n, ks)) / np.asarray(c.c(1, n, ks))
            ref_K = np.empty((K + 1, 2))
            ref_K[K] = k_inf
            for k in range(K - 1, -1, -1):
                adj = np.array([[C[k, 1, 1], -C[k, 0, 1]], [-C[k, 1, 0], C[k, 0, 0]]])
                ref_K[k] = adj / dets[k] @ ref_K[k + 1]
            worst["I"] = max(worst["I"], _row_rel_gap(compute_I(mode, Levels(w, c, K)), ref_I))
            worst["K"] = max(worst["K"], _row_rel_gap(compute_K(mode, Levels(w, c, K), k_inf, K)[0], ref_K))
            worst["P"] = max(worst["P"], _row_rel_gap(partial_products(C), ref_P))
    assert all(np.isfinite(v) and v <= 1e-14 for v in worst.values()), worst


def test_sweeps_match_step_loops_bit_for_bit(families):
    """I, K, P and the m = 0 inner sum from ``transfer.sweep`` equal their own plain-float loops byte for byte."""
    w, c = families
    cases = [(ModeIndex(m, n), 128) for m in DEFAULT_GRID_M for n in DEFAULT_GRID_N]
    cases += [(ModeIndex(m, n), 8192) for m in (1, -1, 1024, -1024) for n in (0, 16)]
    for mode, K in cases:
        levels = Levels(w, c, K)
        table, C = levels.table(mode.n), levels.C(mode)
        k_inf = BoundaryRule()(mode.m)
        x, r = 1.0 / table.an, table.c2**2
        pairs = [
            (compute_I(mode, Levels(w, c, K)), compute_I_loop(mode, table, C)),
            (compute_K(mode, Levels(w, c, K), k_inf, K)[0], compute_K_loop(table, C, k_inf)),
            (partial_products(C), partial_products_loop(C)),
            (cumulative_product_sum(x, r), cumulative_product_sum_loop(x, r)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), mode
    with pytest.raises(RangeOverflowError):
        compute_I(ModeIndex(32768, 0), Levels(w, c, 256))


def test_lemma_suite_worst_slack_keeps_nan(families):
    w, c = families
    sol = build_solution(ModeIndex(2, 1), Levels(w, c, 32))
    K = sol.K.copy()
    K[5, 0] = np.nan
    rep = verify_lemma_suite(dataclasses.replace(sol, K=K))
    assert not rep.all_passed
    assert math.isnan(rep.worst)  # the builtin max dropped it and read -2.6e-4
