import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsolidtorus.dirac import (
    NORM_LOWER_MARGIN,
    TruncatedAlgebraRep,
    algebra_sanity,
    assemble_polynomial,
    extract_minus,
    extract_plus,
    norm_lower_bound,
    trace_bound_terms,
)
from qsolidtorus.parametrix import RhsPair, WeightedSeq, apply_A, apply_Q
from qsolidtorus.solutions import build_solution
from qsolidtorus.transfer import Levels, ModeIndex
from reference import apply_D_delta

GOLDEN = (5**0.5 - 1) / 2


def impulses(k_g, k_f, k_max):
    g = np.zeros(k_max + 1)
    f = np.zeros(k_max + 1)
    g[k_g] = 1.0
    f[k_f] = 1.0
    return g, f


def apply_A_on(mode: ModeIndex, w, c, g: np.ndarray, f: np.ndarray) -> RhsPair:
    sol = build_solution(mode, Levels(w, c, len(g) - 1))
    return apply_A(sol, WeightedSeq(g, mode.n), WeightedSeq(f, mode.n + 1))


def rhs_close(a: RhsPair, b: RhsPair, tol: float) -> bool:
    for x, y in ((a.r1.values, b.r1.values), (a.r2.values, b.r2.values)):
        scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
        if np.max(np.abs(x - y) / scale) > tol:
            return False
    return abs(a.q0 - b.q0) <= tol * max(abs(a.q0), abs(b.q0), 1.0)


def test_apply_D_zero(families):
    w, c = families
    r = apply_A_on(ModeIndex(1, 0), w, c, np.zeros(8), np.zeros(8))
    assert not np.any(r.r1.values) and not np.any(r.r2.values) and r.q0 == 0.0


def test_mode_equivalence_exact_on_impulses(families):
    w, c = families
    for (m, n) in ((0, 0), (1, 0), (-2, 1), (5, 3), (32, 0)):
        mode = ModeIndex(m, n)
        for k_imp in (0, 3, 9):
            g, f = impulses(k_imp, min(k_imp + 1, 12), 16)
            d_mat = apply_A_on(mode, w, c, g, f)
            d_del = apply_D_delta(mode, w, c, g, f)
            assert np.array_equal(d_mat.r1.values, d_del.r1.values)
            assert np.array_equal(d_mat.r2.values, d_del.r2.values)
            assert d_mat.q0 == d_del.q0


def test_mode_equivalence_random_fields(families, rng):
    w, c = families
    for (m, n) in ((2, 0), (-3, 2)):
        mode = ModeIndex(m, n)
        g, f = rng.standard_normal(25), rng.standard_normal(25)
        assert rhs_close(apply_A_on(mode, w, c, g, f), apply_D_delta(mode, w, c, g, f), 1e-13)


def test_global_right_inverse(families, rng):
    """The inverse is the direct sum of the mode inverses: A Q r = r on each mode."""
    w, c = families
    for (m, n) in ((0, 0), (1, 0), (-2, 1), (4, 2)):
        mode = ModeIndex(m, n)
        g, f = rng.standard_normal(33), rng.standard_normal(33)
        rhs = apply_A_on(mode, w, c, g, f)
        sol = build_solution(mode, Levels(w, c, 32))
        res = apply_Q(sol, rhs)
        back = apply_A(sol, res.h_g, res.h_f)
        assert rhs_close(back, rhs, 1e-9)


def test_global_left_inverse_on_domain(families, rng):
    """Q A h = h on each mode for h in the range of Q, the domain of the boundary condition."""
    w, c = families
    for (m, n) in ((1, 0), (-3, 1)):
        mode = ModeIndex(m, n)
        g, f = rng.standard_normal(33), rng.standard_normal(33)
        sol = build_solution(mode, Levels(w, c, 32))
        domain = apply_Q(sol, apply_A_on(mode, w, c, g, f))
        again = apply_Q(sol, apply_A(sol, domain.h_g, domain.h_f))
        a = np.concatenate((domain.h_g.values, domain.h_f.values))
        b = np.concatenate((again.h_g.values, again.h_f.values))
        assert np.max(np.abs(a - b)) <= 1e-8 * max(np.max(np.abs(a)), 1e-300)


def test_algebra_commutes_at_theta_zero():
    rep = TruncatedAlgebraRep(0.0, 8, 4)
    assert np.max(np.abs(rep.V @ rep.U - rep.U @ rep.V)) == 0.0


@pytest.mark.parametrize("theta", [0.0, 0.25, GOLDEN])
def test_algebra_sanity_all_checks(theta):
    rep = TruncatedAlgebraRep(theta, 12, 6)
    report = algebra_sanity(rep, np.random.default_rng(2))
    assert report.all_passed, report.as_dict()
    assert report.worst["commutation"] <= 1e-15


def test_monomial_roundtrip_exact():
    rep = TruncatedAlgebraRep(GOLDEN, 10, 5)
    coeff = np.array([0.5, -1.25, 2.0, 2.0])
    a = assemble_polynomial(rep, {(1, 1): coeff}, {})
    for k in range(3):
        assert extract_plus(rep, a, 1, 1, k) == coeff[k]
        assert extract_plus(rep, a, 1, 2, k) == 0.0
        assert extract_minus(rep, a, 1, 1, k) == 0.0


def test_minus_coefficient_roundtrip_ulp():
    rep = TruncatedAlgebraRep(GOLDEN, 10, 5)
    coeff = np.array([1.0, 3.0, -2.0])
    a = assemble_polynomial(rep, {}, {(2, 2): coeff})
    for k in range(3):
        got = extract_minus(rep, a, 2, 2, k)
        assert got == pytest.approx(coeff[k], rel=4e-15)


def _dense_monomial(rep, m, n):
    """V^m U^n (V^m (U*)^-n for n < 0) as a product of dense matrix powers."""
    v = rep.V if m >= 0 else rep.V.conj().T
    u = rep.U if n >= 0 else rep.U.conj().T
    return np.linalg.matrix_power(v, abs(m)) @ np.linalg.matrix_power(u, abs(n))


@pytest.mark.parametrize("theta", [0.0, 0.25, GOLDEN])
def test_monomials_match_dense_products(theta):
    rep = TruncatedAlgebraRep(theta, 12, 6)
    for m in range(-3, 4):
        for n in (0, 1, 2, 3, -1, -2, -3):
            dense = _dense_monomial(rep, m, n)
            rows, cols, weights = rep.monomial(m, n)
            shifted = np.zeros_like(dense)
            shifted[rows, cols] = weights
            assert len(set(zip(rows, cols))) == len(rows)
            assert np.array_equal(shifted != 0, dense != 0), (m, n)
            for part in (np.real, np.imag):
                x, y = part(shifted), part(dense)
                assert np.all(np.abs(x - y) <= np.spacing(np.abs(y))), (m, n)


def inner_block(rep):
    """Flat indices of the trace check's inner block and, within it, the l = 0 columns."""
    inner = [
        rep.idx(k, l) for k in range(1, rep.k_cut) for l in range(-rep.l_cut + 1, rep.l_cut)
    ]
    return inner, np.asarray([i for i, j in enumerate(inner) if rep.Ldiag[j] == 0], dtype=int)


def test_trace_block_formula_matches_dense():
    rep = TruncatedAlgebraRep(GOLDEN, 12, 6)
    inner, q0 = inner_block(rep)
    rng = np.random.default_rng(5)

    def trace_q0(x):
        return sum(x[rep.idx(k, 0), rep.idx(k, 0)] for k in range(rep.k_cut + 1))

    for _ in range(4):
        blocks = [
            rng.standard_normal((len(inner),) * 2) + 1j * rng.standard_normal((len(inner),) * 2)
            for _ in range(2)
        ]
        a, b = (np.zeros((rep.dim, rep.dim), dtype=complex) for _ in range(2))
        a[np.ix_(inner, inner)], b[np.ix_(inner, inner)] = blocks
        lhs, rhs = trace_bound_terms(blocks[0], blocks[1][:, q0], q0)
        # tau = tr(. Q0) / rank Q0, where Q0 on the block is its len(q0) columns at l = 0
        rank = len(q0)
        ref_lhs = abs(trace_q0(a @ b)) / rank
        ref_rhs = np.linalg.norm(a, 2) * np.sqrt(abs(trace_q0(b.conj().T @ b)) / rank)
        assert lhs == pytest.approx(ref_lhs, rel=1e-13)
        assert rhs == pytest.approx(ref_rhs, rel=1e-13)


def trace_every_sample(rep, seed, n_trace):
    """Worst ratio and verdict of algebra_sanity's trace draws, with the SVD on every sample.

    Sample i draws from the i-th child stream of rng: a's q0 rows, b Q0, then a's other rows.
    """
    rng = np.random.default_rng(seed)
    algebra_sanity(rep, rng, n_trace=0)  # runs the draws before the trace loop, as algebra_sanity does
    inner, q0 = inner_block(rep)
    n = len(inner)
    rest = np.setdiff1d(np.arange(n), q0)

    def draw(stream, rows, cols):
        return stream.standard_normal((rows, cols)) + 1j * stream.standard_normal((rows, cols))

    lhs, rhs = np.zeros(n_trace), np.zeros(n_trace)
    for i, stream in enumerate(rng.spawn(n_trace)):
        a = np.empty((n, n), dtype=complex)
        a[q0] = draw(stream, len(q0), n)
        bq0 = draw(stream, n, len(q0))
        a[rest] = draw(stream, len(rest), n)
        lhs[i], rhs[i] = trace_bound_terms(a, bq0, q0)
    worst = float(np.max(lhs / np.where(rhs > 0.0, rhs, np.nan), initial=-np.inf))
    return worst, bool(np.isfinite(worst) and np.all(lhs <= rhs * (1.0 + 1e-12)))


@pytest.mark.parametrize(
    "theta, k_cut, l_cut, seed, n_trace",
    [
        (GOLDEN, 12, 6, 9, 100),
        (0.25, 12, 6, 2, 60),
        (0.25, 8, 3, 1, 40),
        (float("nan"), 8, 3, 1, 25),
        (0.25, 0, 3, 1, 5),
        (0.25, 1, 3, 1, 5),
    ],
)
def test_trace_check_equals_svd_on_every_sample(theta, k_cut, l_cut, seed, n_trace):
    rep = TruncatedAlgebraRep(theta, k_cut, l_cut)
    with np.errstate(invalid="ignore"):
        report = algebra_sanity(rep, np.random.default_rng(seed), n_trace=n_trace)
        worst, passed = trace_every_sample(rep, seed, n_trace)
    got = report.worst["trace_ratio"]
    assert got == worst or (np.isnan(got) and np.isnan(worst)), (got, worst)
    check = {ch.name: ch for ch in report.checks}["trace_functional_bound"]
    assert check.passed == passed
    # k_cut <= 1 leaves an empty block: 0/0 fails rather than passing vacuously
    assert passed == (k_cut >= 2)


def test_trace_check_skips_most_svds():
    rep = TruncatedAlgebraRep(GOLDEN, 12, 6)
    report = algebra_sanity(rep, np.random.default_rng(9), n_roundtrip=20, n_trace=100)
    check = {ch.name: ch for ch in report.checks}["trace_functional_bound"]
    n_svd, n_trace = map(int, re.search(r"\(SVD on (\d+) of (\d+) samples\)$", check.witness).groups())
    assert n_trace == 100 and 1 <= n_svd <= 25, check.witness


def test_trace_check_draws_the_rest_of_a_only_where_needed():
    """Every sample draws a's q0 rows and b Q0; a's other rows only where the q0 rows do not skip it."""
    drawn = []

    class Counting(np.random.Generator):
        # spawn returns this subclass, so the per-sample streams count too
        def standard_normal(self, size=None, *args, **kwargs):
            drawn.append(int(np.prod(size)))
            return super().standard_normal(size, *args, **kwargs)

    rep = TruncatedAlgebraRep(GOLDEN, 12, 6)
    n, r = 121, 11  # the inner block and its q0 rows
    report = algebra_sanity(rep, Counting(np.random.PCG64(9)), n_roundtrip=0, n_trace=100)
    assert {ch.name: ch for ch in report.checks}["trace_functional_bound"].passed
    assert 100 * 2 * (2 * n * r) <= sum(drawn) <= 0.5 * 100 * 2 * (n * n + n * r)


def test_trace_check_fails_on_a_violation_or_no_samples(monkeypatch):
    import qsolidtorus.dirac as dirac

    def trace_check(n_trace):
        report = algebra_sanity(TruncatedAlgebraRep(0.25, 8, 3), np.random.default_rng(1), n_trace=n_trace)
        return report.worst["trace_ratio"], {ch.name: ch for ch in report.checks}["trace_functional_bound"]

    worst, check = trace_check(0)
    assert worst == -np.inf and not check.passed
    monkeypatch.setattr(dirac, "trace_bound_terms", lambda a, bq0, q0: (2.0, 1.0))
    worst, check = trace_check(5)
    assert worst == 2.0 and not check.passed


def test_trace_bound_is_tight_at_a_one_and_b_q0():
    """a = 1 and b = Q0 on the inner block: tau(Q0) = 1 against ||1|| tau(Q0)^(1/2) = 1, with rank Q0 = 11.

    The unnormalised tr(. Q0) gave 11 against sqrt(11) here: that inequality
    is false for rank Q0 > 1.
    """
    rep = TruncatedAlgebraRep(GOLDEN, 12, 6)
    inner, q0 = inner_block(rep)
    a = np.eye(len(inner), dtype=complex)
    lhs, rhs = trace_bound_terms(a, a[:, q0], q0)
    assert len(q0) == 11
    assert lhs == pytest.approx(1.0, rel=1e-15)
    assert rhs == pytest.approx(1.0, rel=1e-15)
    assert lhs <= rhs * (1.0 + 1e-12)


def test_trace_bound_with_a_rank_one_b():
    """b = x e_j* for one l = 0 column j: tau(ab) = <e_j, a x> / r and tau(b* b) = ||x||^2 / r."""
    rep = TruncatedAlgebraRep(GOLDEN, 12, 6)
    inner, q0 = inner_block(rep)
    rng = np.random.default_rng(4)
    n, r = len(inner), len(q0)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    j = 3
    bq0 = np.zeros((n, r), dtype=complex)
    bq0[:, j] = x
    lhs, rhs = trace_bound_terms(a, bq0, q0)
    assert lhs == pytest.approx(abs(a[q0[j]] @ x) / r, rel=1e-13)
    assert rhs == pytest.approx(np.linalg.norm(a, 2) * np.linalg.norm(x) / np.sqrt(r), rel=1e-13)
    assert lhs <= rhs
    # a rank-one a = e_j x* reads one of the r states: tau(ab) = ||x||^2 / r, a ratio of 1 / sqrt(r)
    a = np.zeros((n, n), dtype=complex)
    a[q0[j]] = x.conj()
    lhs, rhs = trace_bound_terms(a, bq0, q0)
    assert lhs == pytest.approx(rhs / np.sqrt(r), rel=1e-13)


def test_trace_bound_terms_of_an_empty_block_are_zero():
    empty = np.zeros((0, 0), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace_bound_terms(empty, empty, np.zeros(0, dtype=int)) == (0.0, 0.0)


def gaussian(seed, rows, cols, exp):
    z = np.random.default_rng(seed).standard_normal((2, rows, cols))
    return 10.0**exp * (z[0] + 1j * z[1])


def largest_row_orthogonal_to_top(s, ratio, extra):
    """Row (0, ratio s) over k rows (s, 0), k > ratio^2: the top right singular vector is e_0."""
    k = int(ratio**2) + 1 + extra
    return np.array([[0.0, ratio * s]] + [[s, 0.0]] * k)


SIZES = st.integers(1, 12)
ENTRIES = st.floats(-1e3, 1e3, allow_nan=False)
GAUSSIAN = st.builds(gaussian, st.integers(0, 2**32 - 1), SIZES, SIZES, st.integers(-150, 150))
MATRICES = st.one_of(
    GAUSSIAN,
    st.builds(np.outer, st.lists(ENTRIES, min_size=1, max_size=12), st.lists(ENTRIES, min_size=1, max_size=12)),
    st.builds(lambda n, c: c * np.eye(n), SIZES, ENTRIES),
    st.builds(largest_row_orthogonal_to_top, st.floats(1e-3, 1e3), st.floats(1.01, 3.0), st.integers(0, 4)),
)


@settings(max_examples=200, deadline=None)
@given(a=MATRICES)
def test_norm_lower_bound_below_spectral_norm(a):
    assert 0.0 <= norm_lower_bound(a) <= np.linalg.norm(a, 2)


@settings(max_examples=50, deadline=None)
@given(a=GAUSSIAN)
def test_norm_lower_bound_at_least_largest_row(a):
    """The power steps start from the largest row and never lose ground."""
    largest_row = float(np.max(np.linalg.norm(a, axis=1)))
    assert norm_lower_bound(a) >= largest_row * (1.0 - 10 * NORM_LOWER_MARGIN)


def test_norm_lower_bound_edge_cases():
    for shape in ((4, 4), (0, 0), (3, 0)):
        assert norm_lower_bound(np.zeros(shape, dtype=complex)) == 0.0
    # subnormal entries: 1 / scale would overflow, so the trivial bound
    assert norm_lower_bound(np.full((2, 3), 5e-324)) == 0.0
    assert norm_lower_bound(np.eye(7)) == 1.0 - NORM_LOWER_MARGIN
    # a start orthogonal to the top singular vector stays there: a true but loose bound
    a = largest_row_orthogonal_to_top(1.0, 1.5, 0)
    assert norm_lower_bound(a) == pytest.approx(1.5 * (1.0 - NORM_LOWER_MARGIN), rel=1e-15)
    assert np.linalg.norm(a, 2) == pytest.approx(np.sqrt(3.0), rel=1e-15)


@pytest.mark.parametrize("theta", [float("nan"), float("inf")])
def test_algebra_sanity_fails_on_non_finite_theta(theta):
    with np.errstate(invalid="ignore"):
        report = algebra_sanity(TruncatedAlgebraRep(theta, 8, 3), np.random.default_rng(1))
    passed = {ch.name: ch.passed for ch in report.checks}
    for name in ("commutation_VU_phase_UV", "diagonal_function_shifts", "fourier_roundtrip_minus_ulp"):
        assert not passed[name], report.as_dict()
    # the raising roundtrip and the trace check never meet theta (phase(0) = 1)
    assert passed["fourier_roundtrip_plus_exact"] and passed["trace_functional_bound"]


@pytest.mark.parametrize("k_cut", [0, 5, 6])
def test_small_cutoffs_fail_roundtrips(k_cut):
    report = algebra_sanity(TruncatedAlgebraRep(0.25, k_cut, 3), np.random.default_rng(1))
    by_name = {ch.name: ch for ch in report.checks}
    for name in ("fourier_roundtrip_plus_exact", "fourier_roundtrip_minus_ulp"):
        assert not by_name[name].passed
        assert f"k_cut = {k_cut} < 7" in by_name[name].witness
    assert by_name["commutation_VU_phase_UV"].passed
    # k_cut = 0 leaves the trace check an empty block: it fails, not passes vacuously
    assert by_name["trace_functional_bound"].passed == (k_cut >= 2)


def test_idx_rejects_out_of_range_labels():
    rep = TruncatedAlgebraRep(0.25, 4, 2)
    assert rep.idx(0, -2) == 0 and rep.idx(4, 2) == rep.dim - 1
    for k, l in ((0, 3), (1, -3), (-1, 0), (5, 0)):
        with pytest.raises(ValueError):
            rep.idx(k, l)
