import numpy as np
import pytest

from qsolidtorus.dirac import (
    FourierField,
    TruncatedAlgebraRep,
    algebra_sanity,
    apply_D,
    apply_Q_global,
    assemble_polynomial,
    delta1_component,
    extract_minus,
    extract_plus,
    h0_norm,
    random_field,
    trace_bound_terms,
)
from qsolidtorus.parametrix import RhsPair

GOLDEN = (5**0.5 - 1) / 2


def impulse_field(m, n, k_g, k_f, k_max):
    g = np.zeros(k_max + 1)
    f = np.zeros(k_max + 1)
    g[k_g] = 1.0
    f[k_f] = 1.0
    return FourierField({(m, n): (g, f)})


def rhs_close(a: RhsPair, b: RhsPair, tol: float) -> bool:
    for x, y in ((a.r1.values, b.r1.values), (a.r2.values, b.r2.values)):
        scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
        if np.max(np.abs(x - y) / scale) > tol:
            return False
    return abs(a.q0 - b.q0) <= tol * max(abs(a.q0), abs(b.q0), 1.0)


def test_apply_D_zero(families):
    w, c = families
    out = apply_D(FourierField({(1, 0): (np.zeros(8), np.zeros(8))}), w, c)
    r = out[(1, 0)]
    assert not np.any(r.r1.values) and not np.any(r.r2.values) and r.q0 == 0.0


def test_mode_equivalence_exact_on_impulses(families):
    w, c = families
    for (m, n) in ((0, 0), (1, 0), (-2, 1), (5, 3), (32, 0)):
        for k_imp in (0, 3, 9):
            field = impulse_field(m, n, k_imp, min(k_imp + 1, 12), 16)
            d_mat = apply_D(field, w, c, "matrix")[(m, n)]
            d_del = apply_D(field, w, c, "delta")[(m, n)]
            assert np.array_equal(d_mat.r1.values, d_del.r1.values)
            assert np.array_equal(d_mat.r2.values, d_del.r2.values)
            assert d_mat.q0 == d_del.q0


def test_mode_equivalence_random_fields(families, rng):
    w, c = families
    field = random_field([(2, 0), (-3, 2)], 24, rng)
    d_mat = apply_D(field, w, c, "matrix")
    d_del = apply_D(field, w, c, "delta")
    for key in d_mat:
        assert rhs_close(d_mat[key], d_del[key], 1e-13)


def test_delta1_component_multiplies_by_m(families):
    field = FourierField({(3, 1): (np.ones(5), np.ones(5)), (-2, 0): (np.ones(5), np.ones(5))})
    out = delta1_component(field)
    assert np.all(out.entries[(3, 1)][0] == 3.0)
    assert np.all(out.entries[(-2, 0)][1] == -2.0)


def test_h0_norm_basics(families, rng):
    w, _ = families
    assert h0_norm(FourierField({}), w) == 0.0
    single = FourierField({(0, 0): (np.array([1.0]), np.array([0.0]))})
    assert h0_norm(single, w) == 1.0  # a_0(0) = 1 for the default weights
    f1 = random_field([(1, 0)], 8, rng)
    f2 = random_field([(2, 3)], 8, rng)
    merged = FourierField({**f1.entries, **f2.entries})
    assert h0_norm(merged, w) == pytest.approx(
        float(np.hypot(h0_norm(f1, w), h0_norm(f2, w))), rel=1e-15
    )
    lam = 3.7
    scaled = FourierField({k: (lam * g, lam * f) for k, (g, f) in f1.entries.items()})
    assert h0_norm(scaled, w) == pytest.approx(lam * h0_norm(f1, w), rel=1e-14)


def test_global_right_inverse(families, rng):
    w, c = families
    field = random_field([(0, 0), (1, 0), (-2, 1), (4, 2)], 32, rng)
    rhs = apply_D(field, w, c)
    recovered, results = apply_Q_global(rhs, w, c)
    back = apply_D(recovered, w, c)
    for key in rhs:
        assert rhs_close(back[key], rhs[key], 1e-9)
    assert set(results) == set(rhs)


def test_global_left_inverse_on_domain(families, rng):
    w, c = families
    field = random_field([(1, 0), (-3, 1)], 32, rng)
    rhs = apply_D(field, w, c)
    domain_field, _ = apply_Q_global(rhs, w, c)
    rhs2 = apply_D(domain_field, w, c)
    again, _ = apply_Q_global(rhs2, w, c)
    for key in domain_field.entries:
        a = np.concatenate(domain_field.entries[key])
        b = np.concatenate(again.entries[key])
        assert np.max(np.abs(a - b)) <= 1e-8 * max(np.max(np.abs(a)), 1e-300)


def test_per_mode_errors_annotated(families, rng):
    from qsolidtorus.dirac import ModeError

    w, c = families
    field = random_field([(2, 0)], 8, rng)
    rhs = apply_D(field, w, c)

    def bad_rule(m):
        return (-0.2, 1.0) if m > 0 else ((0.2, 1.0) if m < 0 else (0.0, 1.0))

    with pytest.raises(ModeError, match=r"mode \(2, 0\)"):
        apply_Q_global(rhs, w, c, rule=bad_rule)


def test_global_inverse_bug_propagates(families, rng, monkeypatch):
    """Only per-mode failures become ModeError; a bug in apply_Q is not wrapped."""
    import qsolidtorus.dirac as dirac

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(dirac, "apply_Q", broken)
    w, c = families
    rhs = apply_D(random_field([(2, 0)], 8, rng), w, c)
    with pytest.raises(TypeError, match="bug"):
        apply_Q_global(rhs, w, c)


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


def test_trace_block_formula_matches_dense():
    rep = TruncatedAlgebraRep(GOLDEN, 12, 6)
    inner = [
        rep.idx(k, l) for k in range(1, rep.k_cut) for l in range(-rep.l_cut + 1, rep.l_cut)
    ]
    q0 = [i for i, j in enumerate(inner) if rep.Ldiag[j] == 0]
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
        lhs, rhs = trace_bound_terms(*blocks, np.asarray(q0))
        ref_lhs = abs(trace_q0(a @ b))
        ref_rhs = np.linalg.norm(a, 2) * np.sqrt(abs(trace_q0(b.conj().T @ b)))
        assert lhs == pytest.approx(ref_lhs, rel=1e-13)
        assert rhs == pytest.approx(ref_rhs, rel=1e-13)


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
