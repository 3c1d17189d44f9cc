from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsolidtorus.families import CoefficientFamily, WeightFamily, default_families, eval_J
from qsolidtorus.transfer import (
    ConvergenceError,
    ModeIndex,
    SingularMatrixError,
    build_A,
    build_C_range,
    det2,
    invert,
    limit_product,
    mat_abs_norm,
    partial_products,
    structure_check,
    tail_sum_C_minus_I,
)


def test_build_A_worked_example(families):
    w, c = families
    got = build_A(ModeIndex(1, 0), 0, w, c)
    assert np.array_equal(got, np.array([[1.0, 0.0], [1.0, 4.0]]))


def test_build_A_triangular_at_m_zero(families):
    w, c = families
    got = build_A(ModeIndex(0, 2), 3, w, c)
    assert got[1, 0] == 0.0 and got[0, 1] == 0.0


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=-16, max_value=16),
    n=st.integers(min_value=0, max_value=8),
    k=st.integers(min_value=0, max_value=30),
)
def test_det_A_formula(families, m, n, k):
    w, c = families
    got = det2(build_A(ModeIndex(m, n), k, w, c))
    expect = w.a(n + 1, k) * w.a(n, k + 1) * c.c(1, n, k)
    assert got == pytest.approx(expect, rel=1e-15)
    assert got != 0.0


def test_build_C_worked_examples(families):
    w, c = families
    got = build_C_range(ModeIndex(1, 0), w, c, 1)[0]
    assert np.allclose(got, [[2.0, -1.0], [-0.5, 0.75]], rtol=0, atol=0)
    diag = build_C_range(ModeIndex(0, 0), w, c, 1)[0]
    assert np.array_equal(diag, np.diag([2.0, 0.5]))


def test_det_C_is_coefficient_ratio():
    w, _ = default_families()
    c = CoefficientFamily(t1=0.5, t2=0.25, kappa=2.0)
    for m in (-5, 0, 1, 9):
        for k in (0, 1, 4):
            got = det2(build_C_range(ModeIndex(m, 2), w, c, k + 1)[k])
            expect = c.c(2, 2, k) / c.c(1, 2, k)
            assert got == pytest.approx(expect, rel=1e-13)
    # k = 0 instance of the worked example: c1 = 1/2, c2 = 3/4
    got = det2(build_C_range(ModeIndex(7, 0), w, c, 1)[0])
    assert got == pytest.approx(1.5, rel=1e-13)


def test_invert(families):
    w, c = families
    assert np.array_equal(invert(np.eye(2)), np.eye(2))
    assert np.array_equal(invert(np.diag([2.0, 0.5])), np.diag([0.5, 2.0]))
    mat = build_C_range(ModeIndex(1, 0), w, c, 1)[0]
    assert np.max(np.abs(mat @ invert(mat) - np.eye(2))) <= 1e-15
    with pytest.raises(SingularMatrixError):
        invert(np.zeros((2, 2)))


def test_partial_products_order_and_dets(families):
    w, c = families
    mode = ModeIndex(3, 1)
    K = 24
    c_arr = build_C_range(mode, w, c, K)
    parts = partial_products(c_arr)
    # independent right-to-left reduction
    for k in (0, 1, 5, K):
        expect = reduce(lambda acc, mat: mat @ acc, c_arr[:k], np.eye(2))
        assert np.max(np.abs(parts[k] - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))
    ratio = np.asarray(c.c(2, 1, np.arange(K))) / np.asarray(c.c(1, 1, np.arange(K)))
    for k in (1, 7, K):
        assert det2(parts[k]) == pytest.approx(float(np.prod(ratio[:k])), rel=k * 1e-14)


def test_C_off_diagonals_flip_with_m(families):
    w, c = families
    a = build_C_range(ModeIndex(4, 2), w, c, 4)[3]
    b = build_C_range(ModeIndex(-4, 2), w, c, 4)[3]
    assert a[0, 0] == b[0, 0] and a[1, 1] == b[1, 1]
    assert a[0, 1] == -b[0, 1] and a[1, 0] == -b[1, 0]


def test_limit_product_unit_coeffs_is_identity(unit_coeffs):
    tp = limit_product(ModeIndex(0, 0), WeightFamily(), unit_coeffs, tol=1e-12)
    assert np.array_equal(tp.limit, np.eye(2))


def test_limit_product_m_zero_diagonal(families):
    w, c = families
    tp = limit_product(ModeIndex(0, 2), w, c, tol=1e-12)
    j1 = eval_J(c, 1, 2)
    j2 = eval_J(c, 2, 2)
    assert tp.limit[0, 0] == pytest.approx(1.0 / j1.value, rel=1e-10)
    assert tp.limit[1, 1] == pytest.approx(j2.value, rel=1e-10)
    assert tp.limit[0, 1] == 0.0 and tp.limit[1, 0] == 0.0


def test_limit_product_det_tracks_J_ratio(families):
    w, _ = families
    c = CoefficientFamily(t1=0.5, t2=0.25, kappa=4.0)
    tp = limit_product(ModeIndex(3, 2), w, c, tol=1e-2, k_cap=4096, strict=False)
    j1 = eval_J(c, 1, 2)
    j2 = eval_J(c, 2, 2)
    assert det2(tp.limit) == pytest.approx(j2.value / j1.value, rel=1e-10)


def test_limit_product_strict_tolerance_unreachable(families):
    w, c = families
    with pytest.raises(ConvergenceError):
        limit_product(ModeIndex(32, 0), w, c, tol=1e-12, k_cap=2048, strict=True)


def test_tail_bound_certificate_dominates_direct_sum(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-7, 2), ModeIndex(0, 1)):
        c_arr = build_C_range(mode, w, c, 50000)
        for k0 in (4, 32, 200):
            direct = sum(mat_abs_norm(c_arr[k] - np.eye(2)) for k in range(k0, 50000))
            assert tail_sum_C_minus_I(mode, w, c, k0) >= direct


def test_structure_check_positive_m(families):
    w, c = families
    tp = limit_product(ModeIndex(5, 0), w, c, tol=1e-3, k_cap=8192, strict=False)
    report = structure_check(tp, w, c)
    assert report.all_passed, [ch for ch in report.checks if not ch.passed]
    assert tp.limit[0, 1] < 0 and tp.limit[1, 0] < 0


def test_structure_check_negative_m_flips_offdiagonal(families):
    w, c = families
    tp = limit_product(ModeIndex(-5, 0), w, c, tol=1e-3, k_cap=8192, strict=False)
    report = structure_check(tp, w, c)
    assert report.all_passed
    assert tp.limit[0, 1] > 0 and tp.limit[1, 0] > 0


def test_structure_check_m_zero(families):
    w, c = families
    tp = limit_product(ModeIndex(0, 0), w, c, tol=1e-12)
    report = structure_check(tp, w, c)
    assert report.all_passed
