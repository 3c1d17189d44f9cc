from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsolidtorus.config import DEFAULT_GRID_M, DEFAULT_GRID_N
from qsolidtorus.families import (
    CoefficientFamily,
    HypothesisViolation,
    WeightFamily,
    default_families,
    eval_J,
)
from qsolidtorus.transfer import (
    Levels,
    ModeIndex,
    SingularMatrixError,
    det2,
    invert,
    limit_product,
    mode_table,
    partial_products,
    structure_check,
    tail_sum_C_minus_I,
)
from reference import build_A, mat_abs_norm


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


def test_mode_table_makes_four_family_calls(families, monkeypatch):
    """a_n, a_{n+1}, c1 and c2 once per level; every m's C stack and the prefix reuse them."""
    w, c = families
    calls = []
    for cls, name in ((WeightFamily, "a"), (CoefficientFamily, "c")):
        def counted(self, *args, _orig=getattr(cls, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, counted)
    levels = Levels(w, c, 32)
    for m in (3, -3, 5, 0):
        table = mode_table(ModeIndex(m, 1), w, c, 32, levels)
        assert sorted(calls) == ["a", "a", "c", "c"]
        assert table.C.shape == (32, 2, 2) and table.prefix.shape == (33,)
    # level 2 shares a_2 with level 1 and adds a_3, c1 and c2
    mode_table(ModeIndex(3, 2), w, c, 32, levels)
    assert sorted(calls) == ["a", "a", "a", "c", "c", "c", "c"]


def test_build_C_worked_examples(families):
    w, c = families
    got = mode_table(ModeIndex(1, 0), w, c, 1).C[0]
    assert np.allclose(got, [[2.0, -1.0], [-0.5, 0.75]], rtol=0, atol=0)
    diag = mode_table(ModeIndex(0, 0), w, c, 1).C[0]
    assert np.array_equal(diag, np.diag([2.0, 0.5]))


def test_det_C_is_coefficient_ratio():
    w, _ = default_families()
    c = CoefficientFamily(t1=0.5, t2=0.25, kappa=2.0)
    for m in (-5, 0, 1, 9):
        for k in (0, 1, 4):
            got = det2(mode_table(ModeIndex(m, 2), w, c, k + 1).C[k])
            expect = c.c(2, 2, k) / c.c(1, 2, k)
            assert got == pytest.approx(expect, rel=1e-13)
    # k = 0 instance of the worked example: c1 = 1/2, c2 = 3/4
    got = det2(mode_table(ModeIndex(7, 0), w, c, 1).C[0])
    assert got == pytest.approx(1.5, rel=1e-13)


def test_invert(families):
    w, c = families
    assert np.array_equal(invert(np.eye(2)), np.eye(2))
    assert np.array_equal(invert(np.diag([2.0, 0.5])), np.diag([0.5, 2.0]))
    mat = mode_table(ModeIndex(1, 0), w, c, 1).C[0]
    assert np.max(np.abs(mat @ invert(mat) - np.eye(2))) <= 1e-15
    with pytest.raises(SingularMatrixError):
        invert(np.zeros((2, 2)))


def test_partial_products_order_and_dets(families):
    w, c = families
    mode = ModeIndex(3, 1)
    K = 24
    c_arr = mode_table(mode, w, c, K).C
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
    a = mode_table(ModeIndex(4, 2), w, c, 4).C[3]
    b = mode_table(ModeIndex(-4, 2), w, c, 4).C[3]
    assert a[0, 0] == b[0, 0] and a[1, 1] == b[1, 1]
    assert a[0, 1] == -b[0, 1] and a[1, 0] == -b[1, 0]


def test_limit_product_unit_coeffs_is_identity(unit_coeffs):
    tp = limit_product(ModeIndex(0, 0), WeightFamily(), unit_coeffs, 64)
    assert np.array_equal(tp.limit, np.eye(2))


def test_limit_product_m_zero_diagonal(families):
    w, c = families
    tp = limit_product(ModeIndex(0, 2), w, c, 64)
    j1 = eval_J(c, 1, 2)
    j2 = eval_J(c, 2, 2)
    assert tp.limit[0, 0] == pytest.approx(1.0 / j1.value, rel=1e-10)
    assert tp.limit[1, 1] == pytest.approx(j2.value, rel=1e-10)
    assert tp.limit[0, 1] == 0.0 and tp.limit[1, 0] == 0.0


def test_limit_product_det_tracks_J_ratio(families):
    w, _ = families
    c = CoefficientFamily(t1=0.5, t2=0.25, kappa=4.0)
    tp = limit_product(ModeIndex(3, 2), w, c, 1024)
    j1 = eval_J(c, 1, 2)
    j2 = eval_J(c, 2, 2)
    assert det2(tp.limit) == pytest.approx(j2.value / j1.value, rel=1e-10)


def test_tail_bound_certificate_dominates_direct_sum(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-7, 2), ModeIndex(0, 1)):
        c_arr = mode_table(mode, w, c, 50000).C
        for k0 in (4, 32, 200):
            direct = sum(mat_abs_norm(c_arr[k] - np.eye(2)) for k in range(k0, 50000))
            assert tail_sum_C_minus_I(mode, w, c, k0) >= direct


def test_structure_check_positive_m(families):
    w, c = families
    tp = limit_product(ModeIndex(5, 0), w, c, 8192)
    report = structure_check(tp, w, c)
    assert report.all_passed, [ch for ch in report.checks if not ch.passed]
    assert tp.limit[0, 1] < 0 and tp.limit[1, 0] < 0


def test_structure_check_negative_m_flips_offdiagonal(families):
    w, c = families
    tp = limit_product(ModeIndex(-5, 0), w, c, 8192)
    report = structure_check(tp, w, c)
    assert report.all_passed
    assert tp.limit[0, 1] > 0 and tp.limit[1, 0] > 0


def test_structure_check_m_zero(families):
    w, c = families
    tp = limit_product(ModeIndex(0, 0), w, c, 64)
    report = structure_check(tp, w, c)
    assert report.all_passed


def test_structure_check_default_grid(families):
    """Every default-grid mode at K = 128 passes, the determinant check included.

    At (32, 0) det P(K) = p00 p11 - p01 p10 reads 0.99902 against the scalar
    product 1: the entries reach 5.7e6, so the two products cancel to 1 in
    about 3e13 and the rounding of that cancellation is what the tolerance
    has to cover.
    """
    w, c = families
    failed = {}
    for m in DEFAULT_GRID_M:
        for n in DEFAULT_GRID_N:
            report = structure_check(limit_product(ModeIndex(m, n), w, c, 128), w, c)
            if not report.all_passed:
                failed[(m, n)] = [ch.witness for ch in report.failed()]
    assert not failed, failed


def test_limit_product_det_floor(families):
    """A product whose determinant underflows raises, and the dump reports it per mode."""
    w, _ = families
    c = CoefficientFamily(table2=(1e-160, 1e-160), tail_rule="constant")
    with pytest.raises(SingularMatrixError):
        limit_product(ModeIndex(0, 0), w, c, 8)


def test_limit_product_needs_no_tail_certificate(families):
    """A constant coefficient tail below 1 has no tail certificate, but a product."""
    w, _ = families
    c = CoefficientFamily(table1=(0.5,), table2=(0.5,), tail_rule="constant", tail_value=0.5)
    with pytest.raises(HypothesisViolation):
        tail_sum_C_minus_I(ModeIndex(1, 0), w, c, 16)
    tp = limit_product(ModeIndex(1, 0), w, c, 16)
    assert tp.partials.shape == (17, 2, 2) and np.all(np.isfinite(tp.partials))
