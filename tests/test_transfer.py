import dataclasses
import math
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
    limit_product,
    partial_products,
    structure_check,
    tail_sum_C_minus_I,
)
from reference import build_A, det2, invert


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
        C, table = levels.C(ModeIndex(m, 1)), levels.table(1)
        assert sorted(calls) == ["a", "a", "c", "c"]
        assert C.shape == (32, 2, 2) and table.prefix.shape == (33,)
    # level 2 shares a_2 with level 1 and adds a_3, c1 and c2
    levels.table(2)
    assert sorted(calls) == ["a", "a", "a", "c", "c", "c", "c"]


def test_level_table_evaluates_each_row_once_for_any_modes(families, monkeypatch):
    """Levels.table(n) is one object per level, whichever modes of whichever levels ask in between;
    a mode's C stack is built once for consecutive calls and again when another mode asked last."""
    import qsolidtorus.transfer as transfer

    w, c = families
    seen, builds = [], []
    for cls, name in ((WeightFamily, "a"), (CoefficientFamily, "c")):
        def counted(self, *args, _orig=getattr(cls, name), _name=name):
            seen.append((_name, *args[:-1], np.size(args[-1])))
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, counted)

    def counted_C(m, *args, _orig=transfer.build_C_range):
        builds.append(m)
        return _orig(m, *args)

    monkeypatch.setattr(transfer, "build_C_range", counted_C)
    levels = Levels(w, c, 16)
    tables = {}
    for m, n in ((1, 0), (1, 0), (-1, 2), (0, 0), (5, 2), (5, 2), (1, 0)):
        C = levels.C(ModeIndex(m, n))
        assert not C.flags.writeable and C is levels.C(ModeIndex(m, n))
        assert tables.setdefault(n, levels.table(n)) is levels.table(n)
    assert builds == [1, -1, 0, 5, 1]
    # a_n and a_{n+1} on the window and c1, c2 of levels 0 and 2, each once
    assert len(seen) == len(set(seen))
    assert set(seen) == {("a", n, 17) for n in range(4)} | {("c", i, n, 16) for i in (1, 2) for n in (0, 2)}


def test_build_C_worked_examples(families):
    w, c = families
    got = Levels(w, c, 1).C(ModeIndex(1, 0))[0]
    assert np.allclose(got, [[2.0, -1.0], [-0.5, 0.75]], rtol=0, atol=0)
    diag = Levels(w, c, 1).C(ModeIndex(0, 0))[0]
    assert np.array_equal(diag, np.diag([2.0, 0.5]))


def test_det_C_is_coefficient_ratio():
    w, _ = default_families()
    c = CoefficientFamily(t1=0.5, t2=0.25, kappa=2.0)
    for m in (-5, 0, 1, 9):
        for k in (0, 1, 4):
            got = det2(Levels(w, c, k + 1).C(ModeIndex(m, 2))[k])
            expect = c.c(2, 2, k) / c.c(1, 2, k)
            assert got == pytest.approx(expect, rel=1e-13)
    # k = 0 instance of the worked example: c1 = 1/2, c2 = 3/4
    got = det2(Levels(w, c, 1).C(ModeIndex(7, 0))[0])
    assert got == pytest.approx(1.5, rel=1e-13)


def test_invert(families):
    w, c = families
    assert np.array_equal(invert(np.eye(2)), np.eye(2))
    assert np.array_equal(invert(np.diag([2.0, 0.5])), np.diag([0.5, 2.0]))
    mat = Levels(w, c, 1).C(ModeIndex(1, 0))[0]
    assert np.max(np.abs(mat @ invert(mat) - np.eye(2))) <= 1e-15
    with pytest.raises(SingularMatrixError):
        invert(np.zeros((2, 2)))


def test_partial_products_order_and_dets(families):
    w, c = families
    mode = ModeIndex(3, 1)
    K = 24
    c_arr = Levels(w, c, K).C(mode)
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
    a = Levels(w, c, 4).C(ModeIndex(4, 2))[3]
    b = Levels(w, c, 4).C(ModeIndex(-4, 2))[3]
    assert a[0, 0] == b[0, 0] and a[1, 1] == b[1, 1]
    assert a[0, 1] == -b[0, 1] and a[1, 0] == -b[1, 0]


def test_limit_product_unit_coeffs_is_identity(unit_coeffs):
    tp = limit_product(ModeIndex(0, 0), Levels(WeightFamily(), unit_coeffs, 64))
    assert np.array_equal(tp.limit, np.eye(2))


def test_limit_product_m_zero_diagonal(families):
    w, c = families
    tp = limit_product(ModeIndex(0, 2), Levels(w, c, 64))
    j1 = eval_J(c, 1, 2)
    j2 = eval_J(c, 2, 2)
    assert tp.limit[0, 0] == pytest.approx(1.0 / j1.value, rel=1e-10)
    assert tp.limit[1, 1] == pytest.approx(j2.value, rel=1e-10)
    assert tp.limit[0, 1] == 0.0 and tp.limit[1, 0] == 0.0


def test_limit_product_det_tracks_J_ratio(families):
    w, _ = families
    c = CoefficientFamily(t1=0.5, t2=0.25, kappa=4.0)
    tp = limit_product(ModeIndex(3, 2), Levels(w, c, 1024))
    j1 = eval_J(c, 1, 2)
    j2 = eval_J(c, 2, 2)
    assert det2(tp.limit) == pytest.approx(j2.value / j1.value, rel=1e-10)


def test_tail_bound_certificate_dominates_direct_sum(families):
    w, c = families
    for mode in (ModeIndex(1, 0), ModeIndex(-7, 2), ModeIndex(0, 1)):
        c_arr = Levels(w, c, 50000).C(mode)
        for k0 in (4, 32, 200):
            # the entries of every |C(k) - I|, k0 <= k < 50000, summed exactly
            direct = math.fsum(np.abs(c_arr[k0:] - np.eye(2)).ravel().tolist())
            assert tail_sum_C_minus_I(mode, Levels(w, c, k0), k0) >= direct


def test_structure_check_positive_m(families):
    w, c = families
    levels = Levels(w, c, 8192)
    tp = limit_product(ModeIndex(5, 0), levels)
    report = structure_check(tp, levels)
    assert report.all_passed, [ch for ch in report.checks if not ch.passed]
    assert tp.limit[0, 1] < 0 and tp.limit[1, 0] < 0


def test_structure_check_negative_m_flips_offdiagonal(families):
    w, c = families
    levels = Levels(w, c, 8192)
    tp = limit_product(ModeIndex(-5, 0), levels)
    report = structure_check(tp, levels)
    assert report.all_passed
    assert tp.limit[0, 1] > 0 and tp.limit[1, 0] > 0


def test_structure_check_m_zero(families):
    w, c = families
    levels = Levels(w, c, 64)
    report = structure_check(limit_product(ModeIndex(0, 0), levels), levels)
    assert report.all_passed
    assert [ch.name for ch in report.checks] == ["offdiag_zero", "det_tracks_scalar_product",
                                                 "det_limit_matches_J_ratio"]


def test_structure_check_default_grid(families):
    """Every default-grid mode at K = 128 passes, the determinant checks included.

    At (32, 0) det P(K) = p00 p11 - p01 p10 reads 0.99902 against the scalar
    product 1: the entries reach 5.7e6, so the two products cancel to 1 in
    about 3e13 and the rounding of that cancellation is what the tolerance
    has to cover.
    """
    w, c = families
    failed = {}
    levels = Levels(w, c, 128)
    for m in DEFAULT_GRID_M:
        for n in DEFAULT_GRID_N:
            report = structure_check(limit_product(ModeIndex(m, n), levels), levels)
            if not report.all_passed:
                failed[(m, n)] = [ch.witness for ch in report.failed()]
    assert not failed, failed


def test_large_products_pass_without_cancelling_to_zero(families):
    """Where p00 p11 and p01 p10 cancel, det P(K) is read from prod c2/c1 and checked on P(K) / 2^e.

    On the default families det2(P(K)) reads 98304 at (+-64, 0), K = 1024
    (the products cancel in 1.3e20), 0 at (+-1024, 0), K = 16, and at
    (128, 0), K = 128, and NaN at (16384, 0), K = 128, whose max|P| is
    1.03e197; prod c2/c1 is 1 at each.  All are finite products that pass
    limit_product and structure_check.
    """
    w, c = families
    for k_max, ms in ((1024, (64, -64)), (16, (1024, -1024)), (128, (128, -128, 16384, -16384))):
        levels = Levels(w, c, k_max)
        for m in ms:
            tp = limit_product(ModeIndex(m, 0), levels)
            assert np.isfinite(tp.limit).all() and levels.table(0).prefix[-1] == 1.0
            report = structure_check(tp, levels)
            assert report.all_passed, (m, k_max, [ch.witness for ch in report.failed()])
    assert det2(limit_product(ModeIndex(64, 0), Levels(w, c, 1024)).limit) == 98304.0


def _entry(i: int, j: int, value):
    """A mutant: the product with entry (i, j) of P(K) set to value(P(K), level table)."""

    def mutate(tp, levels):
        parts = tp.partials.copy()
        parts[-1, i, j] = value(parts[-1], levels.table(tp.mode.n))
        return dataclasses.replace(tp, partials=parts), levels

    return mutate


def _J_of_t2(tp, levels):
    """A mutant: J_1, J_2 and the tail of a family with t2 = 0.6, on the product's own level table."""
    other = Levels(levels.w, CoefficientFamily(t2=0.6), levels.k_hi)
    other.once(("table", tp.mode.n), lambda: levels.table(tp.mode.n))
    return tp, other


# each mutant of (P(K), levels) and the full set of structure_check names it
# fails at m = 1, m = -4 and m = 0 (n = 0, K = 128).  An off-diagonal of the
# m = 0 product is 0, so negating it gives -0.0, which is still 0; 1e-300 is
# lost beside a nonzero p01 and makes the m = 0 one nonzero.
DET, SIGN = "det_tracks_scalar_product", "offdiag_sign_opposite_m"
STRUCTURE_MUTANTS = {
    "-p01": (_entry(0, 1, lambda P, t: -P[0, 1]), ({DET, SIGN}, {DET, SIGN}, set())),
    "-p10": (_entry(1, 0, lambda P, t: -P[1, 0]), ({DET, SIGN}, {DET, SIGN}, set())),
    "p00 / 2": (_entry(0, 0, lambda P, t: 0.5 * P[0, 0]), ({DET, "diag_entry_1_dominates"}, {DET}, {DET})),
    "p11 = prod c2 / 2": (
        _entry(1, 1, lambda P, t: 0.5 * np.prod(t.c2)),
        ({DET, "diag_entry_2_dominates"}, {DET, "diag_entry_2_dominates"}, {DET}),
    ),
    "1.001 p01 + 1e-300": (_entry(0, 1, lambda P, t: 1.001 * P[0, 1] + 1e-300), ({DET}, {DET}, {"offdiag_zero"})),
    "J from t2 = 0.6": (_J_of_t2, ({"det_limit_matches_J_ratio"},) * 3,
    ),
}


@pytest.mark.parametrize("label", list(STRUCTURE_MUTANTS))
def test_each_structure_mutant_fails_its_measured_set(families, label):
    """A negative control for structure_check: the mutant's full failing set at m = 1, -4 and 0."""
    w, c = families
    mutate, failing = STRUCTURE_MUTANTS[label]
    for m, want in zip((1, -4, 0), failing):
        levels = Levels(w, c, 128)
        tp = limit_product(ModeIndex(m, 0), levels)
        assert structure_check(tp, levels).all_passed
        report = structure_check(*mutate(tp, levels))
        assert {ch.name for ch in report.failed()} == want, m


def test_every_structure_clause_has_a_mutant(families):
    """A structure_check name added without a mutant that fails it fails here."""
    w, c = families
    levels = Levels(w, c, 32)
    names = {ch.name for m in (0, 1) for ch in structure_check(limit_product(ModeIndex(m, 0), levels), levels).checks}
    assert len(names) == 6
    assert names == set().union(*(s for _, sets in STRUCTURE_MUTANTS.values() for s in sets))


def test_structure_check_reads_J_and_the_tail_once_per_level(families, monkeypatch):
    """J_1(n), J_2(n) and the tail's level terms are evaluated once per level, for every m."""
    import qsolidtorus.transfer as transfer

    w, c = families
    calls = []

    def counted(*args, _orig=transfer.eval_J):
        calls.append(args[1:])
        return _orig(*args)

    monkeypatch.setattr(transfer, "eval_J", counted)
    levels = Levels(w, c, 64)
    for m in (0, 1, -1, 5):
        for n in (0, 2):
            assert structure_check(limit_product(ModeIndex(m, n), levels), levels).all_passed
    assert sorted(calls) == [(1, 0), (1, 2), (2, 0), (2, 2)]


def test_limit_product_det_floor(families):
    """A product whose determinant underflows raises, and the dump reports it per mode."""
    w, _ = families
    c = CoefficientFamily(table2=(1e-160, 1e-160), tail_rule="constant")
    with pytest.raises(SingularMatrixError):
        limit_product(ModeIndex(0, 0), Levels(w, c, 8))


def test_limit_product_needs_no_tail_certificate(families):
    """A constant coefficient tail below 1 has no tail certificate, but a product."""
    w, _ = families
    c = CoefficientFamily(table1=(0.5,), table2=(0.5,), tail_rule="constant", tail_value=0.5)
    with pytest.raises(HypothesisViolation):
        tail_sum_C_minus_I(ModeIndex(1, 0), Levels(w, c, 16), 16)
    tp = limit_product(ModeIndex(1, 0), Levels(w, c, 16))
    assert tp.partials.shape == (17, 2, 2) and np.all(np.isfinite(tp.partials))
