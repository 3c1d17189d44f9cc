import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsolidtorus.config import DEFAULT_GRID_N
from qsolidtorus.families import (
    CoefficientFamily,
    HypothesisViolation,
    WeightFamily,
    default_families,
    eval_J,
    eval_s,
    tail_inv_weight,
    validate_hypotheses,
)


def direct_s_oracle(w, n, terms=2_000_000):
    """Brute-force partial sum with an integral-test bracket for the tail."""
    ks = np.arange(terms)
    partial = float(np.sum(1.0 / w.a(n, ks)))
    scale = 1.0 / (w.lam * (n + 1) ** w.p)
    hi = partial + scale * ((terms + 1) ** -w.q + (terms + 1) ** (1 - w.q) / (w.q - 1))
    lo = partial
    return lo, hi


def test_s_closed_form_matches_direct_summation(families):
    w, _ = families
    got = eval_s(w, 0)
    lo, hi = direct_s_oracle(w, 0)
    assert lo <= got.value <= hi
    assert abs(got.value - math.pi**2 / 6) < 1e-12
    assert got.tail < 1e-12


def test_s_mode_scaling(families):
    w, _ = families
    assert eval_s(w, 9).value == eval_s(w, 0).value / 10


def test_s_divergent_tail_rule_raises():
    w = WeightFamily(table=((1.0, 4.0),), tail_rule="constant", tail_value=2.0)
    with pytest.raises(HypothesisViolation):
        eval_s(w, 0)
    with pytest.raises(HypothesisViolation):
        eval_s(WeightFamily(q=1.0), 0)


def test_s_tabulated_head_plus_continuation():
    w = WeightFamily(table=((2.0, 3.0),), tail_rule="power", q=2.0)
    got = eval_s(w, 0)
    # head 1/2 + 1/3 plus the power continuation from k = 2
    ks = np.arange(2, 400000)
    direct = 1.0 / 2.0 + 1.0 / 3.0 + float(np.sum(1.0 / (ks + 1.0) ** 2))
    assert abs(got.value - direct) < 1e-5
    # deeper level falls back to the pure power rule
    assert abs(eval_s(w, 3).value - eval_s(WeightFamily(), 3).value) < 1e-15


@settings(max_examples=25, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=4.0),
    q=st.floats(min_value=1.2, max_value=5.0),
    lam=st.floats(min_value=0.1, max_value=10.0),
    n=st.integers(min_value=0, max_value=20),
)
def test_s_ratio_law(p, q, lam, n):
    w = WeightFamily(lam=lam, p=p, q=q)
    ratio = eval_s(w, n + 1).value / eval_s(w, n).value
    assert ratio == pytest.approx(((n + 1) / (n + 2)) ** p, rel=1e-13)


def test_family_evaluations_deterministic(families):
    w, c = families
    assert eval_s(w, 3).value == eval_s(w, 3).value
    assert eval_J(c, 2, 1).value == eval_J(c, 2, 1).value


GAP_HALF_PRODUCT = 0.2887880950866024  # prod_{k>=1} (1 - 2^-k), summed directly


def test_J_unit_family(unit_coeffs):
    got = eval_J(unit_coeffs, 1, 0)
    assert got.value == 1.0 and got.tail == 0.0


def test_J_geometric_half(families):
    _, c = families
    oracle = 1.0
    k = 1
    while 0.5**k > 1e-18:
        oracle *= 1.0 - 0.5**k
        k += 1
    assert abs(oracle - GAP_HALF_PRODUCT) < 1e-13
    for i in (1, 2):
        got = eval_J(c, i, 0)
        assert abs(got.value - oracle) < 1e-12
        assert got.tail < 1e-10


def test_J_bracket_contains_longer_truncations(monkeypatch):
    """eval_J reads SERIES_TOL when it is called: a loose tolerance's bracket holds a tight one's value.

    Gaps 1 - 0.9^(k+1) are slow enough that the two tolerances stop at different truncations."""
    c = CoefficientFamily(t1=0.9, t2=0.9, kappa=10.0)
    monkeypatch.setattr("qsolidtorus.families.SERIES_TOL", 1e-6)
    got = eval_J(c, 1, 0)
    monkeypatch.setattr("qsolidtorus.families.SERIES_TOL", 1e-15)
    deep = eval_J(c, 1, 0)
    assert got.tail > deep.tail
    assert got.lower <= deep.value <= got.upper


# eval_J(c, i, 0) as the bits of its value and tail, and k_hi: it evaluates c_{i,n}(k) once, on one window of
# k_hi entries, with k_hi doubled from 64 until the scalar log tail is below SERIES_TOL
J_BITS = {
    "default": (CoefficientFamily(), {
        1: ("0x1.27b810ff7c009p-2", "0x1.a0b7eb5be275dp-49", 64),
        2: ("0x1.27b810ff7c009p-2", "0x1.a0b7eb5be275dp-49", 64),
    }),
    "t 0.9, 0.99": (CoefficientFamily(t1=0.9, t2=0.99, kappa=100.0), {
        1: ("0x1.5939e191c80fap-20", "0x1.28bfd09682843p-60", 512),
        2: ("0x1.6ef029bd9ea71p-232", "0x1.ccc058e47aea6p-266", 4096),
    }),
    "tabulated": (CoefficientFamily(table1=(0.9,) * 100, table2=(0.6, 0.7, 0.8), t1=0.3, t2=0.7, kappa=4.0), {
        1: ("0x1.bda056ed493eep-16", "0x1.35eded538376bp-58", 128),
        2: ("0x1.21ada60226e1fp-3", "0x1.2d09f4d291daap-48", 128),
    }),
    "unit": (CoefficientFamily(tail_rule="constant"), {1: ("0x1.0000000000000p+0", "0x0.0p+0", 64)}),
}


def _counting_c(monkeypatch) -> list[int]:
    """The number of k of each CoefficientFamily.c call from here on."""
    sizes, real = [], CoefficientFamily.c

    def counting(self, i, n, k):
        sizes.append(np.size(k))
        return real(self, i, n, k)

    monkeypatch.setattr(CoefficientFamily, "c", counting)
    return sizes


@pytest.mark.parametrize(("name", "i"), [(name, i) for name, (_, rows) in J_BITS.items() for i in rows])
def test_J_evaluates_one_window(monkeypatch, name, i):
    c, rows = J_BITS[name]
    value, tail, k_hi = rows[i]
    sizes = _counting_c(monkeypatch)
    got = eval_J(c, i, 0)
    assert (got.value.hex(), got.tail.hex()) == (value, tail)
    assert sizes == [k_hi]


def test_J_at_the_window_cap_evaluates_it_once(monkeypatch):
    """At t1 = 0.999999 the log tail stays above SERIES_TOL up to the 2^20 cap, and the product collapses."""
    sizes = _counting_c(monkeypatch)
    with pytest.raises(HypothesisViolation, match="coefficient product collapsed to zero"):
        eval_J(CoefficientFamily(t1=0.999999, kappa=1e7), 1, 0)
    assert sizes == [1 << 20]


def test_J_collapse_raises():
    c = CoefficientFamily(table1=(0.5,), table2=(0.5,), tail_rule="constant", tail_value=0.5)
    with pytest.raises(HypothesisViolation, match="collapses to zero under a constant tail below 1"):
        eval_J(c, 1, 0)


def test_kappa_certificate(families):
    _, c = families
    assert c.inf_c(1) == 0.5
    assert c.inf_c(1) >= 1.0 / c.kappa


def test_validate_default_passes(families):
    w, c = families
    report = validate_hypotheses(w, c, DEFAULT_GRID_N)
    assert report.all_passed, report.failed()


def test_validate_flags_divergent_weights(families):
    _, c = families
    report = validate_hypotheses(WeightFamily(q=1.0), c, DEFAULT_GRID_N)
    names = [ch.name for ch in report.failed()]
    assert "s_summable" in names


def test_validate_one_level_compares_it_with_the_next(families):
    """A one-level probe cannot show a decrease by itself; s(n) is compared with s(n + 1)."""
    w, c = families
    for n in (0, 3):
        report = validate_hypotheses(w, c, n_probe=(n,))
        assert report.all_passed, report.failed()
        (check,) = [ch for ch in report.checks if ch.name == "s_decreasing_to_zero"]
        assert check.witness.startswith(f"s({n + 1})=")


# each law checks its own parameters, with or without a table in front of it
BAD_LAWS = {
    "power-lam-zero": (WeightFamily, {"lam": 0.0}, "lam must be positive"),
    "power-p-below-one": (WeightFamily, {"p": 0.5}, "p must be >= 1"),
    "constant-weight-level-zero": (WeightFamily, {"tail_rule": "constant", "tail_value": 0.0}, "positive"),
    "weight-rule-geometric": (WeightFamily, {"tail_rule": "geometric"}, "unknown weight tail rule"),
    "geometric-t1-one": (CoefficientFamily, {"t1": 1.0}, "0 < t < 1"),
    "geometric-t2-zero": (CoefficientFamily, {"t2": 0.0}, "0 < t < 1"),
    "constant-coefficient-level-above-one": (CoefficientFamily, {"tail_rule": "constant", "tail_value": 1.5}, "(0, 1]"),
    "constant-coefficient-level-zero": (CoefficientFamily, {"tail_rule": "constant", "tail_value": 0.0}, "(0, 1]"),
    "coefficient-rule-power": (CoefficientFamily, {"tail_rule": "power"}, "unknown coefficient tail rule"),
}


@pytest.mark.parametrize("case", sorted(BAD_LAWS))
@pytest.mark.parametrize("with_table", [False, True], ids=["law-alone", "after-a-table"])
def test_law_checks_its_parameters(case, with_table):
    family, fields, message = BAD_LAWS[case]
    table = {"table": ((2.0, 3.0),)} if family is WeightFamily else {"table1": (0.5,), "table2": (0.6,)}
    with pytest.raises(ValueError, match=re.escape(message)):
        family(**fields, **(table if with_table else {}))


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), float("-inf"), 0.5])
def test_kappa_must_be_finite_and_at_least_one(kappa):
    """A NaN kappa would pass kappa_bracketing vacuously: lo < 1/nan is False."""
    with pytest.raises(ValueError, match=re.escape("kappa must be finite and >= 1")):
        CoefficientFamily(kappa=kappa)


def test_validate_flags_bad_kappa(families):
    w, _ = families
    report = validate_hypotheses(w, CoefficientFamily(kappa=1.0), DEFAULT_GRID_N)
    names = [ch.name for ch in report.failed()]
    assert "kappa_bracketing" in names


# negative controls of the family hypotheses: a weight or coefficient family (None keeps the default one)
# and the full set of checks that validate_hypotheses fails on it, as measured
HYPOTHESIS_MUTANTS = {
    "negative-weights": (WeightFamily(q=-400.0), None, {"weight_positivity", "s_summable", "s_decreasing_to_zero"}),
    "c1-collapses": (None, CoefficientFamily(table1=(1e-300, 1e-300)), {"kappa_bracketing", "product_J1_nonzero"}),
    "c2-collapses": (None, CoefficientFamily(table2=(1e-300, 1e-300)), {"kappa_bracketing", "product_J2_nonzero"}),
    "constant-tail-half": (
        None, CoefficientFamily(tail_rule="constant", tail_value=0.5), {"product_J1_nonzero", "product_J2_nonzero"}
    ),
}


@pytest.mark.parametrize("case", sorted(HYPOTHESIS_MUTANTS))
def test_each_hypothesis_fails_on_its_mutant(families, case):
    w, c = families
    bad_w, bad_c, failing = HYPOTHESIS_MUTANTS[case]
    report = validate_hypotheses(bad_w or w, bad_c or c, DEFAULT_GRID_N)
    assert {ch.name for ch in report.failed()} == failing


def test_tail_inv_weight_is_an_upper_bound(families):
    w, _ = families
    for n in (0, 3):
        for k0 in (1, 7, 40):
            direct = float(np.sum(1.0 / w.a(n, np.arange(k0, 500000))))
            assert tail_inv_weight(w, n, k0) >= direct


def test_default_families_are_the_documented_ones():
    w, c = default_families()
    assert w.a(0, 0) == 1.0 and w.a(1, 2) == 18.0
    assert c.c(1, 5, 0) == 0.5 and c.c(2, 0, 2) == 1.0 - 2.0**-3
    assert c.kappa == 2.0


@pytest.mark.parametrize("t", [0.5, 0.3, 0.9])
def test_J_bracket_holds_the_50_digit_product(t):
    """[lower, upper] holds J = (t; t)_inf: the tail covers the rounding of the summed logs."""
    got = eval_J(CoefficientFamily(t1=t, t2=t), 1, 0)
    with mpmath.workdps(50):
        ref = mpmath.qp(mpmath.mpf(t), mpmath.mpf(t))
        assert got.lower <= ref <= got.upper
