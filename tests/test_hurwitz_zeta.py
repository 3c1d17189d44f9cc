"""The in-package Hurwitz zeta against a 50-digit mpmath reference, and the tails built on it."""

import math

import mpmath
import numpy as np
import pytest

from qsolidtorus.families import (
    WeightFamily,
    exact_tail_inv_weight,
    hurwitz_zeta,
    tail_inv_weight,
)

GRID_S = (1.0 + 2.0**-20, 1.01, 1.5, 2.0, 2.5, 3.0, 4.0, 5.5, 7.9, 8.0)
GRID_A = (1.0, 1.25, 3.0, 4.0, 7.3, 10.0, 17.5, 100.0, 4097.0, 123456.789, 1e9)


def reference(s: float, a: float):
    with mpmath.workdps(50):
        return mpmath.zeta(mpmath.mpf(s), mpmath.mpf(a))


def ulp_error(s: float, a: float) -> float:
    ref = reference(s, a)
    return float(abs(mpmath.mpf(hurwitz_zeta(s, a)) - ref)) / math.ulp(float(ref))


def test_within_two_ulp_on_a_grid():
    worst = max(ulp_error(s, a) for s in GRID_S for a in GRID_A)
    assert worst <= 2.0


def test_within_two_ulp_at_seeded_random_points():
    rng = np.random.default_rng(20261018)
    s_vals = 1.0 + 7.0 * (1.0 - rng.random(400))  # (1, 8]
    a_vals = np.exp(rng.uniform(0.0, math.log(1e9), 400))
    a_vals[::3] = np.floor(a_vals[::3])  # integer offsets, as the weight tails use
    worst = max(ulp_error(float(s), float(a)) for s, a in zip(s_vals, a_vals))
    assert worst <= 2.0


@pytest.mark.parametrize("s", [2.0, 3.0, 8.0])
def test_integral_s_is_correctly_rounded(s):
    for a in [*range(1, 41), 4097, 65537, 10**9, 7.3, 1234.5]:
        assert hurwitz_zeta(s, a) == float(reference(s, a)), (s, a)


def test_bit_equal_to_the_values_the_default_config_reaches():
    # the values scipy.special.zeta gave for s(n) and the epsilon tail at k_max = 4096
    assert hurwitz_zeta(2.0, 1) == 1.6449340668482264
    assert hurwitz_zeta(2.0, 4097) == 0.00024411082510293147


@pytest.mark.parametrize(
    "s, a",
    [(1.0, 1.0), (0.5, 2.0), (-2.0, 1.0), (2.0, 0.5), (2.0, 0.0), (2.0, -3.0),
     (math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0), (2.0, math.inf)],
)
def test_domain_errors(s, a):
    with pytest.raises(ValueError):
        hurwitz_zeta(s, a)


TAIL_FAMILIES = {
    "power-default": WeightFamily(),
    "power-lam0.7-p1.3-q2.5": WeightFamily(lam=0.7, p=1.3, q=2.5),
    "tabulated-power-tail": WeightFamily(table=((1.5, 3.0, 7.5), (2.5, 9.0)), tail_rule="power", q=2.0),
    "tabulated-q1.3-tail": WeightFamily(table=((0.5, 4.0, 1.0, 9.0),), tail_rule="power", lam=2.0, q=1.3),
}


@pytest.mark.parametrize("w", TAIL_FAMILIES.values(), ids=TAIL_FAMILIES.keys())
def test_partial_sum_below_exact_tail_below_bound(w):
    """sum_{k0 <= k < k0 + M} 1/a_n(k) <= exact tail <= the integral-comparison bound."""
    for n in (0, 1, 3):
        for k0 in (0, 1, 2, 3, 5, 17, 128, 4096):
            partial = float(np.sum(1.0 / w.a(n, np.arange(k0, k0 + 100_000))))
            exact = exact_tail_inv_weight(w, n, k0)
            assert partial < exact <= tail_inv_weight(w, n, k0), (n, k0)
