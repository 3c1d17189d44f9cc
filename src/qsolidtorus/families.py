"""Weight and coefficient families parameterizing the mode systems.

A weight family assigns positive numbers a_n(k) to every radial level n >= 0 and
radial index k >= 0 such that s(n) = sum_k 1/a_n(k) is finite and s(n) -> 0.
A coefficient family assigns gap sequences c_{i,n}(k) in (0, 1] for i in {1, 2}
whose infinite products J_i(n) converge to a nonzero limit, together with a
uniformity constant kappa >= 1 certifying 1/kappa <= c_{i,n}(k) <= 1.

Every series or product evaluated here comes back as a SeriesValue carrying a
rigorous bound on the omitted tail, so downstream checks can use certified
brackets instead of bare truncations.

Each family is its table rows (none by default) continued by one law, its
tail_rule, evaluated vectorised over k; each law checks its own parameters when
the family is built, with or without a table in front of it.  Each tail below
is the row past k0 plus the law's tail from max(k0, len(row)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Determinants and products below this are treated as numerically collapsed.
COLLAPSE_FLOOR = 1e-300
SERIES_TOL = 1e-12  # the tail tolerance of s(n) and of J_i(n)
PROBE_K = 64  # validate_hypotheses probes the families at k < PROBE_K


class HypothesisViolation(ValueError):
    """A family fails one of the standing summability/uniformity hypotheses."""


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series/product value with a rigorous tail bound.

    ``value`` is the computed truncation and ``tail`` an upper bound on
    |true - value|.
    """

    value: float
    tail: float

    @property
    def upper(self) -> float:
        return self.value + self.tail

    @property
    def lower(self) -> float:
        return self.value - self.tail


@dataclass(frozen=True)
class WeightFamily:
    """Radial weights a_n(k): the rows table[n][k] (none by default) continued by one law.

    tail_rule "power": a_n(k) = lam * (n+1)**p * (k+1)**q, lam > 0, p >= 1.
    tail_rule "constant": a_n(k) = tail_value > 0, which makes 1/a_n non-summable.
    Each quantity below is the row's part plus the law's part past the row.
    """

    lam: float = 1.0
    p: float = 1.0
    q: float = 2.0
    table: tuple[tuple[float, ...], ...] = ()
    tail_rule: str = "power"
    tail_value: float = 1.0

    def __post_init__(self) -> None:
        if self.tail_rule == "power":
            if not (self.lam > 0):
                raise ValueError("scale lam must be positive")
            if not (self.p >= 1):
                raise ValueError("mode exponent p must be >= 1")
        elif self.tail_rule == "constant":
            if not (self.tail_value > 0):
                raise ValueError("constant tail level must be positive")
        else:
            raise ValueError(f"unknown weight tail rule {self.tail_rule!r}")
        for row in self.table:
            if any(not (v > 0) for v in row):
                raise ValueError("tabulated weights must be positive")

    def _row(self, n: int) -> tuple[float, ...]:
        return self.table[n] if n < len(self.table) else ()

    def _scale(self, n: int) -> float:
        return self.lam * (n + 1) ** self.p

    def a(self, n: int, k):
        """Evaluate a_n(k); k may be an integer or an integer array."""
        if self.tail_rule == "constant":
            law = np.full(np.shape(k), self.tail_value)
        else:
            law = self._scale(n) * np.asarray(k + 1, dtype=float) ** self.q
        return _with_row(law, k, self._row(n))


@dataclass(frozen=True)
class CoefficientFamily:
    """Gap coefficients c_{i,n}(k), i in {1, 2}, with uniformity constant kappa.

    The rows table1/table2 (none by default, shared across n) are continued by
    one law.  tail_rule "geometric": c_{i,n}(k) = 1 - t_i**(k+1), 0 < t_i < 1.
    tail_rule "constant": c_{i,n}(k) = tail_value in (0, 1]; the unit family is
    the constant law at its default level 1.
    """

    t1: float = 0.5
    t2: float = 0.5
    kappa: float = 2.0
    table1: tuple[float, ...] = ()
    table2: tuple[float, ...] = ()
    tail_rule: str = "geometric"
    tail_value: float = 1.0

    def __post_init__(self) -> None:
        if self.tail_rule == "geometric":
            if not (0 < self.t1 < 1 and 0 < self.t2 < 1):
                raise ValueError("geometric-gap parameters must satisfy 0 < t < 1")
        elif self.tail_rule == "constant":
            if not (0 < self.tail_value <= 1):
                raise ValueError("constant coefficient level must lie in (0, 1]")
        else:
            raise ValueError(f"unknown coefficient tail rule {self.tail_rule!r}")
        if not (math.isfinite(self.kappa) and self.kappa >= 1):
            raise ValueError("kappa must be finite and >= 1")
        for row in (self.table1, self.table2):
            if any(not (0 < v <= 1) for v in row):
                raise ValueError("tabulated coefficients must lie in (0, 1]")

    def _t(self, i: int) -> float:
        return self.t1 if i == 1 else self.t2

    def _row(self, i: int) -> tuple[float, ...]:
        return self.table1 if i == 1 else self.table2

    def c(self, i: int, n: int, k):
        """Evaluate c_{i,n}(k); k may be an integer or an integer array."""
        if i not in (1, 2):
            raise ValueError("coefficient index must be 1 or 2")
        if self.tail_rule == "geometric":
            law = 1.0 - self._t(i) ** (np.asarray(k, dtype=float) + 1.0)
        else:
            law = np.full(np.shape(k), self.tail_value)
        return _with_row(law, k, self._row(i))

    def inf_c(self, i: int) -> float:
        """Infimum of c_{i,n}(k) over all n, k: the row's entries and the law's infimum."""
        law_inf = 1.0 - self._t(i) if self.tail_rule == "geometric" else self.tail_value
        return min([law_inf, *self._row(i)])


def _with_row(law, k, row: tuple[float, ...]):
    """The law's values with those at k < len(row) read from the row; a scalar k gives a float."""
    if not isinstance(k, np.ndarray) or k.ndim == 0:
        return float(row[k] if k < len(row) else law)
    if row:
        head = k < len(row)
        law[head] = np.asarray(row)[k[head]]
    return law


def default_families() -> tuple[WeightFamily, CoefficientFamily]:
    """The concrete defaults: a_n(k) = (n+1)(k+1)^2, c = 1 - 2^-(k+1), kappa = 2."""
    return WeightFamily(), CoefficientFamily()


def _inv_weight_head(w: WeightFamily, n: int, k0: int) -> tuple[float, int]:
    """sum of 1/a_n(k) over the row past k0, and the index the power law continues from.

    Raises where s(n) diverges: a constant tail, or a power law with q <= 1.
    """
    if w.tail_rule == "constant":
        raise HypothesisViolation("declared constant weight tail makes s(n) divergent")
    if w.q <= 1:
        raise HypothesisViolation("weight family with q <= 1 has divergent s(n)")
    row = w._row(n)
    return sum((1.0 / v for v in row[k0:]), 0.0), max(k0, len(row))


def tail_inv_weight(w: WeightFamily, n: int, k0: int) -> float:
    """Rigorous upper bound for sum_{k >= k0} 1/a_n(k).

    The row past k0 is summed term by term; the power law's tail is bounded by
    its first term plus the integral comparison.
    """
    head, k_cont = _inv_weight_head(w, n, k0)
    # sum_{k>=k0} (k+1)^-q  <=  (k0+1)^-q + (k0+1)^(1-q)/(q-1)
    x = float(k_cont + 1)
    return head + 1.0 / w._scale(n) * (x ** (-w.q) + x ** (1.0 - w.q) / (w.q - 1.0))


# B_2j / (2j)!, j = 1..16, correctly rounded
_BERNOULLI_OVER_FACTORIAL = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26,
)


@functools.lru_cache(maxsize=256)
def hurwitz_zeta(s: float, a: float) -> float:
    """The Hurwitz zeta function sum_{k >= 0} (a + k)^-s for real s > 1, a >= 1.

    Euler-Maclaurin summation (DLMF 25.11 and 2.10): the terms (a + k)^-s are
    summed directly until x = a + N >= 10 + s (or a term underflows), and the
    rest is x^(1-s)/(s-1) + x^-s/2 + sum_j B_2j/(2j)! (s)_(2j-1) x^(-s-2j+1),
    everything added with math.fsum.  The even derivatives of x^-s are all
    positive, so the remainder after the last correction term kept lies
    between 0 and the first omitted term.  The series stops at the first
    term below 2^-64 times the leading x^(1-s)/(s-1) (by j = 13, since
    x >= 10 + s, or at once when x^-s underflows), so the truncation error is
    below 2^-64 relative.

    The rounding of a + k is compensated to first order, and the result is
    within 2 ulp of a 50-digit reference on s in (1, 8], a in [1, 1e9].  For
    an integral s <= 64 the direct and the two leading terms are rational, so
    their rounding errors are added back exactly, which leaves the result
    correctly rounded but for the tiny truncation and correction-term errors.
    That exact arithmetic costs up to ~0.5 ms a call, so values are cached.

    Raises ValueError for s <= 1, a < 1 or a non-finite argument.
    """
    s, a = float(s), float(a)
    if not (math.isfinite(s) and math.isfinite(a)) or s <= 1.0 or a < 1.0:
        raise ValueError(f"hurwitz_zeta needs finite s > 1 and a >= 1, got s={s!r}, a={a!r}")
    terms = []
    k, x = 0, a
    while True:
        e = (a - x) + k  # x + e == a + k exactly
        p = x**-s
        if x >= 10.0 + s or p == 0.0:
            break
        terms += (p, -s * e * p / x)
        k += 1
        x = a + k
    lead = x ** (1.0 - s) / (s - 1.0)
    # the (a + k) -> x rounding moves the continuation by -e x^-s to first order
    terms += (lead, 0.5 * p, -e * p)
    if s.is_integer() and s <= 64:  # 64 keeps the exact integers a few thousand bits long
        q, x_exact = int(s), Fraction(a) + k
        exact = sum(1 / (Fraction(a) + j) ** q for j in range(k))
        exact += 1 / ((q - 1) * x_exact ** (q - 1)) + 1 / (2 * x_exact**q)
        terms.append(float(exact - sum(map(Fraction, terms))))
    f = s * p / x  # (s)_(2j-1) x^(-s-2j+1) at j = 1
    for j, b in enumerate(_BERNOULLI_OVER_FACTORIAL, 1):
        t = b * f
        if abs(t) <= 2.0**-64 * lead:
            break
        terms.append(t)
        f *= (s + 2 * j - 1) * (s + 2 * j) / (x * x)
    return math.fsum(terms)


def exact_tail_inv_weight(w: WeightFamily, n: int, k0: int) -> float:
    """sum_{k >= k0} 1/a_n(k): the row past k0 plus the Hurwitz zeta continuation."""
    head, k_cont = _inv_weight_head(w, n, k0)
    return head + hurwitz_zeta(w.q, k_cont + 1) / w._scale(n)


def sup_inv_weight(w: WeightFamily, n: int, k0: int) -> float:
    """Upper bound for sup_{k >= k0} 1/a_n(k).

    The row is not assumed monotone; past it the law's 1/a_n is nonincreasing
    in k, so its first value bounds the rest.
    """
    row = w._row(n)
    return max([1.0 / v for v in row[k0:]] + [1.0 / w.a(n, max(k0, len(row)))])


def gap_tail(c: CoefficientFamily, i: int, k0: int, inverse: bool = False) -> float:
    """Rigorous upper bound for sum_{k >= k0} (1 - c_i(k)), or (1/c_i(k) - 1) if inverse.

    The row past k0 is summed term by term; the law's tail is bounded in
    closed form, and a constant law contributes only at level 1.
    """
    row = c._row(i)
    head = sum(((1.0 / v - 1.0) if inverse else (1.0 - v) for v in row[k0:]), 0.0)
    k_cont = max(k0, len(row))
    if c.tail_rule == "geometric":
        t = c._t(i)
        geo = t ** (k_cont + 1) / (1.0 - t)
        # 1/c - 1 = t^{k+1}/(1 - t^{k+1}) <= t^{k+1}/(1-t)
        return head + (geo / (1.0 - t) if inverse else geo)
    # the level lies in (0, 1], and below 1 neither gap vanishes
    if c.tail_value < 1.0:
        raise HypothesisViolation("constant coefficient tail keeps ||C - I|| bounded away from 0")
    return head


def eval_s(w: WeightFamily, n: int) -> SeriesValue:
    """s(n) = sum_k 1/a_n(k), closed form for the power law.

    Raises HypothesisViolation when the declared tail rule is divergent.
    """
    value = exact_tail_inv_weight(w, n, 0)
    # with no table, s(n) is zeta(q) / scale, with no row summed term by term to round
    tail = 0.0 if not w.table else min(SERIES_TOL, 1e-15 * abs(value))
    return SeriesValue(value=value, tail=tail)


def eval_J(c: CoefficientFamily, i: int, n: int) -> SeriesValue:
    """J_i(n) = prod_k c_{i,n}(k), via summed logarithms, to a log tail below ``SERIES_TOL``.

    The tail bounds both the truncated product and the float error of the
    summed logarithms and of exp, so ``[lower, upper]`` holds J_i(n).
    """
    row = c._row(i)

    def log_tail(k0: int) -> float:
        head = sum(-math.log(v) for v in row[k0:])
        k_cont = max(k0, len(row))
        # |log(1-x)| <= x/(1-x); geometric gaps give a geometric majorant.
        if c.tail_rule == "geometric":
            t = c._t(i)
            return head + t ** (k_cont + 1) / ((1.0 - t) * (1.0 - t ** (k_cont + 1)))
        if c.tail_value >= 1.0:
            return head
        raise HypothesisViolation(
            "coefficient product collapses to zero under a constant tail below 1"
        )

    k_hi = 64
    while not (t_log := log_tail(k_hi)) < SERIES_TOL and k_hi < 1 << 20:
        k_hi *= 2
    # every law and row is positive, as the family checked when it was built
    log_sum = float(np.sum(np.log(c.c(i, n, np.arange(k_hi)))))
    value = math.exp(log_sum)
    if value < COLLAPSE_FLOOR:
        raise HypothesisViolation("coefficient product collapsed to zero")
    # Rounding: each of the k_hi logs is within 4 ulps (8u) and the sum adds
    # at most (k_hi - 1) u sum |log c|, which is |log_sum| as every log c <= 0;
    # exp is within an ulp (2u), and exact at 0.
    u = 0.5 * math.ulp(1.0)
    log_err = (k_hi + 7) * u * abs(log_sum)
    exp_err = 0.0 if log_sum == 0.0 else 2 * u
    tail = value * (math.expm1(t_log + log_err) + exp_err) / (1.0 - exp_err)
    return SeriesValue(value=value, tail=tail)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class CheckReport:
    """Named checks and their verdict, the package's one report type."""

    checks: tuple[CheckResult, ...]
    mode: object = None  # the transfer.ModeIndex of a per-mode report
    # the lemma suite's largest relative slack, or the algebra checks' worst residuals by name
    worst: float | dict | None = None

    @property
    def all_passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def failed(self) -> list[CheckResult]:
        return [ch for ch in self.checks if not ch.passed]

    def as_dict(self) -> dict:
        """The verdict, the check rows and ``worst`` where it is set, for JSON output."""
        rows = [{"name": ch.name, "passed": ch.passed, "witness": ch.witness} for ch in self.checks]
        out = {"all_passed": self.all_passed, "checks": rows}
        return out if self.worst is None else {**out, "worst": self.worst}


def validate_hypotheses(w: WeightFamily, c: CoefficientFamily, n_probe: tuple[int, ...]) -> CheckReport:
    """Check every standing hypothesis on the levels ``n_probe``; failures become report rows."""
    checks: list[CheckResult] = []
    ks = np.arange(PROBE_K)

    pos_ok, pos_wit = True, "a_n(k) > 0 on probe grid"
    for n in n_probe:
        if not np.all(w.a(n, ks) > 0):
            pos_ok, pos_wit = False, f"nonpositive weight at n={n}"
            break
    checks.append(CheckResult("weight_positivity", pos_ok, pos_wit))

    # s(n) must decrease along the levels, whatever order the probe lists them
    # in; one level cannot show a decrease, so it is compared with the next
    levels = sorted(set(n_probe))
    if len(levels) == 1:
        levels.append(levels[0] + 1)
    try:
        s_vals = [eval_s(w, n) for n in levels]
        checks.append(CheckResult("s_summable", True, f"s(n) finite; s({levels[0]})={s_vals[0].value:.6g}"))
        dec_ok = all(
            s_vals[j + 1].upper < s_vals[j].lower + 1e-15 * s_vals[j].value
            for j in range(len(s_vals) - 1)
        )
        van_ok = s_vals[-1].upper < s_vals[0].value
        checks.append(
            CheckResult(
                "s_decreasing_to_zero",
                dec_ok and van_ok,
                f"s({levels[-1]})={s_vals[-1].value:.6g} vs s({levels[0]})={s_vals[0].value:.6g}",
            )
        )
    except HypothesisViolation as exc:
        checks.append(CheckResult("s_summable", False, str(exc)))
        checks.append(CheckResult("s_decreasing_to_zero", False, "s(n) not summable"))

    # c <= 1 holds by construction: CoefficientFamily rejects a law or table row above 1
    low = [i for i in (1, 2) if c.inf_c(i) < 1.0 / c.kappa - 1e-15]
    brk_wit = (f"c_{low[0]}: inf={c.inf_c(low[0]):.6g} vs 1/kappa={1.0 / c.kappa:.6g}" if low
               else f"inf c >= 1/kappa={1.0 / c.kappa:.6g} and c <= 1 certified")
    checks.append(CheckResult("kappa_bracketing", not low, brk_wit))

    for i in (1, 2):
        try:
            j_val = eval_J(c, i, 0)
            ok = j_val.lower > 0
            wit = f"J_{i}={j_val.value:.10g} (tail {j_val.tail:.2g})"
        except HypothesisViolation as exc:
            ok, wit = False, str(exc)
        checks.append(CheckResult(f"product_J{i}_nonzero", ok, wit))

    return CheckReport(tuple(checks))
