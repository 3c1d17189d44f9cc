"""Special kernel solutions of the mode systems and their certified properties.

Each mode (m, n) has a two-dimensional kernel for its one-step recurrence
h(k+1) = C_{m,n}(k) h(k).  Two distinguished solutions are computed here:

* the I function, normalized by I(0) = (-1, m/a_n(0)) so it satisfies the
  homogeneous initial regularity condition, propagated forward (it is the
  dominant direction, so forward recursion is stable);
* the K function, prescribed at radial infinity by a sign/decay rule and
  propagated backward from a seed index (it is the recessive direction, so
  backward recursion is stable, exactly as for modified Bessel K).

The pairing tau = <K(0), I(0)^perp> measures their independence and
propagates by the scalar product of c_2/c_1 (a Wronskian analog).  The module
also evaluates the decay quantity eps(m, n) and runs the full inequality suite
(positivity, stepwise monotonicity, ratio bounds, tail-sum estimates and
pairing product bounds) that the parametrix norm estimates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .families import (
    CheckReport,
    CheckResult,
    CoefficientFamily,
    SeriesValue,
    WeightFamily,
    exact_tail_inv_weight,
    sup_inv_weight,
    tail_inv_weight,
)
# mode_table and scalar_det_prefix live in transfer.  They are imported here
# as well because perfbench/tracer.py wraps solutions.scalar_det_prefix and
# tests/test_profiler_contract.py clears solutions.mode_table by these names.
from .transfer import (
    ConvergenceError,
    ModeIndex,
    ModeTable,
    invert,
    mode_table,
    partial_products,
    scalar_det_prefix,
    tail_sum_C_minus_I,
)

TAU_FLOOR = 1e-250


class BoundaryRuleError(ValueError):
    """A proposed rule for K at infinity violates one of its sign conditions."""


class DegeneratePairingError(ValueError):
    """tau collapsed numerically: the boundary rule is (nearly) aligned with I."""


class RangeOverflowError(OverflowError):
    """Forward recursion left the double range; rescale or reduce |m|/K."""


def default_rule(m: int) -> tuple[float, float]:
    """K at infinity: (sgn(m)/(1+m^2), 1) for m != 0 and (0, 1) for m = 0."""
    if m == 0:
        return (0.0, 1.0)
    return (float(np.sign(m)) / (1.0 + m * m), 1.0)


@dataclass(frozen=True)
class BoundaryData:
    """Values of K at radial infinity for one mode, plus the rule's name."""

    mode: ModeIndex
    K_inf: tuple[float, float]
    rule: str = "default"

    @property
    def ratio(self) -> float:
        return self.K_inf[0] / self.K_inf[1]


def _check_conditions(m: int, k1: float, k2: float) -> str | None:
    if m > 0 and not (k1 > 0 and k2 > 0):
        return "m>0 requires both components of K(inf) positive"
    if m < 0 and not (k1 < 0 and k2 > 0):
        return "m<0 requires first component negative and second positive"
    if m == 0 and not (k1 == 0 and k2 != 0):
        return "m=0 requires first component zero and second nonzero"
    return None


def choose_K_infinity(
    mode: ModeIndex,
    rule: str | Callable[[int], tuple[float, float]] = "default",
    m_probe: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
) -> BoundaryData:
    """Evaluate a boundary rule for one mode, validating all four conditions.

    Custom rules are callables m -> (K1(inf), K2(inf)); the decay condition is
    checked as a monotone bound in |m| on the probe set (the rule itself is
    n-independent, which supplies the required uniformity).
    """
    fn = default_rule if rule == "default" else rule
    name = "default" if rule == "default" else getattr(rule, "__name__", "custom")
    k1, k2 = fn(mode.m)
    clause = _check_conditions(mode.m, k1, k2)
    if clause is not None:
        raise BoundaryRuleError(clause)
    ratios = []
    for m in m_probe:
        for sgn in (1, -1):
            v1, v2 = fn(sgn * m)
            cl = _check_conditions(sgn * m, v1, v2)
            if cl is not None:
                raise BoundaryRuleError(cl)
            ratios.append(abs(v1 / v2))
    pairs = ratios[0::2]
    # finite proxy for the decay requirement: nonincreasing along the probe
    # and at least halved across it (the default rule decays like 1/m^2)
    monotone = all(pairs[j + 1] <= pairs[j] + 1e-15 for j in range(len(pairs) - 1))
    if not monotone or (pairs[0] > 0 and pairs[-1] > 0.5 * pairs[0]):
        raise BoundaryRuleError("|K1(inf)/K2(inf)| must decay to 0 as |m| grows")
    return BoundaryData(mode=mode, K_inf=(k1, k2), rule=name)


def compute_I(
    mode: ModeIndex, w: WeightFamily, c: CoefficientFamily, k_hi: int
) -> np.ndarray:
    """Forward table I(0..k_hi) from the normalization I(0) = (-1, m/a_n(0))."""
    table = mode_table(mode, w, c, k_hi)
    x, y = -1.0, float(mode.m / table.an[0])
    rows = [(x, y)]
    # plain floats overflow to inf without raising; the guard below catches it
    for c00, c01, c10, c11 in table.C.reshape(-1, 4).tolist():
        x, y = c00 * x + c01 * y, c10 * x + c11 * y
        rows.append((x, y))
    out = np.array(rows)
    if not np.all(np.isfinite(out)) or np.max(np.abs(out)) > 1e280:
        raise RangeOverflowError(
            "forward recursion overflow; rescale the data or lower |m| * K "
            "(tau-normalized quantities are scale-free)"
        )
    return out


def compute_K(
    mode: ModeIndex,
    w: WeightFamily,
    c: CoefficientFamily,
    k_hi: int,
    bd: BoundaryData,
    tol: float | None = None,
) -> tuple[np.ndarray, float]:
    """Backward table K(0..k_hi) seeded by K(k_hi) := K(inf).

    Returns the table and the tail certificate sum_{k >= k_hi} ||C - I||_1,
    which controls how far the seeded solution can drift from one seeded
    deeper.  Backward recursion keeps the recessive solution stable.  When a
    tol is requested and the certificate exceeds it, the seed is too shallow
    for the asked accuracy and a ConvergenceError is raised.
    """
    tail = tail_sum_C_minus_I(mode, w, c, k_hi)
    if tol is not None and tail > tol:
        raise ConvergenceError(
            f"seed tail certificate {tail:.3g} above requested tol {tol:.3g}"
        )
    table = mode_table(mode, w, c, k_hi)
    c_arr = table.C
    # explicit 2x2 inverses adj(C)/det C for every step, then a plain-float sweep
    inv = np.stack((c_arr[:, 1, 1], -c_arr[:, 0, 1], -c_arr[:, 1, 0], c_arr[:, 0, 0]), axis=1)
    inv /= (table.c2 / table.c1)[:, None]
    x, y = float(bd.K_inf[0]), float(bd.K_inf[1])
    rows = [(x, y)]
    for i00, i01, i10, i11 in reversed(inv.tolist()):
        x, y = i00 * x + i01 * y, i10 * x + i11 * y
        rows.append((x, y))
    return np.array(rows[::-1]), tail


@dataclass(frozen=True)
class KernelSolution:
    """Per-mode I/K tables with pairing, decay quantity and tail certificates."""

    mode: ModeIndex
    I: np.ndarray
    K: np.ndarray
    K_inf: tuple[float, float]
    rule: str
    tau: float
    eps: SeriesValue
    seed_tail_bound: float
    table: ModeTable = field(repr=False)

    @property
    def k_table(self) -> int:
        return self.table.k_hi

    @property
    def ratio_at_infinity(self) -> float:
        return self.K_inf[0] / self.K_inf[1]


def tau_of_tables(I: np.ndarray, K: np.ndarray) -> float:
    """tau = <K(0), I(0)^perp> = K1(0) I2(0) - K2(0) I1(0)."""
    return float(K[0, 0] * I[0, 1] - K[0, 1] * I[0, 0])


def epsilon(mode: ModeIndex, w: WeightFamily, k_head: int = 4096) -> SeriesValue:
    """eps(m, n) = sum_k a_{n+1}(k) / (m^2 + a_n(k) a_{n+1}(k)).

    Beyond the explicit head the terms equal 1/a_n(k) minus a positive
    correction of size at most m^2 / (a_n^2 a_{n+1}); the first part is the
    exact tail of s(n) (the one eval_s sums) and the correction bounds the
    certificate, so no deep summation is needed.
    """
    m, n = mode.m, mode.n
    ks = np.arange(k_head)
    an = np.asarray(w.a(n, ks), dtype=float)
    an1 = np.asarray(w.a(n + 1, ks), dtype=float)
    head = float(np.sum(an1 / (m * m + an * an1)))
    inv_tail = exact_tail_inv_weight(w, n, k_head)
    # 1/a_n - a_{n+1}/(m^2 + a_n a_{n+1}) = m^2 / (a_n (m^2 + a_n a_{n+1}))
    # <= m^2 / (a_n^2 a_{n+1}); bound its tail by sup factors times the s-tail.
    corr = (
        m
        * m
        * sup_inv_weight(w, n, k_head)
        * sup_inv_weight(w, n + 1, k_head)
        * tail_inv_weight(w, n, k_head)
        if m != 0
        else 0.0
    )
    corr = min(corr, inv_tail)
    value = head + inv_tail - 0.5 * corr
    return SeriesValue(value=value, k_trunc=k_head, tail=0.5 * corr + 1e-15 * abs(value))


def build_solution(
    mode: ModeIndex,
    w: WeightFamily,
    c: CoefficientFamily,
    k_max: int,
    rule: str | Callable[[int], tuple[float, float]] = "default",
) -> KernelSolution:
    """Assemble the I/K tables for one mode on its table of per-mode data.

    The K seed sits at the table end, so the boundary data holds exactly at
    the truncation edge; ``seed_tail_bound`` certifies the drift from a
    deeper seed.
    """
    bd = choose_K_infinity(mode, rule)
    table = mode_table(mode, w, c, k_max)
    I_tab = compute_I(mode, w, c, k_max)
    K_tab, seed_tail = compute_K(mode, w, c, k_max, bd)
    tau = tau_of_tables(I_tab, K_tab)
    if abs(tau) < TAU_FLOOR or not np.isfinite(tau):
        raise DegeneratePairingError(
            f"tau={tau:.3g} for mode {mode}: boundary rule aligned with the I direction"
        )
    eps = epsilon(mode, w)
    return KernelSolution(
        mode=mode,
        I=I_tab,
        K=K_tab,
        K_inf=bd.K_inf,
        rule=bd.rule,
        tau=tau,
        eps=eps,
        seed_tail_bound=seed_tail,
        table=table,
    )


def suffix_sum(v: np.ndarray) -> np.ndarray:
    """out[k] = sum_{i > k} v(i), with out[-1] = 0."""
    out = np.zeros(len(v))
    out[:-1] = np.cumsum(v[::-1])[::-1][1:]
    return out


def wronskian_residuals(sol: KernelSolution) -> np.ndarray:
    """Relative error of <K(k), I(k)^perp> against tau * prod_{i<k} c2/c1."""
    pairing = sol.K[:, 0] * sol.I[:, 1] - sol.K[:, 1] * sol.I[:, 0]
    expected = sol.tau * sol.table.prefix
    return np.abs(pairing - expected) / np.abs(expected)


def perp_transport_residual(sol: KernelSolution) -> float:
    """Check K(k)^perp = prod(c2/c1) (P(k)^-1)^T K(0)^perp, worst relative error."""
    k_hi = min(sol.k_table, 48)
    parts = partial_products(sol.table.C[:k_hi])
    pref = sol.table.prefix
    k0_perp = np.array([sol.K[0, 1], -sol.K[0, 0]])
    worst = 0.0
    for k in range(k_hi + 1):
        direct = np.array([sol.K[k, 1], -sol.K[k, 0]])
        via = pref[k] * (invert(parts[k]).T @ k0_perp)
        scale = max(np.max(np.abs(direct)), np.max(np.abs(via)))
        worst = max(worst, float(np.max(np.abs(direct - via))) / scale)
    return worst


@dataclass(frozen=True)
class LemmaReport(CheckReport):
    """Outcome of the inequality suite for one mode."""

    mode: ModeIndex
    checks: tuple[CheckResult, ...]
    worst_slack: float
    flagged: tuple[str, ...] = ()


def _clause(name: str, lhs: np.ndarray, rhs: np.ndarray, slack: float) -> tuple[CheckResult, float]:
    """lhs <= rhs with additive slack scaled by local magnitude."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    margin = (lhs - rhs) / scale
    worst = float(np.max(margin))
    ok = worst <= slack
    k_bad = int(np.argmax(margin))
    wit = f"worst rel margin {worst:.3g} at k={k_bad}"
    return CheckResult(name, ok, wit), worst


def verify_lemma_suite(
    sol: KernelSolution,
    slack: float = 1e-14,
) -> LemmaReport:
    """Run every inequality the norm analysis uses, over the whole table.

    For m > 0 the inequalities are asserted as stated; for m < 0 the suite runs
    on componentwise absolute values (an exact mirror of the m > 0 tables) and
    the signed variants are flagged, not asserted.  m = 0 reduces to the
    diagonal pattern checks.
    """
    # slack 0 turns float ties into findings; that strictness stress is
    # documented behavior, not an error
    mode = sol.mode
    m = mode.m
    K_hi = sol.k_table
    flagged: list[str] = []

    if m == 0:
        i2_zero = np.all(sol.I[:, 1] == 0.0)
        k1_zero = np.all(sol.K[:, 0] == 0.0)
        checks = [
            CheckResult("diag_pattern_I", bool(i2_zero), "I2 identically zero"),
            CheckResult("diag_pattern_K", bool(k1_zero), "K1 identically zero"),
        ]
        clauses = [("K2_nonincreasing", sol.K[1:, 1], sol.K[:-1, 1])]
    else:
        sign = 1.0 if m > 0 else -1.0
        if m < 0:
            flagged.append(
                "m<0 suite uses componentwise absolute values; signed ratio bound "
                "involves a negative K1(inf)/K2(inf) and is not asserted"
            )
        # mirror to the m>0 orientation: the first I component is negative for
        # every m != 0, while I2 and K1 carry the sign of m
        mI1 = -sol.I[:, 0]
        I2 = sign * sol.I[:, 1]
        K1 = sign * sol.K[:, 0]
        K2 = sol.K[:, 1]
        am = abs(m)

        t = sol.table
        c1, an, an1, pref = t.c1, t.an, t.an1, t.prefix
        checks = [
            CheckResult(f"positive_{name}", bool(np.all(arr > 0)), f"min={np.min(arr):.3g}")
            for name, arr in (("neg_I1", mI1), ("I2", I2[1:]), ("K1", K1), ("K2", K2))
        ]

        # Truncated tail-sum estimates.  The K2 sum uses the c1-weighted kernel of
        # the upper-tail parametrix sums; suffix cumulation gives every k at once.
        pc1 = np.empty(K_hi + 1)
        pc1[0] = 1.0
        np.cumprod(c1, out=pc1[1:])
        terms1 = np.zeros(K_hi + 1)
        # i runs 1..K_hi with kernel prod_{j<=i-2} c1 * K2(i-1)/a_{n+1}(i-1)
        terms1[1:] = pc1[:-1] * K2[:-1] / an1[:-1]
        eps_up = sol.eps.upper
        ratio = abs(sol.ratio_at_infinity)
        tau_abs = abs(sol.tau)
        clauses = [
            ("monotone_neg_I1", mI1[:-1], mI1[1:]),
            ("monotone_I2_over_c2", I2[:-1], I2[1:] / t.c2),
            ("monotone_K1_over_c1", K1[1:], K1[:-1] / c1),
            ("monotone_K2", K2[1:], K2[:-1]),
            ("ratio_bound_I", I2[:-1], am * eps_up * mI1[1:]),
            ("ratio_bound_K", K1[1:], am * (eps_up + ratio) * K2[:-1]),
            ("tail_sum_K2_kernel", suffix_sum(terms1)[:-1], pc1[:-1] * K1[:-1] / am),
            ("tail_sum_K1_kernel", suffix_sum(K1 / an)[:-1], K2[:-1] / am),
            ("product_K1_I2", K1 * I2, tau_abs * pref),
            ("product_K2_negI1", K2 * mI1, tau_abs * pref),
            ("product_negI1_next_K2", mI1[1:] * K2[:-1], tau_abs * pref[:-1] / c1),
            ("product_I2_K1_next", I2[:-1] * K1[1:], tau_abs * pref[:-1] / c1),
        ]

    results = [_clause(name, lhs, rhs, slack) for name, lhs, rhs in clauses]
    checks += [ch for ch, _ in results]
    # np.max propagates a NaN margin, which the builtin max can drop
    worst = float(np.max([wv for _, wv in results]))
    return LemmaReport(
        mode=mode, checks=tuple(checks), worst_slack=worst, flagged=tuple(flagged)
    )
