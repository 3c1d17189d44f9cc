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

Where the boundary rule is odd at m, the (-m, n) solution is that of (m, n)
with I2 and K1 negated, bit for bit (``mirror_solution``), and its HS sums
and lemma checks are equal; ``paired`` builds each +-m pair of a grid once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .families import (
    CheckReport,
    CheckResult,
    CoefficientFamily,
    HypothesisViolation,
    SeriesValue,
    WeightFamily,
    exact_tail_inv_weight,
    tail_inv_weight,
)
# scalar_det_prefix lives in transfer.  It is imported here as well because
# perfbench/tracer.py wraps solutions.scalar_det_prefix by this name.
from .transfer import (
    Levels,
    ModeIndex,
    ModeTable,
    SingularMatrixError,
    flips_exactly,
    invert,
    mirror_table,
    mode_table,
    partial_products,
    scalar_det_prefix,
    tail_sum_C_minus_I,
)

TAU_FLOOR = 1e-250
# |m| values at which BoundaryRule checks its signs and that its ratio decays
M_PROBE = (1, 2, 4, 8, 16, 32, 64)
# terms epsilon sums explicitly before its exact tail
EPS_HEAD = 4096


class BoundaryRuleError(ValueError):
    """A proposed rule for K at infinity violates a sign condition or does not decay."""


class DegeneratePairingError(ValueError):
    """tau collapsed numerically: the boundary rule is (nearly) aligned with I."""


class RangeOverflowError(OverflowError):
    """Forward recursion left the double range; rescale or reduce |m|/K."""


# the per-mode failures a solution build (and the tables built on it) can
# report; cli.cmd_solve adds the oracle's singular band, np.linalg.LinAlgError.
# Anything else is a bug.
MODE_ERRORS = (
    DegeneratePairingError,
    HypothesisViolation,
    RangeOverflowError,
    SingularMatrixError,
)


@dataclass(frozen=True)
class BoundaryRule:
    """K at radial infinity for each m: the table's pair where it lists m, else the default.

    The default is (0, 1) at m = 0 and (sgn(m)/(1+m^2), 1) elsewhere;
    ``table=None`` is the default rule.  The rule is checked once, when it is
    built: the sign clause at every table entry and at +-M_PROBE, then the
    decay of |K1/K2| along each sign over the probe and the table's entries
    (the rule is n-independent, which supplies the required uniformity).
    """

    table: Mapping[int, tuple[float, float]] | None = None

    def __post_init__(self):
        for m in (*(self.table or ()), *M_PROBE, *(-p for p in M_PROBE)):
            k1, k2 = self(m)
            if m > 0 and not (k1 > 0 and k2 > 0):
                clause = "m>0 requires both components of K(inf) positive"
            elif m < 0 and not (k1 < 0 and k2 > 0):
                clause = "m<0 requires first component negative and second positive"
            elif m == 0 and not (k1 == 0 and k2 != 0):
                clause = "m=0 requires first component zero and second nonzero"
            else:
                continue
            raise BoundaryRuleError(f"boundary rule at m={m}: {clause}")
        # finite proxy for the decay requirement: nonincreasing along each sign's
        # probe and table entries, and at least halved across them (the default
        # rule decays like 1/m^2)
        for sign in (1, -1):
            ms = sorted({sign * p for p in M_PROBE} | {m for m in self.table or () if sign * m > 0}, key=abs)
            ratios = [abs(k1 / k2) for k1, k2 in map(self, ms)]
            rising = [m for m, r0, r1 in zip(ms[1:], ratios, ratios[1:]) if not r1 <= r0 + 1e-15]
            if rising or (ratios[0] > 0 and ratios[-1] > 0.5 * ratios[0]):
                m = rising[0] if rising else ms[-1]
                raise BoundaryRuleError(f"boundary rule at m={m}: |K1(inf)/K2(inf)| must decay to 0 as |m| grows")

    @property
    def name(self) -> str:
        return "default" if self.table is None else "table"

    def __call__(self, m: int) -> tuple[float, float]:
        if self.table is not None and m in self.table:
            return self.table[m]
        if m == 0:
            return (0.0, 1.0)
        return (float(np.sign(m)) / (1.0 + m * m), 1.0)


DEFAULT_RULE = BoundaryRule()


def compute_I(
    mode: ModeIndex, w: WeightFamily, c: CoefficientFamily, k_hi: int, levels: Levels | None = None
) -> np.ndarray:
    """Forward table I(0..k_hi) from the normalization I(0) = (-1, m/a_n(0))."""
    table = mode_table(mode, w, c, k_hi, levels)
    x, y = -1.0, float(mode.m / table.an[0])
    flat = [x, y]
    # plain floats overflow to inf without raising; the guard below catches it
    for c00, c01, c10, c11 in table.C.reshape(-1, 4).tolist():
        x, y = c00 * x + c01 * y, c10 * x + c11 * y
        flat += (x, y)
    out = np.array(flat).reshape(-1, 2)
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
    k_inf: tuple[float, float],
    levels: Levels | None = None,
) -> tuple[np.ndarray, float]:
    """Backward table K(0..k_hi) seeded by K(k_hi) := k_inf, the pair K(inf).

    Returns the table and the tail certificate sum_{k >= k_hi} ||C - I||_1,
    which controls how far the seeded solution can drift from one seeded
    deeper.  Backward recursion keeps the recessive solution stable.
    """
    tail = tail_sum_C_minus_I(mode, w, c, k_hi, levels)
    table = mode_table(mode, w, c, k_hi, levels)
    c_arr = table.C
    # explicit 2x2 inverses adj(C)/det C for every step, then a plain-float sweep
    inv = np.stack((c_arr[:, 1, 1], -c_arr[:, 0, 1], -c_arr[:, 1, 0], c_arr[:, 0, 0]), axis=1)
    inv /= (table.c2 / table.c1)[:, None]
    x, y = float(k_inf[0]), float(k_inf[1])
    flat = [x, y]
    for i00, i01, i10, i11 in reversed(inv.tolist()):
        x, y = i00 * x + i01 * y, i10 * x + i11 * y
        flat += (x, y)
    return np.array(flat).reshape(-1, 2)[::-1].copy(), tail


@dataclass(frozen=True)
class KernelSolution:
    """Per-mode I/K tables with pairing, decay quantity and tail certificates."""

    mode: ModeIndex
    I: np.ndarray
    K: np.ndarray
    K_inf: tuple[float, float]
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


def epsilon(mode: ModeIndex, w: WeightFamily, levels: Levels | None = None) -> SeriesValue:
    """eps(m, n) = sum_k a_{n+1}(k) / (m^2 + a_n(k) a_{n+1}(k)).

    Beyond the explicit head the terms equal 1/a_n(k) minus a positive
    correction of size at most m^2 / (a_n^2 a_{n+1}); the first part is the
    exact tail of s(n) (the one eval_s sums) and the correction bounds the
    certificate, so no deep summation is needed.  All but m is the level's.
    """
    m, n = mode.m, mode.n
    levels = levels or Levels(w, None, 0)
    an, an1 = levels.a(n, EPS_HEAD), levels.a(n + 1, EPS_HEAD)
    an_an1, inv_tail, sup_n, sup_n1, tail_n = levels.once(("eps", n), lambda: (
        an * an1, exact_tail_inv_weight(w, n, EPS_HEAD), levels.sup_inv(n, EPS_HEAD), levels.sup_inv(n + 1, EPS_HEAD),
        tail_inv_weight(w, n, EPS_HEAD),
    ))
    head = float(np.sum(an1 / (m * m + an_an1)))
    # 1/a_n - a_{n+1}/(m^2 + a_n a_{n+1}) = m^2 / (a_n (m^2 + a_n a_{n+1}))
    # <= m^2 / (a_n^2 a_{n+1}); bound its tail by sup factors times the s-tail.
    corr = m * m * sup_n * sup_n1 * tail_n if m != 0 else 0.0
    corr = min(corr, inv_tail)
    value = head + inv_tail - 0.5 * corr
    return SeriesValue(value=value, tail=0.5 * corr + 1e-15 * abs(value))


def build_solution(
    mode: ModeIndex,
    w: WeightFamily,
    c: CoefficientFamily,
    k_max: int,
    rule: BoundaryRule = DEFAULT_RULE,
    levels: Levels | None = None,
) -> KernelSolution:
    """Assemble the I/K tables for one mode on its table of per-mode data.

    The K seed sits at the table end, so the boundary data holds exactly at
    the truncation edge; ``seed_tail_bound`` certifies the drift from a
    deeper seed.  ``levels``: the command's level data (evaluated here without it).
    """
    levels = levels or Levels(w, c, k_max)
    k_inf = rule(mode.m)
    table = mode_table(mode, w, c, k_max, levels)
    I_tab = compute_I(mode, w, c, k_max, levels)
    K_tab, seed_tail = compute_K(mode, w, c, k_max, k_inf, levels=levels)
    tau = tau_of_tables(I_tab, K_tab)
    if abs(tau) < TAU_FLOOR or not np.isfinite(tau):
        raise DegeneratePairingError(
            f"tau={tau:.3g} for mode {mode}: boundary rule aligned with the I direction"
        )
    eps = epsilon(mode, w, levels)
    return KernelSolution(
        mode=mode,
        I=I_tab,
        K=K_tab,
        K_inf=k_inf,
        tau=tau,
        eps=eps,
        seed_tail_bound=seed_tail,
        table=table,
    )


def mirror_solution(sol: KernelSolution, rule: BoundaryRule = DEFAULT_RULE) -> KernelSolution | None:
    """The solution of (-m, n) from that of (m, n), or None where it must be built.

    It is derived where m != 0 and the rule is odd at m, rule(-m) = (-k1, k2)
    for rule(m) = (k1, k2): then I(-m) = I(m) diag(1, -1) and K(-m) = K(m)
    diag(-1, 1) bit for bit, and tau, eps and the seed tail are equal.  None
    also where a negated entry could differ from a direct build
    (``transfer.flips_exactly``).
    """
    k1, k2 = sol.K_inf
    k_inf = rule(-sol.mode.m)
    if sol.mode.m == 0 or tuple(k_inf) != (-k1, k2):
        return None
    table = mirror_table(sol.table)
    I_tab = sol.I * (1.0, -1.0)
    K_tab = sol.K * (-1.0, 1.0)
    if table is None or not flips_exactly(I_tab[:, 1], K_tab[:, 0]):
        return None
    return replace(sol, mode=table.mode, I=I_tab, K=K_tab, K_inf=k_inf, table=table)


def paired(
    build: Callable[[ModeIndex], object],
    mirror: Callable[[object], object | None],
    modes: Iterable[ModeIndex],
) -> Callable[[ModeIndex], object]:
    """``build`` for ``modes`` taken in turn, run once per +-m pair where ``mirror`` can.

    The first mode of a pair to come is built, and its result kept until its
    partner comes; the partner's result is ``mirror`` of it, or a build where
    ``mirror`` gives None.  A build that raises keeps nothing, so the partner
    is built and its own error names its own mode.  A kept result is dropped
    once it is used.
    """
    pending = set(modes)
    kept: dict[ModeIndex, object] = {}

    def get(mode: ModeIndex):
        pending.discard(mode)
        src = kept.pop(mode, None)
        result = None if src is None else mirror(src)
        if result is None:
            result = build(mode)
            partner = ModeIndex(-mode.m, mode.n)
            if partner in pending:
                kept[partner] = result
        return result

    return get


def stack(sols: list[KernelSolution]) -> KernelSolution:
    """One level's solutions on one window as one: tables (modes, k, ...), per-mode numbers (modes,).

    The checks index k as [..., k], so each row gives, bit for bit, what its solution gives alone.
    No check reads the C stacks, so the stack's table holds none (``C`` is None).
    """

    def per(get) -> np.ndarray:
        return np.array([get(s) for s in sols])

    mode = ModeIndex(per(lambda s: s.mode.m), sols[0].mode.n)
    return KernelSolution(
        mode, per(lambda s: s.I), per(lambda s: s.K), (per(lambda s: s.K_inf[0]), per(lambda s: s.K_inf[1])),
        per(lambda s: s.tau), SeriesValue(per(lambda s: s.eps.value), per(lambda s: s.eps.tail)),
        per(lambda s: s.seed_tail_bound), replace(sols[0].table, mode=mode, C=None),
    )


def column(x) -> np.ndarray:
    """A per-mode number with a trailing axis, to scale a (..., k) array row by row."""
    return np.asarray(x, dtype=float)[..., None]


def per_mode(v) -> list:
    """A per-mode value of a stack, or of one solution, as a list of Python numbers."""
    return np.asarray(v).ravel().tolist()


def each_mode(sol: KernelSolution, make: Callable[[ModeIndex, int], object]):
    """``make(mode, j)`` for one solution (j = 0), or the list of it over a stack's modes."""
    if np.ndim(sol.mode.m) == 0:
        return make(sol.mode, 0)
    return [make(ModeIndex(m, sol.mode.n), j) for j, m in enumerate(sol.mode.m.tolist())]


def suffix_sum(v: np.ndarray) -> np.ndarray:
    """out[..., k] = sum_{i > k} v[..., i], with out[..., -1] = 0."""
    out = np.zeros(v.shape)
    out[..., :-1] = np.cumsum(v[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    return out


def cumulative_product_sum(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """out[k] = out[k-1] r(k-1) + x(k) from out[-1] = 0: the m = 0 kernel's recurrence, in plain floats."""
    out = [0.0]
    for xk, rk in zip(x.tolist(), [1.0, *r.tolist()]):
        out.append(out[-1] * rk + xk)
    return np.array(out[1:])


def wronskian_residuals(sol: KernelSolution) -> np.ndarray:
    """Relative error of <K(k), I(k)^perp> against tau * prod_{i<k} c2/c1, for each mode of a stack."""
    pairing = sol.K[..., 0] * sol.I[..., 1] - sol.K[..., 1] * sol.I[..., 0]
    expected = column(sol.tau) * sol.table.prefix
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


def _margins(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per mode, the worst relative margin of lhs <= rhs (scaled by local magnitude) and its k."""
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    margin = (lhs - rhs) / scale
    return margin.max(axis=-1), margin.argmax(axis=-1)


def verify_lemma_suite(
    sol: KernelSolution,
    slack: float = 1e-14,
) -> LemmaReport | list[LemmaReport]:
    """Run every inequality the norm analysis uses, over the whole table.

    For m > 0 the inequalities are asserted as stated.  For m < 0 the suite
    runs on componentwise absolute values, which is the m > 0 suite of the
    reflected system, the one whose rule is (-k1, k2) at -m where this rule
    is (k1, k2) at m.  m = 0 reduces to the diagonal pattern checks.  A
    ``stack`` of m != 0 solutions gives the list of their reports.
    """
    # slack 0 turns float ties into findings; that strictness stress is
    # documented behavior, not an error
    m = sol.mode.m

    if np.ndim(m) == 0 and m == 0:
        heads = [
            ("diag_pattern_I", [bool(np.all(sol.I[:, 1] == 0.0))], ["I2 identically zero"]),
            ("diag_pattern_K", [bool(np.all(sol.K[:, 0] == 0.0))], ["K1 identically zero"]),
        ]
        margins = [("K2_nonincreasing", *_margins(sol.K[1:, 1], sol.K[:-1, 1]))]
    else:
        sign = column(np.where(m > 0, 1.0, -1.0))
        # mirror to the m>0 orientation: the first I component is negative for
        # every m != 0, while I2 and K1 carry the sign of m
        mI1 = -sol.I[..., 0]
        I2 = sign * sol.I[..., 1]
        K1 = sign * sol.K[..., 0]
        K2 = sol.K[..., 1]
        am = column(np.abs(m))

        t = sol.table
        c1, an, an1, pref = t.c1, t.an, t.an1, t.prefix
        heads = [
            (f"positive_{name}", per_mode((arr > 0).all(axis=-1)), [f"min={v:.3g}" for v in per_mode(arr.min(axis=-1))])
            for name, arr in (("neg_I1", mI1), ("I2", I2[..., 1:]), ("K1", K1), ("K2", K2))
        ]

        # Truncated tail-sum estimates.  The K2 sum uses the c1-weighted kernel of
        # the upper-tail parametrix sums; suffix cumulation gives every k at once.
        pc1 = np.concatenate(([1.0], np.cumprod(c1)))
        terms1 = np.zeros(K2.shape)
        # i runs 1..K_hi with kernel prod_{j<=i-2} c1 * K2(i-1)/a_{n+1}(i-1)
        terms1[..., 1:] = pc1[:-1] * K2[..., :-1] / an1[:-1]
        eps_up = column(sol.eps.upper)
        ratio = column(np.abs(sol.ratio_at_infinity))
        tau_abs = column(np.abs(sol.tau))
        margins = [
            ("monotone_neg_I1", *_margins(mI1[..., :-1], mI1[..., 1:])),
            ("monotone_I2_over_c2", *_margins(I2[..., :-1], I2[..., 1:] / t.c2)),
            ("monotone_K1_over_c1", *_margins(K1[..., 1:], K1[..., :-1] / c1)),
            ("monotone_K2", *_margins(K2[..., 1:], K2[..., :-1])),
            ("ratio_bound_I", *_margins(I2[..., :-1], am * eps_up * mI1[..., 1:])),
            ("ratio_bound_K", *_margins(K1[..., 1:], am * (eps_up + ratio) * K2[..., :-1])),
            ("tail_sum_K2_kernel", *_margins(suffix_sum(terms1)[..., :-1], pc1[:-1] * K1[..., :-1] / am)),
            ("tail_sum_K1_kernel", *_margins(suffix_sum(K1 / an)[..., :-1], K2[..., :-1] / am)),
            ("product_K1_I2", *_margins(K1 * I2, tau_abs * pref)),
            ("product_K2_negI1", *_margins(K2 * mI1, tau_abs * pref)),
            ("product_negI1_next_K2", *_margins(mI1[..., 1:] * K2[..., :-1], tau_abs * pref[:-1] / c1)),
            ("product_I2_K1_next", *_margins(I2[..., :-1] * K1[..., 1:], tau_abs * pref[:-1] / c1)),
        ]

    # np.max propagates a NaN margin, which the builtin max can drop
    worst = per_mode(np.max([wv for _, wv, _ in margins], axis=0))
    heads += [
        (name, [v <= slack for v in wv], [f"worst rel margin {v:.3g} at k={k}" for v, k in zip(wv, kb)])
        for name, wv, kb in ((name, per_mode(wv), per_mode(kb)) for name, wv, kb in margins)
    ]
    return each_mode(sol, lambda mode, j: LemmaReport(
        mode, tuple(CheckResult(name, ok[j], wit[j]) for name, ok, wit in heads), worst[j]))
