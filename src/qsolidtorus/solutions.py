"""Special kernel solutions of the mode systems and their certified properties.

Each mode (m, n) has a two-dimensional kernel for its one-step recurrence
h(k+1) = C_{m,n}(k) h(k).  Two distinguished solutions are computed here:

* the I function, normalized by I(0) = (-1, m/a_n(0)) so it satisfies the
  homogeneous initial regularity condition, propagated forward (it is the
  dominant direction, so forward recursion is stable);
* the K function, prescribed at radial infinity by a sign/decay rule and
  propagated backward from a seed index (it is the recessive direction, so
  backward recursion is stable, exactly as for modified Bessel K).
Both, and the m = 0 inner sum, run on ``transfer.sweep``, the one step loop.

The pairing tau = <K(0), I(0)^perp> measures their independence and
propagates by the scalar product of c_2/c_1 (a Wronskian analog).  The module
also evaluates the decay quantity eps(m, n) and runs the full inequality suite
(positivity, stepwise monotonicity, ratio bounds, tail-sum estimates and
pairing product bounds) that the parametrix norm estimates rely on.

Where the boundary rule is odd at m, the (-m, n) solution is that of (m, n)
with I2 and K1 negated, bit for bit (``mirror_solution``), and its HS sums
and lemma checks are equal.  ``by_level`` runs a command's modes one radial
level at a time and builds each +-m pair of a level once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .families import (
    CheckReport,
    CheckResult,
    HypothesisViolation,
    SeriesValue,
    exact_tail_inv_weight,
    tail_inv_weight,
)
# scalar_det_prefix lives in transfer.  It is imported here as well because
# perfbench/tracer.py wraps solutions.scalar_det_prefix by this name.
from .transfer import (
    LevelTable,
    Levels,
    ModeIndex,
    SingularMatrixError,
    flips_exactly,
    scalar_det_prefix,
    sweep,
    tail_sum_C_minus_I,
)

TAU_FLOOR = 1e-250
# |tau| at most this share of its terms' sizes |K1 I2| + |K2 I1| at k = 0 is cancellation;
# under every BoundaryRule both terms share a sign, and the share is 1
TAU_CANCEL = 1e-8
# |m| values at which BoundaryRule checks its signs and that its ratio decays
M_PROBE = (1, 2, 4, 8, 16, 32, 64)
# terms epsilon sums explicitly before its exact tail
EPS_HEAD = 4096
# the relative margin up to which a lemma clause passes: float ties are not findings
LEMMA_SLACK = 1e-14


class BoundaryRuleError(ValueError):
    """A proposed rule for K at infinity violates a sign condition or does not decay."""


class DegeneratePairingError(ValueError):
    """tau collapsed numerically, by underflow or by cancellation: the boundary rule is (nearly) aligned with I."""


class RangeOverflowError(OverflowError):
    """Forward recursion left the double range; rescale or reduce |m|/K."""


# the per-mode failures a solution build (and the tables built on it) can
# report; cli.cmd_solve adds the oracle's zero pivot (parametrix.SINGULAR).
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


def compute_I(mode: ModeIndex, levels: Levels) -> np.ndarray:
    """Forward table I(0..K), K = levels.k_hi, from the normalization I(0) = (-1, m/a_n(0))."""
    out = sweep(levels.C(mode), -1.0, float(mode.m / levels.table(mode.n).an[0]))
    if not np.all(np.isfinite(out)) or np.max(np.abs(out)) > 1e280:
        raise RangeOverflowError(
            "forward recursion overflow; rescale the data or lower |m| * K "
            "(tau-normalized quantities are scale-free)"
        )
    return out


def compute_K(mode: ModeIndex, levels: Levels, k_inf: tuple[float, float], k_hi: int) -> tuple[np.ndarray, float]:
    """Backward table K(0..k_hi) seeded by K(k_hi) := k_inf, the pair K(inf).

    Returns the table and the tail certificate sum_{k >= k_hi} ||C - I||_1,
    which controls how far the seeded solution can drift from one seeded
    deeper.  Backward recursion keeps the recessive solution stable.  It
    sweeps the first k_hi steps of the mode's C stack, so no longer window moves a bit.
    """
    if k_hi > levels.k_hi:
        raise ValueError(f"seed index {k_hi} beyond the level data's window {levels.k_hi}")
    tail = tail_sum_C_minus_I(mode, levels, k_hi)
    t, c_arr = levels.table(mode.n), levels.C(mode)[:k_hi]
    # explicit 2x2 inverses adj(C)/det C for every step, swept from the seed down
    inv = np.stack((c_arr[:, 1, 1], -c_arr[:, 0, 1], -c_arr[:, 1, 0], c_arr[:, 0, 0]), axis=1)
    inv /= (t.c2[:k_hi] / t.c1[:k_hi])[:, None]
    return sweep(inv[::-1], float(k_inf[0]), float(k_inf[1]))[::-1].copy(), tail


@dataclass(frozen=True)
class KernelSolution:
    """Per-mode I/K tables with pairing, decay quantity and tail certificates, on the level's table."""

    mode: ModeIndex
    I: np.ndarray
    K: np.ndarray
    K_inf: tuple[float, float]
    tau: float
    eps: SeriesValue
    seed_tail_bound: float
    table: LevelTable = field(repr=False)

    @property
    def k_table(self) -> int:
        return self.table.k_hi

    @property
    def ratio_at_infinity(self) -> float:
        return self.K_inf[0] / self.K_inf[1]

    def oriented(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(-I1, I2, K1, K2) in the m > 0 orientation: I2 and K1 times sgn m (+1 at m = 0).

        The first I component is negative for every m != 0, while I2 and K1
        carry the sign of m.  This is the one place the sign of m touches an I
        or K component; a mirrored -m solution gives the same four arrays bit for bit.
        """
        sign = column(np.where(self.mode.m < 0, -1.0, 1.0))
        return -self.I[..., 0], sign * self.I[..., 1], sign * self.K[..., 0], self.K[..., 1]


def pairing(I: np.ndarray, K: np.ndarray) -> np.ndarray:
    """<K(k), I(k)^perp> = K1 I2 - K2 I1 at every k; its k = 0 entry is tau."""
    return K[..., 0] * I[..., 1] - K[..., 1] * I[..., 0]


def epsilon(mode: ModeIndex, levels: Levels) -> SeriesValue:
    """eps(m, n) = sum_k a_{n+1}(k) / (m^2 + a_n(k) a_{n+1}(k)).

    Beyond the explicit head the terms equal 1/a_n(k) minus a positive
    correction of size at most m^2 / (a_n^2 a_{n+1}); the first part is the
    exact tail of s(n) (the one eval_s sums) and the correction bounds the
    certificate, so no deep summation is needed.  All but m is the level's.
    """
    m, n, w = mode.m, mode.n, levels.w
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


def build_solution(mode: ModeIndex, levels: Levels, rule: BoundaryRule = DEFAULT_RULE) -> KernelSolution:
    """Assemble the I/K tables for one mode on its level's table in the command's level data.

    The K seed sits at the table end, so the boundary data holds exactly at
    the truncation edge; ``seed_tail_bound`` certifies the drift from a
    deeper seed.
    """
    k_inf = rule(mode.m)
    I_tab = compute_I(mode, levels)
    K_tab, seed_tail = compute_K(mode, levels, k_inf, levels.k_hi)
    tau = float(pairing(I_tab, K_tab)[0])
    (i1, i2), (k1, k2) = I_tab[0], K_tab[0]
    if abs(tau) < TAU_FLOOR or not np.isfinite(tau) or abs(tau) <= TAU_CANCEL * (abs(k1 * i2) + abs(k2 * i1)):
        raise DegeneratePairingError(
            f"tau={tau:.3g} for mode {mode}: boundary rule aligned with the I direction"
        )
    eps = epsilon(mode, levels)
    return KernelSolution(
        mode=mode,
        I=I_tab,
        K=K_tab,
        K_inf=k_inf,
        tau=tau,
        eps=eps,
        seed_tail_bound=seed_tail,
        table=levels.table(mode.n),
    )


def mirror_solution(sol: KernelSolution, rule: BoundaryRule = DEFAULT_RULE) -> KernelSolution | None:
    """The solution of (-m, n) from that of (m, n), or None where it must be built.

    It is derived where m != 0 and the rule is odd at m, rule(-m) = (-k1, k2)
    for rule(m) = (k1, k2): then I(-m) = I(m) diag(1, -1) and K(-m) = K(m)
    diag(-1, 1) bit for bit, and tau, eps, the seed tail and the level's
    table are shared.  None also where a negated entry could differ from a
    direct build (``transfer.flips_exactly``).
    """
    k1, k2 = sol.K_inf
    k_inf = rule(-sol.mode.m)
    if sol.mode.m == 0 or tuple(k_inf) != (-k1, k2):
        return None
    I_tab = sol.I * (1.0, -1.0)
    K_tab = sol.K * (-1.0, 1.0)
    if not flips_exactly(I_tab[:, 1], K_tab[:, 0]):
        return None
    return replace(sol, mode=ModeIndex(-sol.mode.m, sol.mode.n), I=I_tab, K=K_tab, K_inf=k_inf)


def by_level(
    modes: Iterable[ModeIndex], build: Callable[[ModeIndex], object], mirror: Callable[[object], object | None]
) -> Iterator[tuple[int, dict, dict, dict]]:
    """Each radial level of ``modes`` as ``(n, results, errors, mirrored)``, in the order the modes first reach it.

    ``results`` maps each mode of the level that built to its result, in the
    modes' order, and ``errors`` each mode whose build raised one of
    ``MODE_ERRORS`` to the error's text (not the error, whose traceback would
    hold the build's frames).  The second of a +-m pair is ``mirror`` of the
    first's result, or a build where ``mirror`` gives None or the first build
    failed, so its own error names its own mode.  ``mirrored`` maps each mode
    that ``mirror`` made to the mode it mirrors; every other result was
    built.  ``results`` is emptied when the next level is asked for, so no
    result outlives its level.

    Building both of each pair instead raised the minimum ``grid-k128``
    benchmark pass from 0.140 s to 0.148-0.152 s (2-vCPU shared host).
    """
    modes = list(dict.fromkeys(modes))
    for n in dict.fromkeys(mode.n for mode in modes):
        results, errors, mirrored = {}, {}, {}
        for mode in (mode for mode in modes if mode.n == n):
            partner = ModeIndex(-mode.m, n)
            result = mirror(results[partner]) if partner in results else None
            if result is not None:
                mirrored[mode] = partner
            else:
                try:
                    result = build(mode)
                except MODE_ERRORS as exc:
                    errors[mode] = str(exc)
                    continue
            results[mode] = result
        yield n, results, errors, mirrored
        results.clear()


def stack(sols: list[KernelSolution]) -> KernelSolution:
    """One level's solutions on one window as one: tables (modes, k, ...), per-mode numbers (modes,), the level's table.

    The checks index k as [..., k], so each row gives, bit for bit, what its solution gives alone.
    """

    def per(get) -> np.ndarray:
        return np.array([get(s) for s in sols])

    mode = ModeIndex(per(lambda s: s.mode.m), sols[0].mode.n)
    return KernelSolution(
        mode, per(lambda s: s.I), per(lambda s: s.K), (per(lambda s: s.K_inf[0]), per(lambda s: s.K_inf[1])),
        per(lambda s: s.tau), SeriesValue(per(lambda s: s.eps.value), per(lambda s: s.eps.tail)),
        per(lambda s: s.seed_tail_bound), sols[0].table,
    )


def column(x) -> np.ndarray:
    """A per-mode number with a trailing axis, to scale a (..., k) array row by row."""
    return np.asarray(x, dtype=float)[..., None]


def per_mode(v) -> list:
    """A per-mode value of a stack, or of one solution, as a list of Python numbers."""
    return np.asarray(v).ravel().tolist()


def lone_m_zero(sol: KernelSolution) -> bool:
    """Whether ``sol`` is one m = 0 solution, whose checks are its own; a stack that holds m = 0 is a ValueError."""
    if np.ndim(sol.mode.m) and not np.all(sol.mode.m):
        raise ValueError(f"a stack holds m = 0 at level n={sol.mode.n}; check the m = 0 solution alone")
    return np.ndim(sol.mode.m) == 0 and sol.mode.m == 0


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
    """out[k] = out[k-1] r(k-1) + x(k) from out[-1] = 0: the m = 0 kernel's recurrence, for len(r) >= len(x) - 1.

    It is the sweep of (out[k-1], 1) by the affine steps [[r(k-1), x(k)], [0, 1]], with r(-1) = 1, so
    from two steps after an entry reaches inf the rest read nan (0 * inf in the constant row).
    """
    steps = np.zeros((len(x), 2, 2))
    steps[:, 0, 0] = np.concatenate(([1.0], r[: len(x) - 1]))
    steps[:, 0, 1] = x
    steps[:, 1, 1] = 1.0
    return sweep(steps, 0.0, 1.0)[1:, 0]


def wronskian_residuals(sol: KernelSolution) -> np.ndarray:
    """Relative error of <K(k), I(k)^perp> against tau * prod_{i<k} c2/c1, for each mode of a stack."""
    expected = column(sol.tau) * sol.table.prefix
    return np.abs(pairing(sol.I, sol.K) - expected) / np.abs(expected)


def _margins(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per mode, the worst relative margin of lhs <= rhs (scaled by local magnitude) and its k."""
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    margin = (lhs - rhs) / scale
    return margin.max(axis=-1), margin.argmax(axis=-1)


def verify_lemma_suite(sol: KernelSolution) -> CheckReport | list[CheckReport]:
    """Run every inequality the norm analysis uses, over the whole table.

    Every clause reads ``sol.oriented()``: for m > 0 the inequalities as
    stated, for m < 0 the sign-oriented components (the absolute values only
    where the positive_* clauses pass), which is the m > 0 suite of the
    reflected system, the one whose rule is (-k1, k2) at -m where this rule
    is (k1, k2) at m.  m = 0 reduces to the diagonal pattern checks.  A
    ``stack`` of m != 0 solutions gives the list of their reports; one that
    holds m = 0 is a ValueError.
    """
    mI1, I2, K1, K2 = sol.oriented()

    if lone_m_zero(sol):
        heads = [
            ("diag_pattern_I", [bool(np.all(I2 == 0.0))], ["I2 identically zero"]),
            ("diag_pattern_K", [bool(np.all(K1 == 0.0))], ["K1 identically zero"]),
        ]
        margins = [("K2_nonincreasing", *_margins(K2[1:], K2[:-1]))]
    else:
        am = column(np.abs(sol.mode.m))

        t = sol.table
        c1, an, an1, pref = t.c1, t.an, t.an1, t.prefix
        heads = [
            (f"positive_{name}", per_mode((arr > 0).all(axis=-1)), [f"min={v:.3g}" for v in per_mode(arr.min(axis=-1))])
            for name, arr in (("neg_I1", mI1), ("I2", I2), ("K1", K1), ("K2", K2))
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
        (name, [v <= LEMMA_SLACK for v in wv], [f"worst rel margin {v:.3g} at k={k}" for v, k in zip(wv, kb)])
        for name, wv, kb in ((name, per_mode(wv), per_mode(kb)) for name, wv, kb in margins)
    ]
    return each_mode(sol, lambda mode, j: CheckReport(
        tuple(CheckResult(name, ok[j], wit[j]) for name, ok, wit in heads), mode, worst[j]))
