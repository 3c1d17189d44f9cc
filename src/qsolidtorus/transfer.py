"""Per-mode 2x2 transfer matrices and their ordered products.

Each mode (m, n) carries one step matrix A_{m,n}(k+1) and one propagation
matrix C_{m,n}(k); kernel solutions of the mode system evolve by
h(k+1) = C_{m,n}(k) h(k).  Products are ordered right-to-left,
P(k) = C(k-1) ... C(0), and converge because sum_k ||C(k) - I||_1 is finite.
Only the C stack depends on m: ``Levels`` evaluates each radial level's table
once per command, shared by every m, and builds a mode's C stack from it
where a sweep needs one.  This module sweeps the partial products by
``sweep``, the one step loop, and gives a certified tail bound for their
remainder and checks on the limit.

m enters C_{m,n}(k) only as m off the diagonal and m^2 on it, so the C stack
of (-m, n) is that of (m, n) with its off-diagonals negated, bit for bit:
float negation is exact and rounding is symmetric.  The exception is a sum
that cancels to zero, which is +0.0 for either sign; ``flips_exactly`` tells
where a negated array is what a direct evaluation would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import (
    CheckReport,
    CheckResult,
    CoefficientFamily,
    WeightFamily,
    eval_J,
    gap_tail,
    sup_inv_weight,
    tail_inv_weight,
)

DET_FLOOR = 1e-300
# relative rounding allowance of the structure checks, on top of K ulps
STRUCTURE_SLACK = 1e-12


class SingularMatrixError(ValueError):
    """A transfer product's determinant, the scalar product of c_2/c_1, fell below the floor."""


@dataclass(frozen=True)
class ModeIndex:
    """Angular mode m (any integer) and radial level n >= 0."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("radial level n must be >= 0")


def build_C_range(
    m: int, an: np.ndarray, an1: np.ndarray, c1: np.ndarray, c2: np.ndarray
) -> np.ndarray:
    """All C_{m,n}(k) for 0 <= k < len(c1) as a stacked (k, 2, 2) array.

    ``an`` holds a_n(0..k_hi) and ``an1`` a_{n+1}(0..k_hi-1) at least;
    det C(k) = c_2(k)/c_1(k).
    """
    k_hi = len(c1)
    an1 = an1[:k_hi]
    an_next = an[1 : k_hi + 1]
    out = np.empty((k_hi, 2, 2))
    out[:, 0, 0] = 1.0 / c1
    out[:, 0, 1] = -m / (an1 * c1)
    out[:, 1, 0] = -m / (an_next * c1)
    out[:, 1, 1] = c2 + m * m / (an_next * an1 * c1)
    return out


def scalar_det_prefix(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Prefix products prod_{i<k} c_2(i)/c_1(i) for k = 0..len(c1)."""
    out = np.empty(len(c1) + 1)
    out[0] = 1.0
    np.cumprod(c2 / c1, out=out[1:])
    return out


@dataclass(frozen=True)
class LevelTable:
    """Level n's data on the window 0 <= k <= k_hi, shared by every mode (m, n).

    ``an`` and ``an1`` hold a_n(k) and a_{n+1}(k) for k = 0..k_hi; ``c1`` and
    ``c2`` cover k = 0..k_hi-1; ``prefix[k]`` is prod_{i<k} c_2(i)/c_1(i).  The
    last three are the same arrays on every level of one ``Levels``.  No
    entry depends on a later index, so a shorter window is a slice of a longer
    one, bit for bit.
    """

    n: int
    k_hi: int
    an: np.ndarray
    an1: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    prefix: np.ndarray


def _read_only(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class Levels:
    """One command's m-free data of its radial levels, each evaluated once: a_{n+1} serves levels n and n + 1.

    The last mode's C stack is kept, so a build and its sweeps share one;
    a command drops its Levels when it returns, so no run serves another.
    """

    def __init__(self, w: WeightFamily, c: CoefficientFamily, k_hi: int) -> None:
        self.w, self.c, self.k_hi, self._memo, self._last_C = w, c, k_hi, {}, (None, None)

    def once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def a(self, n: int, size: int) -> np.ndarray:
        return self.once(("a", n, size), lambda: _read_only(self.w.a(n, np.arange(size))))

    def sup_inv(self, n: int, k0: int) -> float:
        return self.once(("sup", n, k0), lambda: sup_inv_weight(self.w, n, k0))

    def table(self, n: int) -> LevelTable:
        def c_rows() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # c_{i,n}(k) does not depend on n, so c1, c2 and the prefix are
            # evaluated once and every level's table shares them
            c1, c2 = (_read_only(self.c.c(i, n, np.arange(self.k_hi))) for i in (1, 2))
            return c1, c2, _read_only(scalar_det_prefix(c1, c2))

        def build() -> LevelTable:
            an, an1 = self.a(n, self.k_hi + 1), self.a(n + 1, self.k_hi + 1)
            return LevelTable(n, self.k_hi, an, an1, *self.once("c", c_rows))

        return self.once(("table", n), build)

    def C(self, mode: ModeIndex) -> np.ndarray:
        """The mode's propagation matrices C(0..k_hi-1), read-only; consecutive calls for one mode build them once."""
        if self._last_C[0] != mode:
            t = self.table(mode.n)
            self._last_C = (mode, _read_only(build_C_range(mode.m, t.an, t.an1, t.c1, t.c2)))
        return self._last_C[1]


# negates the off-diagonals of a stack of 2x2 matrices by broadcasting
OFFDIAG_FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def flips_exactly(*parts: np.ndarray) -> bool:
    """Whether negating these entries gives, bit for bit, what the -m evaluation gives.

    True when every entry is nonzero and not NaN: an exact zero may come from
    a cancellation, +0.0 for either sign, and a NaN's sign is the hardware's.
    """
    return all(np.abs(p).min(initial=np.inf) > 0 for p in parts)


def sweep(steps: np.ndarray, x: float, y: float) -> np.ndarray:
    """The states h(0..len(steps)) of h(k+1) = steps[k] h(k) from h(0) = (x, y), as a (len + 1, 2) array.

    The package's one step loop.  It runs in plain floats, since a numpy 2x2
    product per step costs more than the arithmetic; a state that overflows is inf, without raising.
    """
    flat = [x, y]
    for a, b, c, d in steps.reshape(-1, 4).tolist():
        x, y = a * x + b * y, c * x + d * y
        flat += (x, y)
    return np.array(flat).reshape(-1, 2)


def partial_products(c_arr: np.ndarray) -> np.ndarray:
    """P(0)=I and P(k+1) = C(k) P(k) for a stack of C matrices: the sweeps of I's two columns."""
    return np.stack((sweep(c_arr, 1.0, 0.0), sweep(c_arr, 0.0, 1.0)), axis=-1)


def tail_sum_C_minus_I(mode: ModeIndex, levels: Levels, k0: int) -> float:
    """Rigorous upper bound for sum_{k >= k0} ||C_{m,n}(k) - I||_1; its m-free terms are the level's."""
    m, n, w, c = mode.m, mode.n, levels.w, levels.c
    # sum 1/a_{n+1}(k), sum 1/a_n(k+1), sup 1/a_n(k+1) and the gap tails
    t1, t2, sup_next, bound = levels.once(("tail", n, k0), lambda: (
        tail_inv_weight(w, n + 1, k0), tail_inv_weight(w, n, k0 + 1), levels.sup_inv(n, k0 + 1),
        gap_tail(c, 1, k0, inverse=True) + gap_tail(c, 2, k0),
    ))
    kappa = c.kappa
    bound += abs(m) * kappa * (t1 + t2)
    bound += m * m * kappa * sup_next * t1
    return bound


@dataclass(frozen=True)
class TransferProduct:
    """One mode's C matrices C(0..K-1), K = levels.k_hi, and their partial products.

    ``partials[k]`` is P(k) = C(k-1)...C(0) and ``limit`` is P(K).
    """

    mode: ModeIndex
    C: np.ndarray
    partials: np.ndarray

    @property
    def limit(self) -> np.ndarray:
        return self.partials[-1]


def limit_product(mode: ModeIndex, levels: Levels) -> TransferProduct:
    """The ordered products P(k) of the mode's C stack up to P(K), K = levels.k_hi.

    Raises SingularMatrixError when det P(K) falls below the floor.
    """
    # det P(K) is the scalar product prod c2/c1, so it is read there and not
    # from p00 p11 - p01 p10, which cancels to 0 where the entries are large
    if abs(levels.table(mode.n).prefix[-1]) < DET_FLOOR:
        raise SingularMatrixError("limit product determinant underflowed")
    C = levels.C(mode)
    return TransferProduct(mode, C, partial_products(C))


def mirror_product(tp: TransferProduct) -> TransferProduct | None:
    """The products of (-m, n) from those of (m, n), or None where a direct build could differ.

    C and every P(k) have their off-diagonals negated, except P(0) = I, whose
    zeros are +0.0 for every m.  The determinants are equal, so a product
    whose limit fell below the floor has a partner that falls below it too.
    """
    C = tp.C * OFFDIAG_FLIP
    parts = tp.partials * OFFDIAG_FLIP
    parts[0] = tp.partials[0]
    if not flips_exactly(C[:, 0, 1], C[:, 1, 0], parts[1:, 0, 1], parts[1:, 1, 0]):
        return None
    C.setflags(write=False)
    return TransferProduct(ModeIndex(-tp.mode.m, tp.mode.n), C, parts)


def structure_check(tp: TransferProduct, levels: Levels) -> CheckReport:
    """Verify the sign/ordering structure of the (truncated) limit product P(K).

    For m != 0 the diagonal entries dominate the bare coefficient products and
    the off-diagonal entries carry sign -sgn(m); for m = 0 they are zero.  det
    P(K) = p00 p11 - p01 p10 tracks the scalar product of c_2/c_1 up to the
    rounding of that cancellation, computed on P(K) / 2^e, exact, so no finite
    P(K) overflows.  The scalar product matches J_2/J_1 up to the certified
    tail sum_{k >= K} ||C(k) - I||_1; J_1 and J_2 are read once per
    ``levels``, the tail terms once per level.  Together the two determinant
    clauses bound det P(K) - J_2/J_1.
    """
    mode, t = tp.mode, levels.table(tp.mode.n)
    m, n, K, c1, c2 = mode.m, mode.n, t.k_hi, t.c1, t.c2
    # first, so a family without a tail certificate raises before prod 1/c1 can overflow
    tail = tail_sum_C_minus_I(mode, levels, K)
    # J_i(n) reads only c_{i,n}(k), which does not depend on n, so one pair serves every level
    j1, j2 = levels.once("J", lambda: (eval_J(levels.c, 1, n), eval_J(levels.c, 2, n)))
    # Python floats, so an inf entry fails its clauses without a numpy warning
    p00, p01, p10, p11 = tp.limit.ravel().tolist()
    checks = []

    if m == 0:
        checks.append(CheckResult("offdiag_zero", p01 == 0.0 and p10 == 0.0, f"off-diagonals {p01}, {p10}"))
    else:
        f0, f3 = p00 - float(np.prod(1.0 / c1)), p11 - float(np.prod(c2))
        sgn = -1.0 if m > 0 else 1.0
        checks += [
            CheckResult("diag_entry_1_dominates", f0 >= -STRUCTURE_SLACK * abs(p00),
                        f"entry(1,1) - prod 1/c1 = {f0:.6g}"),
            CheckResult("diag_entry_2_dominates", f3 >= -STRUCTURE_SLACK * abs(p11),
                        f"entry(2,2) - prod c2 = {f3:.6g}"),
            CheckResult("offdiag_sign_opposite_m", sgn * p01 > 0 and sgn * p10 > 0,
                        f"off-diagonals {p01:.6g}, {p10:.6g} for m={m}"),
        ]

    det_scalar = float(t.prefix[K])
    # P(K) / 2^e, exact, has its entries below 1, so no product of two overflows
    e = max(math.frexp(max(abs(p00), abs(p01), abs(p10), abs(p11)))[1], 0)
    s00, s01, s10, s11 = (math.ldexp(p, -e) for p in (p00, p01, p10, p11))
    err = abs(s00 * s11 - s01 * s10 - math.ldexp(det_scalar, -2 * e))
    # det P = p00 p11 - p01 p10 loses the digits its two products share
    allowance = (K * 1e-14 + STRUCTURE_SLACK) * (abs(s00 * s11) + abs(s01 * s10))
    checks.append(CheckResult(
        "det_tracks_scalar_product", err <= allowance,
        f"|det P(K) - prod c2/c1| = {err:.3g} vs {allowance:.3g}, both over 4^{e}; prod c2/c1={det_scalar:.12g}",
    ))

    det_lim = j2.value / j1.value
    lim_ok = abs(det_scalar - det_lim) <= abs(det_scalar) * (tail * 4.0 + j1.tail + j2.tail + STRUCTURE_SLACK)
    checks.append(CheckResult(
        "det_limit_matches_J_ratio", lim_ok, f"prod c2/c1={det_scalar:.12g} vs J2/J1={det_lim:.12g} (tail {tail:.2g})",
    ))
    return CheckReport(tuple(checks), mode)
