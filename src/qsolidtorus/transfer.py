"""Per-mode 2x2 transfer matrices and their ordered products.

Each mode (m, n) carries one step matrix A_{m,n}(k+1) and one propagation
matrix C_{m,n}(k); kernel solutions of the mode system evolve by
h(k+1) = C_{m,n}(k) h(k).  Products are ordered right-to-left,
P(k) = C(k-1) ... C(0), and converge because sum_k ||C(k) - I||_1 is finite.
This module evaluates each mode's per-k data once (``mode_table``: the
weights, the gap coefficients, the C stack and the c2/c1 prefix) and builds
from it the partial products, a certified tail bound for the product
remainder, and the structural checks on the limit.

m enters C_{m,n}(k) only as m off the diagonal and m^2 on it, so the tables
of (-m, n) are those of (m, n) with their off-diagonals negated, bit for bit:
float negation is exact and rounding is symmetric.  The exception is a sum
that cancels to zero, which is +0.0 for either sign; ``flips_exactly`` tells
where a negated table is what a direct evaluation would give.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

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
    """A 2x2 inverse was requested below the determinant floor."""


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
class ModeTable:
    """Per-mode data on the window 0 <= k <= k_hi, evaluated once.

    ``an`` and ``an1`` hold a_n(k) and a_{n+1}(k) for k = 0..k_hi; ``c1``,
    ``c2`` and the propagation matrices ``C`` cover k = 0..k_hi-1; ``prefix[k]``
    is prod_{i<k} c_2(i)/c_1(i).  No entry depends on a later index, so a
    shorter window is a slice of a longer one, bit for bit.
    """

    mode: ModeIndex
    k_hi: int
    an: np.ndarray
    an1: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    C: np.ndarray
    prefix: np.ndarray


@functools.lru_cache(maxsize=1)
def mode_table(
    mode: ModeIndex, w: WeightFamily, c: CoefficientFamily, k_hi: int
) -> ModeTable:
    """Evaluate one mode's weights and gaps, then its C stack and c2/c1 prefix.

    These four family calls are the only ones behind the C stack, the prefix
    and every consumer of the table; the rest is built from their arrays.
    The table is a pure function of its frozen arguments and its arrays are
    read-only, so the last result is kept: a solution build and its I and K
    sweeps share one evaluation.
    """
    n = mode.n
    ks = np.arange(k_hi + 1)
    an, an1 = (np.asarray(w.a(i, ks), dtype=float) for i in (n, n + 1))
    c1, c2 = (np.asarray(c.c(i, n, ks[:-1]), dtype=float) for i in (1, 2))
    C = build_C_range(mode.m, an, an1, c1, c2)
    arrays = dict(an=an, an1=an1, c1=c1, c2=c2, C=C, prefix=scalar_det_prefix(c1, c2))
    for arr in arrays.values():
        arr.setflags(write=False)
    return ModeTable(mode=mode, k_hi=k_hi, **arrays)


# negates the off-diagonals of a stack of 2x2 matrices by broadcasting
OFFDIAG_FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def flips_exactly(*parts: np.ndarray) -> bool:
    """Whether negating these entries gives, bit for bit, what the -m evaluation gives.

    True when every entry is nonzero and not NaN: an exact zero may come from
    a cancellation, +0.0 for either sign, and a NaN's sign is the hardware's.
    """
    return all(bool(np.all(np.abs(p) > 0)) for p in parts)


def mirror_table(table: ModeTable) -> ModeTable | None:
    """The table of (-m, n) from that of (m, n), or None where a direct build could differ.

    The weights, gaps and prefix do not depend on m and are shared; the C
    stack has its off-diagonals negated.
    """
    C = table.C * OFFDIAG_FLIP
    if not flips_exactly(C[:, 0, 1], C[:, 1, 0]):
        return None
    C.setflags(write=False)
    return replace(table, mode=ModeIndex(-table.mode.m, table.mode.n), C=C)


def det2(mat: np.ndarray) -> float:
    return float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])


def invert(mat: np.ndarray) -> np.ndarray:
    """Adjugate-over-determinant inverse with an underflow guard."""
    d = det2(mat)
    if abs(d) < DET_FLOOR:
        raise SingularMatrixError(f"determinant {d:.3g} below floor {DET_FLOOR:.3g}")
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]]) / d


def partial_products(c_arr: np.ndarray) -> np.ndarray:
    """P(0)=I and P(k+1) = C(k) P(k) for a stack of C matrices."""
    p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
    flat = [(p00, p01, p10, p11)]
    # plain-float recurrence: a numpy 2x2 product per step costs more than the arithmetic
    for a, b, c, d in c_arr.reshape(-1, 4).tolist():
        p00, p01, p10, p11 = (
            a * p00 + b * p10,
            a * p01 + b * p11,
            c * p00 + d * p10,
            c * p01 + d * p11,
        )
        flat.append((p00, p01, p10, p11))
    return np.array(flat).reshape(len(flat), 2, 2)


def tail_sum_C_minus_I(
    mode: ModeIndex, w: WeightFamily, c: CoefficientFamily, k0: int
) -> float:
    """Rigorous upper bound for sum_{k >= k0} ||C_{m,n}(k) - I||_1."""
    m, n = mode.m, mode.n
    kappa = c.kappa
    t1 = tail_inv_weight(w, n + 1, k0)           # sum 1/a_{n+1}(k)
    t2 = tail_inv_weight(w, n, k0 + 1)           # sum 1/a_n(k+1)
    sup_next = sup_inv_weight(w, n, k0 + 1)      # sup 1/a_n(k+1)
    bound = gap_tail(c, 1, k0, inverse=True) + gap_tail(c, 2, k0)
    bound += abs(m) * kappa * (t1 + t2)
    bound += m * m * kappa * sup_next * t1
    return bound


@dataclass(frozen=True)
class TransferProduct:
    """Partial products of one mode's C matrices on its table.

    ``table`` holds the mode's per-k data up to the truncation K = table.k_hi;
    ``partials[k]`` is P(k) = C(k-1)...C(0) and ``limit`` is P(K).
    """

    table: ModeTable
    partials: np.ndarray

    @property
    def limit(self) -> np.ndarray:
        return self.partials[self.table.k_hi]


def limit_product(
    mode: ModeIndex, w: WeightFamily, c: CoefficientFamily, k_hi: int
) -> TransferProduct:
    """The ordered products P(k) of the mode's table up to P(k_hi).

    Raises SingularMatrixError when det P(k_hi) falls below the floor.
    """
    table = mode_table(mode, w, c, k_hi)
    parts = partial_products(table.C)
    if abs(det2(parts[k_hi])) < DET_FLOOR:
        raise SingularMatrixError("limit product determinant underflowed")
    return TransferProduct(table=table, partials=parts)


def mirror_product(tp: TransferProduct) -> TransferProduct | None:
    """The products of (-m, n) from those of (m, n), or None where a direct build could differ.

    Every P(k) has its off-diagonals negated, except P(0) = I, whose zeros
    are +0.0 for every m.  The determinants are equal, so a product whose
    limit fell below the floor has a partner that falls below it too.
    """
    table = mirror_table(tp.table)
    parts = tp.partials * OFFDIAG_FLIP
    parts[0] = tp.partials[0]
    if table is None or not flips_exactly(parts[1:, 0, 1], parts[1:, 1, 0]):
        return None
    return TransferProduct(table=table, partials=parts)


@dataclass(frozen=True)
class StructureReport(CheckReport):
    mode: ModeIndex
    checks: tuple[CheckResult, ...]


def structure_check(tp: TransferProduct, w: WeightFamily, c: CoefficientFamily) -> StructureReport:
    """Verify the sign/ordering structure of the (truncated) limit product.

    For m != 0 the diagonal entries dominate the bare coefficient products,
    the off-diagonal entries carry sign -sgn(m), and the determinant equals
    the scalar product of c_2/c_1 (J_2/J_1 in the limit, up to the certified
    tail sum_{k >= K} ||C(k) - I||_1 at the table end K); ``c`` also supplies
    the limits J_i.
    """
    mode, K, c1, c2 = tp.table.mode, tp.table.k_hi, tp.table.c1, tp.table.c2
    m, n = mode.m, mode.n
    lim = tp.limit
    prod_inv_c1 = float(np.prod(1.0 / c1))
    prod_c2 = float(np.prod(c2))
    checks = []

    if m == 0:
        off_ok = lim[0, 1] == 0.0 and lim[1, 0] == 0.0
        checks.append(CheckResult("offdiag_zero", off_ok, f"off-diagonals {lim[0,1]}, {lim[1,0]}"))
    else:
        sgn = -1.0 if m > 0 else 1.0
        f0 = lim[0, 0] - prod_inv_c1
        f3 = lim[1, 1] - prod_c2
        checks.append(
            CheckResult(
                "diag_entry_1_dominates",
                f0 >= -STRUCTURE_SLACK * abs(lim[0, 0]),
                f"entry(1,1) - prod 1/c1 = {f0:.6g}",
            )
        )
        checks.append(
            CheckResult(
                "diag_entry_2_dominates",
                f3 >= -STRUCTURE_SLACK * abs(lim[1, 1]),
                f"entry(2,2) - prod c2 = {f3:.6g}",
            )
        )
        sign_ok = (sgn * lim[0, 1] > 0) and (sgn * lim[1, 0] > 0)
        checks.append(
            CheckResult(
                "offdiag_sign_opposite_m",
                sign_ok,
                f"off-diagonals {lim[0,1]:.6g}, {lim[1,0]:.6g} for m={m}",
            )
        )

    det_part = det2(lim)
    det_scalar = float(tp.table.prefix[K])
    # det P = p00 p11 - p01 p10 loses the digits its two products share
    cancel = abs(lim[0, 0] * lim[1, 1]) + abs(lim[0, 1] * lim[1, 0])
    det_ok = abs(det_part - det_scalar) <= (K * 1e-14 + STRUCTURE_SLACK) * cancel
    checks.append(
        CheckResult(
            "det_tracks_scalar_product",
            det_ok,
            f"det P(K)={det_part:.12g} vs prod c2/c1={det_scalar:.12g}",
        )
    )

    tail = tail_sum_C_minus_I(mode, w, c, K)
    j1 = eval_J(c, 1, n)
    j2 = eval_J(c, 2, n)
    det_lim = j2.value / j1.value
    scale = max(abs(det_part), abs(det_scalar))
    lim_ok = abs(det_part - det_lim) <= scale * (tail * 4.0 + j1.tail + j2.tail + STRUCTURE_SLACK)
    checks.append(
        CheckResult(
            "det_limit_matches_J_ratio",
            lim_ok,
            f"det={det_part:.12g} vs J2/J1={det_lim:.12g} (tail {tail:.2g})",
        )
    )
    return StructureReport(mode=mode, checks=tuple(checks))
