"""Per-mode 2x2 transfer matrices and their ordered products.

Each mode (m, n) carries one step matrix A_{m,n}(k+1) and one propagation
matrix C_{m,n}(k); kernel solutions of the mode system evolve by
h(k+1) = C_{m,n}(k) h(k).  Products are ordered right-to-left,
P(k) = C(k-1) ... C(0), and converge because sum_k ||C(k) - I||_1 is finite.
This module evaluates each mode's per-k data once (``mode_table``: the
weights, the gap coefficients, the C stack and the c2/c1 prefix) and builds
from it the partial products, a certified tail bound for the product
remainder, and the structural checks on the limit.
"""

from __future__ import annotations

import functools
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


class SingularMatrixError(ValueError):
    """A 2x2 inverse was requested below the determinant floor."""


class ConvergenceError(RuntimeError):
    """A product tail bound could not be pushed under tolerance."""


@dataclass(frozen=True)
class ModeIndex:
    """Angular mode m (any integer) and radial level n >= 0."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("radial level n must be >= 0")


def build_A(mode: ModeIndex, k: int, w: WeightFamily, c: CoefficientFamily) -> np.ndarray:
    """Step matrix with rows scaled by a_{n+1}(k) c_1(k) and a_n(k+1)."""
    m, n = mode.m, mode.n
    return np.array(
        [
            [w.a(n + 1, k) * c.c(1, n, k), 0.0],
            [float(m), w.a(n, k + 1)],
        ]
    )


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


def det2(mat: np.ndarray) -> float:
    return float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])


def invert(mat: np.ndarray, floor: float = DET_FLOOR) -> np.ndarray:
    """Adjugate-over-determinant inverse with an underflow guard."""
    d = det2(mat)
    if abs(d) < floor:
        raise SingularMatrixError(f"determinant {d:.3g} below floor {floor:.3g}")
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]]) / d


def mat_abs_norm(mat: np.ndarray) -> float:
    """Entrywise absolute-sum norm, the norm the convergence certificate uses."""
    return float(np.sum(np.abs(mat)))


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
    """Partial products of one mode's C matrices with a convergence certificate.

    ``table`` holds the mode's per-k data up to the truncation K = table.k_hi;
    ``partials[k]`` is P(k) = C(k-1)...C(0); ``limit`` is P(K) and
    ``tail_bound`` bounds sum_{k >= K} ||C(k) - I||_1.
    """

    table: ModeTable
    partials: np.ndarray
    tail_bound: float
    converged: bool

    @property
    def limit(self) -> np.ndarray:
        return self.partials[self.table.k_hi]


def limit_product(
    mode: ModeIndex,
    w: WeightFamily,
    c: CoefficientFamily,
    tol: float = 1e-10,
    k_cap: int = 1 << 17,
    strict: bool = True,
) -> TransferProduct:
    """Grow the ordered product until the tail certificate drops under tol.

    The certificate decays like 1/K for m != 0, so tight tolerances can be
    unreachable; with strict=True that raises ConvergenceError, otherwise the
    product is returned with the achieved tail bound recorded.
    """
    k_hi = 64
    while True:
        tail = tail_sum_C_minus_I(mode, w, c, k_hi)
        if tail < tol or k_hi >= k_cap:
            break
        k_hi = min(2 * k_hi, k_cap)
    converged = tail < tol
    if strict and not converged:
        raise ConvergenceError(
            f"tail bound {tail:.3g} at K={k_hi} above tol {tol:.3g} for mode {mode}"
        )
    table = mode_table(mode, w, c, k_hi)
    parts = partial_products(table.C)
    if abs(det2(parts[k_hi])) < DET_FLOOR:
        raise SingularMatrixError("limit product determinant underflowed")
    return TransferProduct(table=table, partials=parts, tail_bound=tail, converged=converged)


@dataclass(frozen=True)
class StructureReport(CheckReport):
    mode: ModeIndex
    checks: tuple[CheckResult, ...]


def structure_check(
    tp: TransferProduct, c: CoefficientFamily, slack: float = 1e-12
) -> StructureReport:
    """Verify the sign/ordering structure of the (truncated) limit product.

    For m != 0 the diagonal entries dominate the bare coefficient products,
    the off-diagonal entries carry sign -sgn(m), and the determinant equals
    the scalar product of c_2/c_1 (J_2/J_1 in the limit, up to the certified
    tail); ``c`` supplies the limits J_i only.
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
                f0 >= -slack * abs(lim[0, 0]),
                f"entry(1,1) - prod 1/c1 = {f0:.6g}",
            )
        )
        checks.append(
            CheckResult(
                "diag_entry_2_dominates",
                f3 >= -slack * abs(lim[1, 1]),
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

    det_part = det2(tp.partials[K])
    det_scalar = float(tp.table.prefix[K])
    scale = max(abs(det_part), abs(det_scalar))
    det_ok = abs(det_part - det_scalar) <= (K * 1e-14 + slack) * scale
    checks.append(
        CheckResult(
            "det_tracks_scalar_product",
            det_ok,
            f"det P(K)={det_part:.12g} vs prod c2/c1={det_scalar:.12g}",
        )
    )

    j1 = eval_J(c, 1, n)
    j2 = eval_J(c, 2, n)
    det_lim = j2.value / j1.value
    lim_ok = abs(det_part - det_lim) <= scale * (tp.tail_bound * 4.0 + j1.tail + j2.tail + slack)
    checks.append(
        CheckResult(
            "det_limit_matches_J_ratio",
            lim_ok,
            f"det={det_part:.12g} vs J2/J1={det_lim:.12g} (tail {tp.tail_bound:.2g})",
        )
    )
    return StructureReport(mode=mode, checks=tuple(checks))
