"""The per-mode difference operator, its boundary condition and explicit inverse.

One mode (m, n) of the full operator acts on pairs h = (x, y) of weighted
sequences (x at level n, y at level n+1) through

    (A h)(k) = A_{m,n}(k+1) [h(k+1) - C_{m,n}(k) h(k)],   k = 0 .. K-1,

together with the initial regularity datum  a_n(0) y(0) + m x(0) = q0  and the
boundary requirement that h be proportional to the K function at the far end.
The inverse is assembled from the I/K kernel tables by variation of constants;
in expanded form it is a sum of upper-tail (X-type), lower-triangle (Y-type)
and, on the diagonal mode m = 0, cumulative (Z-type) kernel operators.

An independent banded LU solve of the same truncated system (elimination on
the raw equations, not variation of constants) serves as the oracle for every
identity the explicit formulas are supposed to satisfy; it needs O(K) memory
and time, so it runs at any truncation the tables reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .families import CoefficientFamily, WeightFamily
from .solutions import BoundaryData, KernelSolution, suffix_sum
from .transfer import ModeIndex, invert, partial_products


class WeightTagMismatch(ValueError):
    """An operator was fed a sequence living in the wrong weighted space."""


@dataclass(frozen=True)
class WeightedSeq:
    """A finite sequence tagged with the level n whose weights norm it."""

    values: np.ndarray
    level: int

    def norm(self, w: WeightFamily) -> float:
        ks = np.arange(len(self.values))
        a = np.asarray(w.a(self.level, ks), dtype=float)
        return float(np.sqrt(np.sum(self.values**2 / a)))


@dataclass(frozen=True)
class RhsPair:
    """Right-hand side of one mode system.

    r1(k) feeds the first block row (level n+1), r2(k) the second (level n),
    and q0 is the scalar datum of the initial regularity row.
    """

    r1: WeightedSeq
    r2: WeightedSeq
    q0: float

    def norm(self, w: WeightFamily) -> float:
        n = self.r2.level
        return float(
            np.sqrt(
                self.r1.norm(w) ** 2
                + self.r2.norm(w) ** 2
                + self.q0**2 / w.a(n, 0)
            )
        )


@dataclass(frozen=True)
class ParametrixResult:
    """Solution pair plus the boundary bookkeeping of one inverse application."""

    h_g: WeightedSeq
    h_f: WeightedSeq
    beta: float
    boundary_residual: float
    boundary_tol: float
    e1: np.ndarray
    e2: np.ndarray

    def norm(self, w: WeightFamily) -> float:
        return float(np.sqrt(self.h_g.norm(w) ** 2 + self.h_f.norm(w) ** 2))


def zero_rhs(mode: ModeIndex, k_max: int) -> RhsPair:
    return RhsPair(
        r1=WeightedSeq(np.zeros(k_max), mode.n + 1),
        r2=WeightedSeq(np.zeros(k_max), mode.n),
        q0=0.0,
    )


def random_rhs(mode: ModeIndex, k_max: int, rng: np.random.Generator) -> RhsPair:
    return RhsPair(
        r1=WeightedSeq(rng.standard_normal(k_max), mode.n + 1),
        r2=WeightedSeq(rng.standard_normal(k_max), mode.n),
        q0=float(rng.standard_normal()),
    )


def apply_A(
    mode: ModeIndex,
    w: WeightFamily,
    c: CoefficientFamily,
    h_g: WeightedSeq,
    h_f: WeightedSeq,
) -> RhsPair:
    """Apply the mode operator; the returned q0 is the initial regularity datum."""
    m, n = mode.m, mode.n
    if h_g.level != n or h_f.level != n + 1:
        raise WeightTagMismatch(f"expected levels ({n}, {n + 1})")
    x = h_g.values
    y = h_f.values
    K = len(x) - 1
    ks = np.arange(K)
    c1 = np.asarray(c.c(1, n, ks), dtype=float)
    c2 = np.asarray(c.c(2, n, ks), dtype=float)
    an1 = np.asarray(w.a(n + 1, ks), dtype=float)
    an_next = np.asarray(w.a(n, ks + 1), dtype=float)
    # rows of A(k+1) [h(k+1) - C(k) h(k)] written out componentwise
    r1 = m * y[:-1] - an1 * (x[:-1] - c1 * x[1:])
    r2 = an_next * (y[1:] - c2 * y[:-1]) + m * x[1:]
    q0_out = w.a(n, 0) * y[0] + m * x[0]
    return RhsPair(
        r1=WeightedSeq(r1, n + 1),
        r2=WeightedSeq(r2, n),
        q0=float(q0_out),
    )


def _channel_inputs(r: RhsPair, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack the rhs into the i-indexed kernel channels.

    Slot i = 0 is the initial-datum slot: the particular start vector
    (0, q0/a_n(0)) contributes q0 to the second channel and nothing to the
    first; slots i >= 1 carry the block-row data (r1(i-1), r2(i-1)).
    """
    w2 = np.zeros(k_max + 1)
    w1 = np.zeros(k_max + 1)
    n_fill = min(k_max, len(r.r1.values))
    w2[1 : n_fill + 1] = r.r1.values[:n_fill]
    w1[1 : n_fill + 1] = r.r2.values[:n_fill]
    w1[0] = r.q0
    return w2, w1


def _kernels(sol: KernelSolution, k_max: int) -> dict[str, np.ndarray]:
    """Channel kernels of the expanded inverse, i = 0..k_max.

    The second-channel kernels carry a minus sign on the first solution
    component (it comes from pairing against the perp vector); the first
    channel uses the recurrence-reduced form with the shifted index i-1.
    """
    I = sol.I[: k_max + 1]
    Kf = sol.K[: k_max + 1]
    an = sol.table.an[: k_max + 1]
    an1 = sol.table.an1[: k_max + 1]
    R = 1.0 / sol.table.prefix[: k_max + 1]  # prod_{j<i} c1/c2
    phi_K2 = np.zeros(k_max + 1)
    phi_K2[1:] = R[:-1] * Kf[:-1, 1] / an1[:-1]
    phi_K1 = -R * Kf[:, 0] / an
    phi_I2 = np.zeros(k_max + 1)
    phi_I2[1:] = R[:-1] * I[:-1, 1] / an1[:-1]
    phi_I1 = -R * I[:, 0] / an
    return {"K2": phi_K2, "K1": phi_K1, "I2": phi_I2, "I1": phi_I1}


def apply_Q(
    sol: KernelSolution, r: RhsPair, k_max: int | None = None
) -> ParametrixResult:
    """Explicit inverse of one mode system through the I/K kernel tables.

    ``k_max`` truncates the working window (defaults to the full table);
    entries of r beyond it are ignored.  The result satisfies the block rows,
    reproduces q0 exactly, and is proportional to the K table at the edge.
    """
    n = sol.mode.n
    if r.r1.level != n + 1 or r.r2.level != n:
        raise WeightTagMismatch(f"rhs levels must be ({n + 1}, {n})")
    k_max = sol.k_table if k_max is None else k_max
    if k_max > sol.k_table:
        raise ValueError("k_max exceeds the kernel solution table")
    w2, w1 = _channel_inputs(r, k_max)
    ker = _kernels(sol, k_max)
    x_terms = ker["K2"] * w2 + ker["K1"] * w1
    y_terms = ker["I2"] * w2 + ker["I1"] * w1
    e1 = suffix_sum(x_terms) / sol.tau
    e2 = np.cumsum(y_terms) / sol.tau
    I = sol.I[: k_max + 1]
    Kf = sol.K[: k_max + 1]
    h_x = e1 * I[:, 0] + e2 * Kf[:, 0]
    h_y = e1 * I[:, 1] + e2 * Kf[:, 1]

    k1_inf, k2_inf = sol.K_inf
    residual = abs(h_x[-1] * k2_inf - h_y[-1] * k1_inf)
    drift = np.hypot(Kf[-1, 0] - k1_inf, Kf[-1, 1] - k2_inf)
    kn = np.hypot(k1_inf, k2_inf)
    tol = (
        abs(e2[-1]) * drift * kn
        + abs(e1[-1]) * float(np.max(np.abs(I[-1]))) * kn
        + 1e-12 * float(np.hypot(h_x[-1], h_y[-1])) * kn
        + 1e-300
    )
    return ParametrixResult(
        h_g=WeightedSeq(h_x, n),
        h_f=WeightedSeq(h_y, n + 1),
        beta=float(e2[-1]),
        boundary_residual=float(residual),
        boundary_tol=float(tol),
        e1=e1,
        e2=e2,
    )


def apply_XYZ(
    kind: str, alpha: int, beta: int, sol: KernelSolution, r: WeightedSeq
) -> WeightedSeq:
    """The kernel integral operators in their expanded form.

    X sums the upper tail i > k against K-components, Y the lower triangle
    i <= k against I-components, both with the scalar prefix products of
    c1/c2; Z (m = 0 only) is the cumulative c2-product kernel.  Input tags
    must match a_{n-1+beta} for X/Y and a_n for Z.
    """
    n = sol.mode.n
    t = sol.table
    vals = np.asarray(r.values, dtype=float)
    k_max = len(vals) - 1
    if k_max > sol.k_table:
        raise ValueError("input longer than the kernel solution table")
    if kind == "Z":
        if r.level != n:
            raise WeightTagMismatch("Z input must live at level n")
        an, c2 = t.an, t.c2
        out = np.empty(k_max + 1)
        acc = 0.0
        for k in range(k_max + 1):
            if k > 0:
                acc *= c2[k - 1]
            acc += vals[k] / an[k]
            out[k] = acc
        return WeightedSeq(out, n + 1)

    if kind not in ("X", "Y") or alpha not in (1, 2) or beta not in (1, 2):
        raise ValueError("kind must be X/Y/Z with alpha, beta in {1, 2}")
    if r.level != n - 1 + beta:
        raise WeightTagMismatch(f"{kind}^{alpha}{beta} input must live at level {n - 1 + beta}")
    R = 1.0 / t.prefix[: k_max + 1]
    a_in = (t.an if beta == 1 else t.an1)[: k_max + 1]
    H = sol.K if kind == "X" else sol.I
    outer = (sol.I if kind == "X" else sol.K)[: k_max + 1, alpha - 1]
    phi = np.zeros(k_max + 1)
    if beta == 2:
        # kernel H2(i-1)/a_{n+1}(i-1) with prefix prod_{j<=i-2}; empty at i=0
        phi[1:] = R[:-1] * H[:k_max, 1] / a_in[:-1]
    else:
        phi = R * H[: k_max + 1, 0] / a_in
    terms = phi * vals
    inner = suffix_sum(terms) if kind == "X" else np.cumsum(terms)
    return WeightedSeq(outer * inner, n - 1 + alpha)


def apply_Q_direct(
    sol: KernelSolution, r: RhsPair, k_max: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Variation-of-constants form of the inverse (testing path, small k only).

    h(k) = P(k) sum_{i<=k} P(i)^-1 v(i) + alpha I(k) with v(0) the particular
    start vector and alpha fixed by the boundary pairing against K(0)^perp.
    """
    m = sol.mode.m
    t = sol.table
    k_max = sol.k_table if k_max is None else k_max
    parts = partial_products(t.C[:k_max])
    v = np.zeros((k_max + 1, 2))
    v[0] = (0.0, r.q0 / t.an[0])
    a_row1 = t.an1[:k_max] * t.c1[:k_max]
    a_row2 = t.an[1 : k_max + 1]
    n_fill = min(k_max, len(r.r1.values))
    for i in range(1, n_fill + 1):
        rho = np.array([r.r1.values[i - 1], r.r2.values[i - 1]])
        # A(i)^-1 for the lower-triangular step matrix, written out
        x = rho[0] / a_row1[i - 1]
        v[i] = (x, (rho[1] - m * x) / a_row2[i - 1])
    s = np.zeros((k_max + 1, 2))
    acc = np.zeros(2)
    for i in range(k_max + 1):
        acc = acc + invert(parts[i]) @ v[i]
        s[i] = acc
    k0_perp = np.array([sol.K[0, 1], -sol.K[0, 0]])
    alpha = float(acc @ k0_perp) / sol.tau
    h = np.empty((k_max + 1, 2))
    for k in range(k_max + 1):
        h[k] = parts[k] @ s[k] + alpha * sol.I[k]
    return h[:, 0], h[:, 1]


def oracle_matrix(
    sol: KernelSolution, k_max: int | None = None, drop_boundary: bool = False
) -> np.ndarray:
    """Dense matrix of the truncated constrained system.

    Unknowns are ordered [x(0), y(0), x(1), y(1), ...]; rows are the 2*k_max
    block equations A(k+1) h(k+1) - A(k+1) C(k) h(k), the initial regularity
    row, and (unless dropped) the boundary row, which pairs h(k_max) against
    the K table there.  O(k_max^2) memory: it is the dense reference of the
    tests; the oracle solve itself works on the band.
    """
    m = sol.mode.m
    t = sol.table
    k_max = sol.k_table if k_max is None else k_max
    size = 2 * (k_max + 1)
    n_rows = 2 * k_max + 1 + (0 if drop_boundary else 1)
    A = np.zeros((k_max, 2, 2))
    A[:, 0, 0] = t.an1[:k_max] * t.c1[:k_max]
    A[:, 1, 0] = m
    A[:, 1, 1] = t.an[1 : k_max + 1]
    AC = -A @ t.C[:k_max]
    mat = np.zeros((n_rows, size))
    for k in range(k_max):
        mat[2 * k : 2 * k + 2, 2 * (k + 1) : 2 * (k + 1) + 2] = A[k]
        mat[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = AC[k]
    mat[2 * k_max, 0] = float(m)
    mat[2 * k_max, 1] = t.an[0]
    if not drop_boundary:
        mat[2 * k_max + 1, 2 * k_max :] = (sol.K[k_max, 1], -sol.K[k_max, 0])
    return mat


@dataclass(frozen=True)
class OracleSolution:
    h_g: WeightedSeq
    h_f: WeightedSeq


def _oracle_band(sol: KernelSolution, k_max: int) -> np.ndarray:
    """The constrained system of ``oracle_matrix`` in LAPACK band form, kl = 2, ku = 1.

    Same unknowns and entries, with the initial regularity row moved first:
    row 0 is the datum row, rows 2k+1 and 2k+2 the block equations of step k,
    row 2K+1 the boundary row.  Entry (i, j) sits at ``band[3 + i - j, j]``;
    the two leading rows stay zero for the fill-in of the row interchanges.
    """
    m = sol.mode.m
    t = sol.table
    a00 = t.an1[:k_max] * t.c1[:k_max]
    a11 = t.an[1 : k_max + 1]
    c_arr = t.C[:k_max]
    band = np.zeros((6, 2 * (k_max + 1)))
    band[3, 0] = m
    band[2, 1] = t.an[0]
    # block rows A(k+1) h(k+1) - A(k+1) C(k) h(k)
    band[4, 0 : 2 * k_max : 2] = -a00 * c_arr[:, 0, 0]
    band[3, 1 : 2 * k_max : 2] = -a00 * c_arr[:, 0, 1]
    band[2, 2 : 2 * k_max + 1 : 2] = a00
    band[5, 0 : 2 * k_max : 2] = -(m * c_arr[:, 0, 0] + a11 * c_arr[:, 1, 0])
    band[4, 1 : 2 * k_max : 2] = -(m * c_arr[:, 0, 1] + a11 * c_arr[:, 1, 1])
    band[3, 2 : 2 * k_max + 1 : 2] = m
    band[2, 3 : 2 * k_max + 2 : 2] = a11
    band[4, 2 * k_max] = sol.K[k_max, 1]
    band[3, 2 * k_max + 1] = -sol.K[k_max, 0]
    return band


def oracle_solve(
    sol: KernelSolution,
    w: WeightFamily,
    c: CoefficientFamily,
    r: RhsPair,
    k_max: int | None = None,
) -> OracleSolution:
    """Banded LU solve of the truncated constrained system, O(k_max) memory.

    The band comes from the solution's table, and its boundary row pairs
    against the K table at the truncation edge (the rule values when the
    seed sits there).  The band is factored once; the solve is followed by
    one step of iterative refinement against the residual of the raw system
    (``apply_A`` on the families ``w`` and ``c``, plus the boundary row).
    """
    mode = sol.mode
    n = mode.n
    if k_max is None:
        k_max = min(sol.k_table, len(r.r1.values))
    lu, piv, info = dgbtrf(_oracle_band(sol, k_max), 2, 1, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    n_fill = min(k_max, len(r.r1.values))
    rhs = np.zeros(2 * (k_max + 1))
    rhs[0] = r.q0
    rhs[1 : 2 * n_fill : 2] = r.r1.values[:n_fill]
    rhs[2 : 2 * n_fill + 1 : 2] = r.r2.values[:n_fill]
    hvec, _ = dgbtrs(lu, 2, 1, rhs, piv)
    back = apply_A(mode, w, c, WeightedSeq(hvec[0::2], n), WeightedSeq(hvec[1::2], n + 1))
    b1, b2 = sol.K[k_max]
    resid = rhs.copy()
    resid[0] -= back.q0
    resid[1 : 2 * k_max : 2] -= back.r1.values
    resid[2 : 2 * k_max + 1 : 2] -= back.r2.values
    resid[-1] -= b2 * hvec[-2] - b1 * hvec[-1]
    hvec = hvec + dgbtrs(lu, 2, 1, resid, piv)[0]
    return OracleSolution(h_g=WeightedSeq(hvec[0::2], n), h_f=WeightedSeq(hvec[1::2], n + 1))


def boundary_residual(
    h_g: WeightedSeq, h_f: WeightedSeq, bd: BoundaryData
) -> tuple[float, float]:
    """Residual of the edge proportionality to K(inf), plus the projected beta."""
    k1, k2 = bd.K_inf
    x_end = float(h_g.values[-1])
    y_end = float(h_f.values[-1])
    residual = abs(x_end * k2 - y_end * k1)
    beta = (x_end * k1 + y_end * k2) / (k1 * k1 + k2 * k2)
    return residual, beta
