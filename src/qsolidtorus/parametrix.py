"""The per-mode difference operator, its boundary condition and explicit inverse.

One mode (m, n) of the full operator acts on pairs h = (x, y) of weighted
sequences (x at level n, y at level n+1) through

    (A h)(k) = A_{m,n}(k+1) [h(k+1) - C_{m,n}(k) h(k)],   k = 0 .. K-1,

together with the initial regularity datum  a_n(0) y(0) + m x(0) = q0  and the
boundary requirement that h be proportional to the K function at the far end.
The inverse is assembled from the I/K kernel tables by variation of constants;
in expanded form it is a sum of upper-tail (X-type) and lower-triangle (Y-type)
kernel operators, of which only X^{12} and Y^{21} remain at m = 0.

An independent solve of the same truncated system (an orthogonal elimination
of the raw difference equations that ``apply_A`` applies, not variation of
constants) serves as the oracle for every identity the explicit formulas are
supposed to satisfy; it needs O(K) memory and time, so it runs at any
truncation the tables reach.  The operator, the inverse, the norms and the
oracle take one solution or a ``solutions.stack`` of one level's modes.  The
inverse and the oracle work on the solution's whole table, K = ``k_table``:
the rhs holds one value per block row, and any other length is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solutions import KernelSolution, column, per_mode, suffix_sum
from .transfer import LevelTable, ModeIndex


class WeightTagMismatch(ValueError):
    """An operator was fed a sequence living in the wrong weighted space."""


@dataclass(frozen=True)
class WeightedSeq:
    """A finite sequence tagged with the level n whose weights norm it."""

    values: np.ndarray
    level: int

    def norm(self, t: LevelTable) -> np.ndarray:
        """The weighted l2 norm by the table's a_n (level n) or a_{n+1} (level n+1), per mode."""
        n = t.n
        if self.level not in (n, n + 1):
            raise WeightTagMismatch(f"level {self.level} is neither {n} nor {n + 1}")
        a = t.an if self.level == n else t.an1
        return np.sqrt((self.values**2 / a[: self.values.shape[-1]]).sum(axis=-1))


@dataclass(frozen=True)
class RhsPair:
    """Right-hand side of one mode system.

    r1(k) feeds the first block row (level n+1), r2(k) the second (level n),
    and q0 is the scalar datum of the initial regularity row.
    """

    r1: WeightedSeq
    r2: WeightedSeq
    q0: float

    def norm(self, t: LevelTable) -> np.ndarray:
        return _root_sum_squares(self.r1.norm(t), self.r2.norm(t), self.q0, t.an[0])


@dataclass(frozen=True)
class ParametrixResult:
    """Solution pair plus the boundary bookkeeping of one inverse application."""

    h_g: WeightedSeq
    h_f: WeightedSeq
    beta: float
    boundary_residual: float
    boundary_tol: float

    def norm(self, t: LevelTable) -> np.ndarray:
        return _root_sum_squares(self.h_g.norm(t), self.h_f.norm(t))


def _root_sum_squares(x, y, q0=0.0, a0=1.0) -> np.ndarray:
    """sqrt(x^2 + y^2 + q0^2/a0) per mode, squared as Python floats (libm's pow, not always x * x)."""
    q0 = per_mode(np.broadcast_to(q0, np.shape(x)))
    out = [np.sqrt(a**2 + b**2 + q**2 / a0) for a, b, q in zip(per_mode(x), per_mode(y), q0)]
    return np.reshape(out, np.shape(x))[()]


def random_rhs(mode: ModeIndex, k_max: int, rng: np.random.Generator) -> RhsPair:
    return RhsPair(
        r1=WeightedSeq(rng.standard_normal(k_max), mode.n + 1),
        r2=WeightedSeq(rng.standard_normal(k_max), mode.n),
        q0=float(rng.standard_normal()),
    )


def apply_A(sol: KernelSolution, h_g: WeightedSeq, h_f: WeightedSeq) -> RhsPair:
    """Apply the operator of mode ``sol.mode`` (of each of a stack); the returned q0 is the initial regularity datum.

    The rows are the raw difference equations on the level table's weights
    and gaps and m, so a right-inverse residual checks variation of
    constants against the operator itself.
    """
    t, m, n = sol.table, sol.mode.m, sol.mode.n
    if h_g.level != n or h_f.level != n + 1:
        raise WeightTagMismatch(f"expected levels ({n}, {n + 1})")
    x = h_g.values
    y = h_f.values
    K = x.shape[-1] - 1
    # rows of A(k+1) [h(k+1) - C(k) h(k)] written out componentwise
    r1 = column(m) * y[..., :-1] - t.an1[:K] * (x[..., :-1] - t.c1[:K] * x[..., 1:])
    r2 = t.an[1 : K + 1] * (y[..., 1:] - t.c2[:K] * y[..., :-1]) + column(m) * x[..., 1:]
    q0_out = t.an[0] * y[..., 0] + m * x[..., 0]
    return RhsPair(
        r1=WeightedSeq(r1, n + 1),
        r2=WeightedSeq(r2, n),
        q0=q0_out,
    )


def _check_rhs(sol: KernelSolution, r: RhsPair) -> None:
    """The rhs lives at levels (n+1, n) and holds one value per block row k < K = ``k_table``."""
    n, k_max = sol.mode.n, sol.k_table
    if r.r1.level != n + 1 or r.r2.level != n:
        raise WeightTagMismatch(f"rhs levels must be ({n + 1}, {n})")
    for name, seq in (("r1", r.r1), ("r2", r.r2)):
        if seq.values.shape[-1] != k_max:
            raise ValueError(f"{name} has {seq.values.shape[-1]} values; the table's window needs K = {k_max}")


def _channel_inputs(r: RhsPair) -> tuple[np.ndarray, np.ndarray]:
    """Pack the rhs into the i-indexed kernel channels.

    Slot i = 0 is the initial-datum slot: the particular start vector
    (0, q0/a_n(0)) contributes q0 to the second channel and nothing to the
    first; slots i >= 1 carry the block-row data (r1(i-1), r2(i-1)).
    """
    w2, w1 = np.zeros((2, *r.r1.values.shape[:-1], r.r1.values.shape[-1] + 1))
    w2[..., 1:] = r.r1.values
    w1[..., 1:] = r.r2.values
    w1[..., 0] = r.q0
    return w2, w1


def _phi(sol: KernelSolution, H: np.ndarray, beta: int) -> np.ndarray:
    """The channel kernel R(i) H_beta(i) / a_{n-1+beta}(i) of table ``H``, i = 0..K.

    R = prod_{j<i} c1/c2.  The beta = 2 kernel is shifted one slot: its
    entry i is H2(i-1)/a_{n+1}(i-1) with prefix prod_{j<=i-2}, empty at i = 0.
    """
    R = 1.0 / sol.table.prefix
    if beta == 1:
        return R * H[..., 0] / sol.table.an
    phi = np.zeros(H.shape[:-1])
    phi[..., 1:] = R[:-1] * H[..., :-1, 1] / sol.table.an1[:-1]
    return phi


def apply_Q(sol: KernelSolution, r: RhsPair) -> ParametrixResult:
    """Explicit inverse of one mode system through the I/K kernel tables.

    The window is the table's, K = ``k_table``: r1 and r2 hold K values each,
    and any other length is a ValueError.  The result satisfies the block
    rows, reproduces q0 exactly, and is proportional to the K table at the
    edge: the boundary residual pairs h(K) with K(K), the boundary row of
    ``oracle_solve``.
    """
    n = sol.mode.n
    _check_rhs(sol, r)
    w2, w1 = _channel_inputs(r)
    # the second channel pairs against the perp vector, hence its minus sign
    x_terms = _phi(sol, sol.K, 2) * w2 - _phi(sol, sol.K, 1) * w1
    y_terms = _phi(sol, sol.I, 2) * w2 - _phi(sol, sol.I, 1) * w1
    e1 = suffix_sum(x_terms) / column(sol.tau)
    e2 = y_terms.cumsum(axis=-1) / column(sol.tau)
    h_x = e1 * sol.I[..., 0] + e2 * sol.K[..., 0]
    h_y = e1 * sol.I[..., 1] + e2 * sol.K[..., 1]

    # e1(K) is the suffix sum's last entry, 0, so h(K) = e2(K) K(K)
    k1, k2 = sol.K[..., -1, 0], sol.K[..., -1, 1]
    residual = abs(h_x[..., -1] * k2 - h_y[..., -1] * k1)
    tol = 1e-12 * np.hypot(h_x[..., -1], h_y[..., -1]) * np.hypot(k1, k2) + 1e-300
    return ParametrixResult(
        h_g=WeightedSeq(h_x, n),
        h_f=WeightedSeq(h_y, n + 1),
        beta=e2[..., -1],
        boundary_residual=residual,
        boundary_tol=tol,
    )


def oracle_matrix(sol: KernelSolution, *, drop_boundary: bool = False) -> np.ndarray:
    """Dense matrix of the truncated constrained system of one solution, K = ``k_table``.

    Unknowns are ordered [x(0), y(0), x(1), y(1), ...]; rows are the 2K raw
    difference equations that ``apply_A`` applies, the initial regularity
    row, and (unless dropped) the boundary row, which pairs h(K) against the
    K table there: the rows ``oracle_solve`` reduces, scattered entry by
    entry.  O(K^2) memory: it is the dense reference of the tests.
    """
    k_max = sol.k_table
    size = 2 * (k_max + 1)
    rows = _block_rows(sol)[:, :, 0]
    mat = np.zeros((2 * k_max + 1 + (0 if drop_boundary else 1), size))
    k = np.arange(k_max)
    for c, i in np.ndindex(4, 2):
        mat[2 * k + i, 2 * k + c] = rows[c, i]
    for row, end in zip(range(2 * k_max, len(mat)), _end_rows(sol)):
        mat[row, [0, 1, size - 2, size - 1]] = end[:, 0]
    return mat


# the error text of a mode whose oracle reduction meets a zero pivot
SINGULAR = "singular matrix"


@dataclass(frozen=True)
class OracleSolution:
    """The oracle's solution pair, and per mode whether its reduction met a zero pivot (its pair is then NaN)."""

    h_g: WeightedSeq
    h_f: WeightedSeq
    singular: np.ndarray


def _block_rows(sol: KernelSolution) -> np.ndarray:
    """The block rows L_k h(k) + R_k h(k+1) = r(k), k < K, of each mode, as (4, 2, modes, k).

    Entry [c, i, j, k] is row i, column c of [L_k | R_k] of mode j.  They are
    the raw difference equations that ``apply_A`` applies, read from the
    level's weights and gaps and m:  L_k = [[-a_{n+1}(k), m], [0, -a_n(k+1) c_2(k)]]
    and R_k = A(k+1) = [[a_{n+1}(k) c_1(k), 0], [m, a_n(k+1)]].
    """
    t = sol.table
    m = np.atleast_1d(np.asarray(sol.mode.m, dtype=float))[:, None]
    an1, an_next = t.an1[:-1], t.an[1:]
    rows = np.zeros((4, 2, len(m), t.k_hi))
    rows[0, 0] = -an1
    rows[1, 0] = m
    rows[1, 1] = -an_next * t.c2
    rows[2, 0] = an1 * t.c1
    rows[2, 1] = m
    rows[3, 1] = an_next
    return rows


def _end_rows(sol: KernelSolution) -> tuple[np.ndarray, np.ndarray]:
    """The datum row (m, a_n(0)) . h(0) and the boundary row (K2(K), -K1(K)) . h(K), K = ``k_table``, of each mode.

    Each is (4, modes), its entries the coefficients of (x(0), y(0), x(K), y(K)).
    """
    m = np.atleast_1d(np.asarray(sol.mode.m, dtype=float))
    k1, k2 = np.atleast_2d(sol.K[..., -1, :]).T
    zero = np.zeros_like(m)
    return np.stack((m, np.full_like(m, sol.table.an[0]), zero, zero)), np.stack((zero, zero, k2, -k1))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum over the leading axis (length 4) of a * b, term by term, so a mode's sum never depends on its stack."""
    t = a * b
    return t[0] + t[1] + t[2] + t[3]


def _reflect(W: np.ndarray, col: int, row: int) -> tuple[np.ndarray, np.ndarray]:
    """Reflect the 4 rows of each stacked block W (columns, rows, ...) so that column ``col`` is zero below ``row``.

    Returns the reflection's vector v (4, ...), zero above ``row`` and scaled
    so that the reflection is I - v v^T, and where the column was zero: there
    v = 0 and the pivot W[col, row] becomes NaN.
    """
    v = W[col].copy()
    if row:
        v[:row] = 0.0
    norm = np.sqrt(_dot(v, v))
    lead = np.abs(v[row])
    v[row] += np.copysign(norm, v[row])
    half_sq = norm * (norm + lead)  # |v|^2 / 2
    v *= np.sqrt(np.divide(1.0, half_sq, out=np.zeros(half_sq.shape), where=half_sq > 0))
    W -= _dot(v[:, None], W.swapaxes(0, 1))[:, None] * v
    zero = norm == 0
    W[col, row][zero] = np.nan
    return v, zero


def _upper(T: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The solution y of T y = z for each stacked upper triangle T (columns, rows, ...) of order 2."""
    y = np.empty(z.shape)
    y[1] = z[1] / T[1, 1]
    y[0] = (z[0] - T[1, 0] * y[1]) / T[0, 0]
    return y


def _times(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A u for each stacked 2x2 block A (columns, rows, ...)."""
    return A[0] * u[0] + A[1] * u[1]


@dataclass(frozen=True)
class _Reduction:
    """Orthogonal cyclic reduction of the block rows, with the datum and boundary rows added at the end.

    Each level pairs block rows (2i, 2i+1), which share the unknown u(2i+1):
    two reflections zero its 4x2 column block, the bottom two rows become the
    coarse block row linking u(2i) and u(2i+2), and the top two rows (a
    triangle on u(2i+1) and its couplings) are kept for back-substitution.
    An odd last row carries over.  The last row links h(0) and h(K); with the
    datum and boundary rows it is one 4x4 system per mode, reduced to two
    triangles by four reflections.  Arrays lead with their block axes and end
    with (modes, pairs); every step works on each mode's own entries, so a
    mode's pivots and solution never depend on its stack.
    """

    levels: list  # per level: the two reflections (4, modes, pairs) and the top rows (6, 2, modes, pairs)
    final: tuple  # the four reflections (4, modes) and the reduced 4x4 (4, 4, modes)
    singular: np.ndarray

    @classmethod
    def factor(cls, rows: np.ndarray, datum: np.ndarray, boundary: np.ndarray) -> "_Reduction":
        levels, singular = [], np.zeros(rows.shape[2], dtype=bool)
        while rows.shape[-1] > 1:
            pairs = rows.shape[-1] // 2
            # columns u(2i) (0, 1), u(2i+1) (2, 3), u(2i+2) (4, 5); rows of block 2i (0, 1) and 2i+1 (2, 3)
            W = np.zeros((6, 4, *rows.shape[2:-1], pairs))
            W[:4, :2] = rows[..., 0 : 2 * pairs : 2]
            W[2:, 2:] = rows[..., 1 : 2 * pairs : 2]
            (v1, z1), (v2, z2) = _reflect(W, 2, 0), _reflect(W, 3, 1)
            singular |= (z1 | z2).any(axis=-1)
            levels.append(((v1, v2), W[:, :2].copy()))
            rows = np.concatenate((W[[0, 1, 4, 5], 2:], rows[..., 2 * pairs :]), axis=-1)
        W = np.concatenate((datum[:, None], rows[..., 0], boundary[:, None]), axis=1)
        reflections = []
        for j in range(4):
            v, zero = _reflect(W, j, j)
            reflections.append(v)
            singular |= zero
        return cls(levels, (reflections, W), singular)

    def solve(self, data: np.ndarray, q0: np.ndarray, bnd: np.ndarray) -> np.ndarray:
        """h (2, modes, K+1) for block-row data (2, modes, K), datum q0 and boundary value (modes,)."""
        kept = []
        for (v1, v2), top in self.levels:
            pairs = top.shape[-1]
            S = np.concatenate((data[..., 0 : 2 * pairs : 2], data[..., 1 : 2 * pairs : 2]))
            for v in (v1, v2):
                S = S - _dot(v, S) * v
            kept.append(S[:2])
            data = np.concatenate((S[2:], data[..., 2 * pairs :]), axis=-1)
        reflections, W = self.final
        z = np.concatenate((q0[None], data[..., 0], bnd[None]))
        for v in reflections:
            z = z - _dot(v, z) * v
        h_end = _upper(W[2:, 2:], z[2:])
        h = np.stack((_upper(W[:2, :2], z[:2] - _times(W[2:, :2], h_end)), h_end), axis=-1)
        for (_, top), s_top in zip(reversed(self.levels), reversed(kept)):
            pairs = top.shape[-1]
            mid = _upper(top[2:4], s_top - _times(top[:2], h[..., :pairs]) - _times(top[4:], h[..., 1 : pairs + 1]))
            fine = np.empty((*h.shape[:-1], h.shape[-1] + pairs))
            fine[..., 0 : 2 * pairs + 1 : 2] = h[..., : pairs + 1]
            fine[..., 1 : 2 * pairs : 2] = mid
            fine[..., 2 * pairs + 1 :] = h[..., pairs + 1 :]
            h = fine
        return h


def oracle_solve(sol: KernelSolution, r: RhsPair) -> OracleSolution:
    """Orthogonal cyclic reduction of the truncated constrained system, O(K) memory.

    ``sol`` is one solution, or a ``solutions.stack`` of one level's modes
    with ``r`` stacked along a leading mode axis, as in ``apply_Q``; each mode
    of a stack gets, bit for bit, what it gets alone.  The window is the
    table's, K = ``k_table``: r1 and r2 hold K values each, and any other
    length is a ValueError, as in ``apply_Q``.  The rows, which ``oracle_matrix``
    scatters into a dense matrix, are the raw difference equations that
    ``apply_A`` applies (``_block_rows``), and (``_end_rows``) the datum row
    (m, a_n(0)) . h(0) = q0 and the boundary row (K2(K), -K1(K)) . h(K) = 0,
    which pairs against the K table at the truncation edge (the rule values
    when the seed sits there).  The reduction is factored once; the solve is
    followed by one step of iterative refinement against the residual of the
    same system (``apply_A``, plus the boundary row).  This is
    the structured QR of S. J. Wright, SIAM J. Sci. Stat. Comput. 13 (1992).
    """
    n, k_max = sol.mode.n, sol.k_table
    _check_rhs(sol, r)
    datum, boundary = _end_rows(sol)
    red = _Reduction.factor(_block_rows(sol), datum, boundary)
    data = np.array((np.atleast_2d(r.r1.values), np.atleast_2d(r.r2.values)), dtype=float)
    q0 = np.full_like(datum[0], r.q0)
    h = red.solve(data, q0, np.zeros_like(q0))
    back = apply_A(sol, WeightedSeq(h[0], n), WeightedSeq(h[1], n + 1))
    resid = data - np.stack((back.r1.values, back.r2.values))
    h = h + red.solve(resid, q0 - back.q0, -(boundary[2] * h[0, :, -1] + boundary[3] * h[1, :, -1]))
    # one solution gives unstacked shapes: (K+1,) pairs and a scalar flag
    shape = np.shape(sol.mode.m)
    h = h.reshape(2, *shape, k_max + 1)
    return OracleSolution(WeightedSeq(h[0], n), WeightedSeq(h[1], n + 1), red.singular.reshape(shape)[()])
