"""Truncated algebra representation of the quantum solid torus and its sanity checks.

The truncated algebra representation realizes the generating isometry U and
unitary V on basis vectors e_{k,l} (0 <= k <= k_cut, |l| <= l_cut) and checks
the commutation relation, diagonal-function commutation, partial Fourier
coefficient extraction, and the trace functional inequality at finite size.
Every monomial V^m U^n or V^m (U*)^n is a weighted index shift, one entry per
column, so polynomials are assembled and their coefficients read off by index
arithmetic; the dense U and V are kept for the relation checks.

The operator itself acts mode by mode (the parametrix module); its inverse is
the direct sum of the per-mode inverses, which the solve command applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import CheckReport, CheckResult

Mode = tuple[int, int]


def _phase_power(base: np.ndarray, n: int) -> np.ndarray:
    """Elementwise base**n as the left-to-right product ((base * base) * base)...

    Spelled out in real arithmetic so every product rounds like the complex
    products of the dense generators; numpy's complex array multiply may fuse
    multiply-adds and differ from them in the last bit.
    """
    re, im = np.ones(base.shape), np.zeros(base.shape)
    for _ in range(n):
        re, im = re * base.real - im * base.imag, re * base.imag + im * base.real
    out = np.empty(base.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


@dataclass
class TruncatedAlgebraRep:
    """Finite matrices for the generators on e_{k,l}, 0<=k<=k_cut, |l|<=l_cut.

    theta is the deformation parameter as a fraction of a full turn; U shifts
    k upward with the phase exp(-2 pi i l theta), V shifts l upward, and the
    two label operators are diagonal.  Monomials in U, U* and V are weighted
    index shifts (see ``monomial``); the dense U and V are kept for the
    relation checks.
    """

    theta: float
    k_cut: int
    l_cut: int

    def __post_init__(self) -> None:
        l_dim = 2 * self.l_cut + 1
        self.dim = (self.k_cut + 1) * l_dim
        self.Kdiag, l = np.divmod(np.arange(self.dim), l_dim)
        self.Ldiag = l - self.l_cut
        # phases built from the single-step phasor keep the commutation
        # identity at the few-ulp level for irrational theta
        step = np.exp(-2j * np.pi * self.theta)
        phases = {0: 1.0 + 0.0j}
        for l in range(1, self.l_cut + 1):
            phases[l] = phases[l - 1] * step
            phases[-l] = phases[-(l - 1)] * np.conj(step)
        self.phases = np.array([phases[l] for l in range(-self.l_cut, self.l_cut + 1)])
        self.U = np.zeros((self.dim, self.dim), dtype=complex)
        self.V = np.zeros((self.dim, self.dim), dtype=complex)
        for op, (m, n) in ((self.U, (0, 1)), (self.V, (1, 0))):
            rows, cols, weights = self.monomial(m, n)
            op[rows, cols] = weights

    def idx(self, k: int, l: int) -> int:
        if not (0 <= k <= self.k_cut and abs(l) <= self.l_cut):
            raise ValueError(f"(k, l) = ({k}, {l}) outside 0<=k<={self.k_cut}, |l|<={self.l_cut}")
        return k * (2 * self.l_cut + 1) + (l + self.l_cut)

    def monomial(self, m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero entries (rows, cols, weights) of V^m U^n, or V^m (U*)^-n for n < 0.

        Column e_{k,l} goes to e_{k+n,l+m} with weight phase(l)**n (its
        conjugate when lowering); columns whose target leaves the cutoffs are
        dropped, as the truncated shifts annihilate them.
        """
        k, l = self.Kdiag + n, self.Ldiag + m
        cols = np.flatnonzero((0 <= k) & (k <= self.k_cut) & (np.abs(l) <= self.l_cut))
        base = self.phases[self.Ldiag[cols] + self.l_cut]
        weights = _phase_power(base if n >= 0 else base.conj(), abs(n))
        return cols + n * (2 * self.l_cut + 1) + m, cols, weights


def _per_k(coeff: np.ndarray, k: np.ndarray) -> np.ndarray:
    """coeff[k], continued by its last value beyond its length."""
    return coeff[np.minimum(k, len(coeff) - 1)]


def assemble_polynomial(
    rep: TruncatedAlgebraRep,
    plus: dict[Mode, np.ndarray],
    minus: dict[Mode, np.ndarray],
) -> np.ndarray:
    """Element with prescribed partial Fourier coefficients.

    plus[(m, n)] are the coefficients of V^m U^n f(K); minus[(m, n)] those of
    f(K) V^m (U^*)^n (n >= 1).  Coefficient arrays are per-k diagonals, so a
    raising term scales the columns of its monomial and a lowering term its
    rows.
    """
    a = np.zeros((rep.dim, rep.dim), dtype=complex)
    for (m, n), coeff in plus.items():
        rows, cols, weights = rep.monomial(m, n)
        a[rows, cols] += weights * _per_k(coeff, rep.Kdiag[cols])
    for (m, n), coeff in minus.items():
        if n < 1:
            raise ValueError("lowering terms need n >= 1")
        rows, cols, weights = rep.monomial(m, -n)
        a[rows, cols] += weights * _per_k(coeff, rep.Kdiag[rows])
    return a


def extract_plus(rep: TruncatedAlgebraRep, a: np.ndarray, m: int, n: int, k: int) -> complex:
    """f+_{m,n}(k) = <e_{k,0}, (U*)^n V^-m a e_{k,0}>; U^n carries phase(0) = 1 there."""
    if k + n > rep.k_cut or abs(m) > rep.l_cut:
        return 0j
    return complex(a[rep.idx(k + n, m), rep.idx(k, 0)])


def extract_minus(rep: TruncatedAlgebraRep, a: np.ndarray, m: int, n: int, k: int) -> complex:
    """f-_{m,n}(k) = <e_{k,0}, a U^n V^-m e_{k,0}> = a[e_{k,0}, e_{k+n,-m}] phase(-m)**n."""
    if k + n > rep.k_cut or abs(m) > rep.l_cut:
        return 0j
    weight = complex(_phase_power(rep.phases[rep.l_cut - m], n))
    return complex(a[rep.idx(k, 0), rep.idx(k + n, -m)]) * weight


def trace_bound_terms(
    a: np.ndarray, bq0: np.ndarray, q0: np.ndarray
) -> tuple[float, float]:
    """|tau(ab)| and ||a||_2 tau(b* b)^(1/2) for a, b supported on one block, tau = tr(. Q0) / rank Q0.

    tau is a state (positive, tau(1) = 1), so the first is at most the
    second by Cauchy-Schwarz; tau(b* b) = ||b Q0||_F^2 / rank Q0.  q0
    indexes the block's l = 0 columns, where the projection Q0 lives, and
    bq0 = b Q0 is b's q0 columns: the only part of b either side reads.  An
    empty block gives (0.0, 0.0).
    """
    rank = max(len(q0), 1)
    lhs = abs(complex(np.sum(a[q0, :] * bq0.T))) / rank
    rhs = float(np.linalg.norm(a, 2)) * float(np.linalg.norm(bq0)) / math.sqrt(rank)
    return lhs, rhs


NORM_POWER_STEPS = 4
NORM_LOWER_MARGIN = 1e-8  # relative; far above the matvec rounding, n^1.5 eps = 1.5e-13 at n = 121
COMM_TOL = 1e-15  # the largest commutation residual algebra_sanity accepts


def norm_lower_bound(a: np.ndarray) -> float:
    """||a x|| <= ||a||_2, less a margin, for the unit x of power steps on a* a.

    x starts as the conjugate of a's largest row.  a is scaled to a largest
    entry of 1 first, so no square under- or overflows; a zero or subnormal
    matrix gives 0.0.
    """
    scale = float(np.max(np.abs(a), initial=0.0))
    if scale < np.finfo(float).tiny:
        return 0.0
    a = a * (1.0 / scale)
    x = a[np.argmax(np.linalg.norm(a, axis=1))].conj()
    a_adj = a.conj().T
    for _ in range(NORM_POWER_STEPS):
        x = a_adj @ (a @ x)
        x /= np.linalg.norm(x)
    return scale * float(np.linalg.norm(a @ x)) * (1.0 - NORM_LOWER_MARGIN)


def _worst(values, initial: float = 0.0) -> float:
    """Largest value, NaN if any is NaN (the builtin max drops a NaN)."""
    return float(np.max(np.asarray(values, dtype=float), initial=initial))


def algebra_sanity(
    rep: TruncatedAlgebraRep,
    rng: np.random.Generator | None = None,
    n_roundtrip: int = 5,
    n_trace: int = 25,
) -> CheckReport:
    """Finite-size checks of the generator relations and the trace functional.

    Shift truncation breaks the relations only on the edge rows/columns, so
    the commutation residual is measured on columns whose shifts stay inside
    the cutoffs; roundtrips use coefficients supported well inside.  The
    roundtrips draw from rng itself, then each trace sample from its own
    child stream ``rng.spawn(1)[0]``.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    checks: list[CheckResult] = []
    worst: dict = {}

    lhs = rep.V @ rep.U
    rhs = np.exp(2j * np.pi * rep.theta) * (rep.U @ rep.V)
    cols = [rep.idx(k, l) for k in range(rep.k_cut) for l in range(-rep.l_cut, rep.l_cut)]
    rows = [rep.idx(k + 1, l + 1) for k in range(rep.k_cut) for l in range(-rep.l_cut, rep.l_cut)]
    resid = _worst(np.abs(lhs[rows, cols] - rhs[rows, cols]))
    worst["commutation"] = resid
    checks.append(
        CheckResult("commutation_VU_phase_UV", resid <= COMM_TOL, f"residual {resid:.3g}")
    )

    # f(K) is diagonal: left and right products scale rows and columns
    f, f_shift = 1.0 / (1.0 + rep.Kdiag), 1.0 / (2.0 + rep.Kdiag)
    r1 = float(np.max(np.abs(f[:, None] * rep.U - rep.U * f_shift)))
    r2 = float(np.max(np.abs(f[:, None] * rep.V - rep.V * f)))
    worst["diag_commutation"] = _worst([r1, r2])
    checks.append(
        CheckResult(
            "diagonal_function_shifts",
            worst["diag_commutation"] <= COMM_TOL,
            f"residuals {r1:.3g}, {r2:.3g}",
        )
    )

    deg = 3
    k_keep = rep.k_cut - 2 * deg
    dev_plus: list[float] = []
    dev_minus: list[float] = []
    for _ in range(n_roundtrip if k_keep >= 1 else 0):
        plus = {}
        minus = {}
        for _ in range(3):
            m = int(rng.integers(-deg, deg + 1))
            n_p = int(rng.integers(0, deg + 1))
            plus[(m, n_p)] = rng.standard_normal(k_keep)
            n_m = int(rng.integers(1, deg + 1))
            minus[(m, n_m)] = rng.standard_normal(k_keep)
        a = assemble_polynomial(rep, plus, minus)
        for (m, n_p), coeff in plus.items():
            for k in range(min(3, k_keep)):
                dev_plus.append(abs(extract_plus(rep, a, m, n_p, k) - coeff[k]))
        for (m, n_m), coeff in minus.items():
            for k in range(min(3, k_keep)):
                got = extract_minus(rep, a, m, n_m, k)
                dev_minus.append(abs(got - coeff[k]) / max(abs(coeff[k]), 1e-300))
    if k_keep >= 1:
        worst_plus, worst_minus, why = _worst(dev_plus), _worst(dev_minus), ""
    else:
        worst_plus = worst_minus = float("nan")
        why = f"; k_cut = {rep.k_cut} < {2 * deg + 1} leaves no coefficients inside the cutoffs"
    worst["roundtrip_plus"] = worst_plus
    worst["roundtrip_minus_rel"] = worst_minus
    checks.append(
        CheckResult(
            "fourier_roundtrip_plus_exact",
            worst_plus == 0.0,
            f"worst abs deviation {worst_plus:.3g}{why}",
        )
    )
    checks.append(
        CheckResult(
            "fourier_roundtrip_minus_ulp",
            worst_minus <= 4e-15,
            f"worst rel deviation {worst_minus:.3g} (unit-phasor pair rounding){why}",
        )
    )

    # a and b live on the inner block 1 <= k <= k_cut - 1, |l| <= l_cut - 1;
    # Q0 sees only its l = 0 columns, so b is drawn as b Q0 alone
    inner = (rep.Kdiag >= 1) & (rep.Kdiag <= rep.k_cut - 1) & (np.abs(rep.Ldiag) <= rep.l_cut - 1)
    l0 = rep.Ldiag[inner] == 0
    q0, rest = np.flatnonzero(l0), np.flatnonzero(~l0)
    n_inner = int(inner.sum())

    def draw(stream: np.random.Generator, shape) -> np.ndarray:
        z = np.empty(shape, dtype=complex)
        z.real, z.imag = stream.standard_normal(shape), stream.standard_normal(shape)
        return z

    def skips(lhs: float, rows: np.ndarray, b_norm: float) -> bool:
        """Whether lhs < worst * (a lower bound on ||rows||) * b_norm.

        The largest row, less ten margins, is never above
        norm_lower_bound(rows), so the power steps run only where it does not skip.
        """
        re_im = rows.view(float)
        largest_row = math.sqrt(float(np.max(np.einsum("ij,ij->i", re_im, re_im), initial=0.0)))
        return (lhs < worst_trace * largest_row * (1.0 - 10 * NORM_LOWER_MARGIN) * b_norm
                or lhs < worst_trace * norm_lower_bound(rows) * b_norm)

    # running worst exact ratio; a sample whose lhs is below worst * (a lower
    # bound on ||a||) * tau(b* b)^(1/2) cannot raise it or fail, so it skips the
    # SVD.  lhs reads only a's q0 rows, whose norm is at most ||a||, so a's
    # other rows are drawn only where the q0 rows alone do not skip.  Each
    # sample draws from its own child stream: q0 rows, b Q0, then the rest.
    # An empty block gives 0/0, which must fail rather than pass vacuously.
    worst_trace, bounded, n_svd = -np.inf, True, 0
    rank = max(len(q0), 1)
    for _ in range(n_trace):
        stream = rng.spawn(1)[0]
        a_q0, bq0 = draw(stream, (len(q0), n_inner)), draw(stream, (n_inner, len(q0)))
        lhs = abs(complex(np.sum(a_q0 * bq0.T))) / rank
        b_norm = float(np.linalg.norm(bq0)) / math.sqrt(rank)  # tau(b* b)^(1/2)
        if skips(lhs, a_q0, b_norm):
            continue
        a = np.empty((n_inner, n_inner), dtype=complex)
        a[q0], a[rest] = a_q0, draw(stream, (len(rest), n_inner))
        if skips(lhs, a, b_norm):
            continue
        lhs, rhs = trace_bound_terms(a, bq0, q0)
        n_svd += 1
        worst_trace = _worst([worst_trace, lhs / rhs if rhs > 0.0 else np.nan])
        bounded = bounded and lhs <= rhs * (1.0 + 1e-12)
    worst["trace_ratio"] = worst_trace
    checks.append(
        CheckResult(
            "trace_functional_bound",
            bool(np.isfinite(worst_trace) and bounded),
            f"worst |tau(ab)| / (||a|| tau(b*b)^1/2) = {worst_trace:.6g}, tau = tr(. Q0) / rank Q0"
            f" (SVD on {n_svd} of {n_trace} samples)",
        )
    )
    return CheckReport(tuple(checks), worst=worst)

