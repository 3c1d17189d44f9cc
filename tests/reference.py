"""Test oracles and fixture builders that the package itself never calls.

Imported by the test modules as ``reference`` (pytest puts ``tests/`` on the
import path); nothing under ``src/`` imports it.

The first section holds fixtures and checks no command runs: among them
``FUBINI_PAIRS``, the HS sums the acceptance suite compares in pairs, the
2x2 ``det2`` and ``invert`` and ``perp_transport_residual``, which checks the
transport of K(0)^perp by inverting forward products of the recessive
solution, so it holds to 1e-10 only at small |m|.

The second half holds the one-mode versions of the stages the package now
runs once per level on a stack of modes: ``mode_table`` and ``epsilon``
evaluate the families themselves (``mode_table`` gives the level's table and
the mode's C stack), and ``apply_A``, ``apply_Q``, the three
norms, ``wronskian_residuals``, ``verify_lemma_suite`` and ``hs_norms`` work
on one solution's 1-D tables.  Their arithmetic is the package's before the
stacking, so ``tests/test_stacked.py`` can compare the stacked stages with
them bit for bit.

The next section holds the four recurrences that ``transfer.sweep`` runs
(I, K, the partial products and the m = 0 inner sum), each as its own
plain-float loop, so ``tests/test_solutions.py`` can check the sweeps' tables
against them bit for bit.

The last section holds the banded LU oracle the package ran before its
orthogonal cyclic reduction: the constrained system in LAPACK band form,
factored by ``dgbtrf`` and solved twice by ``dgbtrs``, so
``tests/test_parametrix.py`` can compare ``oracle_solve`` with LAPACK.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from qsolidtorus.analysis import BOUND_SLACK, HsReport
from qsolidtorus.families import (
    CheckReport,
    CheckResult,
    CoefficientFamily,
    SeriesValue,
    WeightFamily,
    eval_s,
    exact_tail_inv_weight,
    sup_inv_weight,
    tail_inv_weight,
)
from qsolidtorus.parametrix import ParametrixResult, RhsPair, WeightedSeq, WeightTagMismatch, _phi
from qsolidtorus.solutions import EPS_HEAD, KernelSolution, cumulative_product_sum, suffix_sum
from qsolidtorus.transfer import (
    DET_FLOOR,
    LevelTable,
    ModeIndex,
    SingularMatrixError,
    build_C_range,
    partial_products,
    scalar_det_prefix,
)

# the HS sums of analysis.hs_norms that the continuum Fubini swap pairs: the cross
# pairs are exact finite-sum rearrangements, the same-index pairs differ by a diagonal
FUBINI_PAIRS = (
    (("X", 1, 2), ("Y", 2, 1)),
    (("X", 2, 1), ("Y", 1, 2)),
    (("X", 1, 1), ("Y", 1, 1)),
    (("X", 2, 2), ("Y", 2, 2)),
)


def mat_abs_norm(mat: np.ndarray) -> float:
    """Entrywise absolute-sum norm, the norm the convergence certificate uses."""
    return float(np.sum(np.abs(mat)))


def det2(mat: np.ndarray) -> float:
    return float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])


def invert(mat: np.ndarray) -> np.ndarray:
    """Adjugate-over-determinant inverse with an underflow guard."""
    d = det2(mat)
    if abs(d) < DET_FLOOR:
        raise SingularMatrixError(f"determinant {d:.3g} below floor {DET_FLOOR:.3g}")
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]]) / d


def C_stack(sol: KernelSolution) -> np.ndarray:
    """The solution's C stack, built from its level's table."""
    t = sol.table
    return build_C_range(sol.mode.m, t.an, t.an1, t.c1, t.c2)


def perp_transport_residual(sol: KernelSolution) -> float:
    """Check K(k)^perp = prod(c2/c1) (P(k)^-1)^T K(0)^perp, worst relative error, for k <= 48.

    It inverts forward products of the recessive solution, so its error grows
    with |m|: on the default grid at K = 48 it reaches 3.8e-4 at (+-32, 0),
    against a Wronskian residual of 4.5e-16 there.  It is a small-m check.
    """
    k_hi = min(sol.k_table, 48)
    parts = partial_products(C_stack(sol)[:k_hi])
    pref = sol.table.prefix
    k0_perp = np.array([sol.K[0, 1], -sol.K[0, 0]])
    worst = 0.0
    for k in range(k_hi + 1):
        direct = np.array([sol.K[k, 1], -sol.K[k, 0]])
        via = pref[k] * (invert(parts[k]).T @ k0_perp)
        scale = max(np.max(np.abs(direct)), np.max(np.abs(via)))
        worst = max(worst, float(np.max(np.abs(direct - via))) / scale)
    return worst


def zero_rhs(mode: ModeIndex, k_max: int) -> RhsPair:
    """The zero right-hand side of length k_max for one mode."""
    return RhsPair(
        r1=WeightedSeq(np.zeros(k_max), mode.n + 1),
        r2=WeightedSeq(np.zeros(k_max), mode.n),
        q0=0.0,
    )


def zero_padded(r: RhsPair, k_max: int) -> RhsPair:
    """``r`` with zeros appended to r1 and r2 up to length k_max, for a table longer than its window."""
    pad = k_max - len(r.r1.values)
    return RhsPair(WeightedSeq(np.pad(r.r1.values, (0, pad)), r.r1.level),
                   WeightedSeq(np.pad(r.r2.values, (0, pad)), r.r2.level), r.q0)


def build_A(mode: ModeIndex, k: int, w: WeightFamily, c: CoefficientFamily) -> np.ndarray:
    """Step matrix with rows scaled by a_{n+1}(k) c_1(k) and a_n(k+1)."""
    m, n = mode.m, mode.n
    return np.array(
        [
            [w.a(n + 1, k) * c.c(1, n, k), 0.0],
            [float(m), w.a(n, k + 1)],
        ]
    )


def apply_D_delta(
    mode: ModeIndex, w: WeightFamily, c: CoefficientFamily, g: np.ndarray, f: np.ndarray
) -> RhsPair:
    """The mode operator on (g at level n, f at level n+1), from the raw difference operators.

    The one-step operators

        B_n h(k)    = a_n(k) (h(k) - c_{2,n}(k-1) h(k-1)),      h(-1) = 0,
        Bbar_n h(k) = a_{n+1}(k) (h(k) - c_{1,n}(k) h(k+1)),

    composed with the angular multiplier m give p = m f - Bbar_n g and
    q = -B_n f - m g.  The result holds the block data (p(k), -q(k+1)) and the
    initial datum -q(0) = a_n(0) f(0) + m g(0), as ``parametrix.apply_A`` does.
    """
    m, n = mode.m, mode.n
    # Bbar_n g, one entry shorter than g
    ks = np.arange(len(g) - 1)
    a = np.asarray(w.a(n + 1, ks), dtype=float)
    c1 = np.asarray(c.c(1, n, ks), dtype=float)
    bbar_g = a * (g[:-1] - c1 * g[1:])
    # B_n f, as long as f
    ks = np.arange(len(f))
    a = np.asarray(w.a(n, ks), dtype=float)
    b_f = a * f.astype(float)
    c2 = np.asarray(c.c(2, n, ks[:-1]), dtype=float)
    b_f[1:] -= a[1:] * c2 * f[:-1]
    p = m * f[:-1] - bbar_g
    q = -b_f - m * g
    return RhsPair(r1=WeightedSeq(p, n + 1), r2=WeightedSeq(-q[1:], n), q0=float(-q[0]))


def apply_XYZ(
    kind: str, alpha: int, beta: int, sol: KernelSolution, r: WeightedSeq
) -> WeightedSeq:
    """The kernel integral operators in their expanded form.

    X sums the upper tail i > k against K-components, Y the lower triangle
    i <= k against I-components, both with the scalar prefix products of
    c1/c2; Z (m = 0 only) is the cumulative c2-product kernel.  Input tags
    must match a_{n-1+beta} for X/Y and a_n for Z.  ``parametrix.apply_Q``
    is their combination; ``analysis.hs_norms`` sums their squared kernels.
    """
    n = sol.mode.n
    vals = np.asarray(r.values, dtype=float)
    k_max = len(vals) - 1
    if k_max > sol.k_table:
        raise ValueError("input longer than the kernel solution table")
    if kind == "Z":
        if r.level != n:
            raise WeightTagMismatch("Z input must live at level n")
        out = cumulative_product_sum(vals / sol.table.an[: k_max + 1], sol.table.c2)
        return WeightedSeq(out, n + 1)

    if kind not in ("X", "Y") or alpha not in (1, 2) or beta not in (1, 2):
        raise ValueError("kind must be X/Y/Z with alpha, beta in {1, 2}")
    if r.level != n - 1 + beta:
        raise WeightTagMismatch(f"{kind}^{alpha}{beta} input must live at level {n - 1 + beta}")
    H = sol.K if kind == "X" else sol.I
    outer = (sol.I if kind == "X" else sol.K)[: k_max + 1, alpha - 1]
    terms = _phi(sol, H, beta)[: k_max + 1] * vals
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
    parts = partial_products(C_stack(sol)[:k_max])
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


def first_difference(got: str, want: str):
    r"""The first (line number, got line, wanted line) where two texts differ, or None.

    None exactly when ``got == want``: the texts are split at "\n" only, so a
    trailing newline or a "\r" is a difference.  Kept short on purpose:
    pytest's own diff of two long texts takes minutes.
    """
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, pair in enumerate(zip(got_lines, want_lines)):
        if pair[0] != pair[1]:
            return (i + 1, *pair)
    if len(got_lines) != len(want_lines):
        return (min(len(got_lines), len(want_lines)) + 1, len(got_lines), len(want_lines))
    return None


# ---------------------------------------------------------------- one mode at a time


def mode_table(mode: ModeIndex, w: WeightFamily, c: CoefficientFamily, k_hi: int) -> tuple[LevelTable, np.ndarray]:
    """One mode's level table (weights and gaps from four family calls, c2/c1 prefix) and its C stack."""
    n = mode.n
    ks = np.arange(k_hi + 1)
    an, an1 = (np.asarray(w.a(i, ks), dtype=float) for i in (n, n + 1))
    c1, c2 = (np.asarray(c.c(i, n, ks[:-1]), dtype=float) for i in (1, 2))
    table = LevelTable(n=n, k_hi=k_hi, an=an, an1=an1, c1=c1, c2=c2, prefix=scalar_det_prefix(c1, c2))
    return table, build_C_range(mode.m, an, an1, c1, c2)


def epsilon(mode: ModeIndex, w: WeightFamily) -> SeriesValue:
    """eps(m, n) from its own EPS_HEAD-term head, exact tail and sup-factor correction."""
    m, n = mode.m, mode.n
    ks = np.arange(EPS_HEAD)
    an = np.asarray(w.a(n, ks), dtype=float)
    an1 = np.asarray(w.a(n + 1, ks), dtype=float)
    head = float(np.sum(an1 / (m * m + an * an1)))
    inv_tail = exact_tail_inv_weight(w, n, EPS_HEAD)
    corr = (
        m
        * m
        * sup_inv_weight(w, n, EPS_HEAD)
        * sup_inv_weight(w, n + 1, EPS_HEAD)
        * tail_inv_weight(w, n, EPS_HEAD)
        if m != 0
        else 0.0
    )
    corr = min(corr, inv_tail)
    value = head + inv_tail - 0.5 * corr
    return SeriesValue(value=value, tail=0.5 * corr + 1e-15 * abs(value))


def norm_seq(seq: WeightedSeq, t: LevelTable) -> float:
    n = t.n
    if seq.level not in (n, n + 1):
        raise WeightTagMismatch(f"level {seq.level} is neither {n} nor {n + 1}")
    a = t.an if seq.level == n else t.an1
    return float(np.sqrt(np.sum(seq.values**2 / a[: len(seq.values)])))


def norm_rhs(r: RhsPair, t: LevelTable) -> float:
    return float(np.sqrt(norm_seq(r.r1, t) ** 2 + norm_seq(r.r2, t) ** 2 + r.q0**2 / t.an[0]))


def norm_result(res: ParametrixResult, t: LevelTable) -> float:
    return float(np.sqrt(norm_seq(res.h_g, t) ** 2 + norm_seq(res.h_f, t) ** 2))


def apply_A(t: LevelTable, mode: ModeIndex, h_g: WeightedSeq, h_f: WeightedSeq) -> RhsPair:
    m, n = mode.m, mode.n
    if h_g.level != n or h_f.level != n + 1:
        raise WeightTagMismatch(f"expected levels ({n}, {n + 1})")
    x = h_g.values
    y = h_f.values
    K = len(x) - 1
    r1 = m * y[:-1] - t.an1[:K] * (x[:-1] - t.c1[:K] * x[1:])
    r2 = t.an[1 : K + 1] * (y[1:] - t.c2[:K] * y[:-1]) + m * x[1:]
    q0_out = t.an[0] * y[0] + m * x[0]
    return RhsPair(r1=WeightedSeq(r1, n + 1), r2=WeightedSeq(r2, n), q0=float(q0_out))


def _suffix_sum(v: np.ndarray) -> np.ndarray:
    out = np.zeros(len(v))
    out[:-1] = np.cumsum(v[::-1])[::-1][1:]
    return out


def _channel_inputs(r: RhsPair, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    w2 = np.zeros(k_max + 1)
    w1 = np.zeros(k_max + 1)
    n_fill = min(k_max, len(r.r1.values))
    w2[1 : n_fill + 1] = r.r1.values[:n_fill]
    w1[1 : n_fill + 1] = r.r2.values[:n_fill]
    w1[0] = r.q0
    return w2, w1


def _phi_one(sol: KernelSolution, H: np.ndarray, beta: int, k_max: int) -> np.ndarray:
    R = 1.0 / sol.table.prefix[: k_max + 1]
    if beta == 1:
        return R * H[: k_max + 1, 0] / sol.table.an[: k_max + 1]
    phi = np.zeros(k_max + 1)
    phi[1:] = R[:-1] * H[:k_max, 1] / sol.table.an1[:k_max]
    return phi


def apply_Q(sol: KernelSolution, r: RhsPair, k_max: int | None = None) -> ParametrixResult:
    n = sol.mode.n
    if r.r1.level != n + 1 or r.r2.level != n:
        raise WeightTagMismatch(f"rhs levels must be ({n + 1}, {n})")
    k_max = sol.k_table if k_max is None else k_max
    w2, w1 = _channel_inputs(r, k_max)
    x_terms = _phi_one(sol, sol.K, 2, k_max) * w2 - _phi_one(sol, sol.K, 1, k_max) * w1
    y_terms = _phi_one(sol, sol.I, 2, k_max) * w2 - _phi_one(sol, sol.I, 1, k_max) * w1
    e1 = _suffix_sum(x_terms) / sol.tau
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
    )


def wronskian_residuals(sol: KernelSolution) -> np.ndarray:
    pairing = sol.K[:, 0] * sol.I[:, 1] - sol.K[:, 1] * sol.I[:, 0]
    expected = sol.tau * sol.table.prefix
    return np.abs(pairing - expected) / np.abs(expected)


def _clause(name: str, lhs: np.ndarray, rhs: np.ndarray, slack: float) -> tuple[CheckResult, float]:
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    margin = (lhs - rhs) / scale
    worst = float(np.max(margin))
    ok = worst <= slack
    k_bad = int(np.argmax(margin))
    wit = f"worst rel margin {worst:.3g} at k={k_bad}"
    return CheckResult(name, ok, wit), worst


def verify_lemma_suite(sol: KernelSolution, slack: float = 1e-14) -> CheckReport:
    mode = sol.mode
    m = mode.m
    K_hi = sol.k_table
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
        mI1 = -sol.I[:, 0]
        I2 = sign * sol.I[:, 1]
        K1 = sign * sol.K[:, 0]
        K2 = sol.K[:, 1]
        am = abs(m)
        t = sol.table
        c1, an, an1, pref = t.c1, t.an, t.an1, t.prefix
        checks = [
            CheckResult(f"positive_{name}", bool(np.all(arr > 0)), f"min={np.min(arr):.3g}")
            for name, arr in (("neg_I1", mI1), ("I2", I2), ("K1", K1), ("K2", K2))
        ]
        pc1 = np.empty(K_hi + 1)
        pc1[0] = 1.0
        np.cumprod(c1, out=pc1[1:])
        terms1 = np.zeros(K_hi + 1)
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
            ("tail_sum_K2_kernel", _suffix_sum(terms1)[:-1], pc1[:-1] * K1[:-1] / am),
            ("tail_sum_K1_kernel", _suffix_sum(K1 / an)[:-1], K2[:-1] / am),
            ("product_K1_I2", K1 * I2, tau_abs * pref),
            ("product_K2_negI1", K2 * mI1, tau_abs * pref),
            ("product_negI1_next_K2", mI1[1:] * K2[:-1], tau_abs * pref[:-1] / c1),
            ("product_I2_K1_next", I2[:-1] * K1[1:], tau_abs * pref[:-1] / c1),
        ]
    results = [_clause(name, lhs, rhs, slack) for name, lhs, rhs in clauses]
    checks += [ch for ch, _ in results]
    worst = float(np.max([wv for _, wv in results]))
    return CheckReport(tuple(checks), mode, worst)


@np.errstate(over="ignore", invalid="ignore")
def hs_norms(sol: KernelSolution, w: WeightFamily, c: CoefficientFamily) -> HsReport:
    mode = sol.mode
    m, n = mode.m, mode.n
    s_n = eval_s(w, n)
    s_n1 = eval_s(w, n + 1)
    tau = sol.tau
    an = sol.table.an
    an1 = sol.table.an1
    if m == 0:
        inner = cumulative_product_sum(1.0 / an, sol.table.c2**2)
        hs = {("Z", 0, 0): float(np.cumsum(inner / an1)[-1])}
        bounds = {("Z", 0, 0): s_n.upper * s_n1.upper}
        ratio = 0.0
        proxy = float(np.sqrt(hs["Z", 0, 0]))
    else:
        I = sol.I
        Kf = sol.K
        R = 1.0 / sol.table.prefix
        a_of = {1: an, 2: an1}
        Ic = {1: I[:, 0], 2: I[:, 1]}
        Kc = {1: Kf[:, 0], 2: Kf[:, 1]}
        kernel_K = {1: R**2 * Kc[1] ** 2 / an, 2: R**2 * Kc[2] ** 2 / an1}
        kernel_I = {1: R**2 * Ic[1] ** 2 / an, 2: R**2 * Ic[2] ** 2 / an1}
        hs = {}
        for alpha in (1, 2):
            out_w = Ic[alpha] ** 2 / a_of[alpha]
            for beta in (1, 2):
                if beta == 1:
                    s_inner = _suffix_sum(kernel_K[1])
                else:
                    s_inner = _suffix_sum(np.append(0.0, kernel_K[2]))[:-1]
                hs[("X", alpha, beta)] = float(np.sum(out_w * s_inner))
        for alpha in (1, 2):
            out_w = Kc[alpha] ** 2 / a_of[alpha]
            for beta in (1, 2):
                pre = np.cumsum(kernel_I[beta])
                if beta == 2:
                    pre = np.concatenate(([0.0], pre[:-1]))
                hs[("Y", alpha, beta)] = float(np.sum(out_w * pre))
        ratio = abs(sol.ratio_at_infinity)
        bound_s = tau * tau * c.kappa * (sol.eps.upper + ratio) * s_n.upper
        bound_s1 = tau * tau * c.kappa * sol.eps.upper * s_n1.upper
        bounds = {
            ("X", 1, 1): bound_s,
            ("X", 1, 2): bound_s,
            ("X", 2, 1): bound_s1,
            ("X", 2, 2): bound_s1,
            ("Y", 1, 1): bound_s,
            ("Y", 2, 1): bound_s,
            ("Y", 1, 2): bound_s1,
            ("Y", 2, 2): bound_s1,
        }
        proxy = float(np.sqrt(sum(hs.values())) / abs(tau))
    flags = {
        key: bool(np.isfinite(hs[key]) and np.isfinite(bounds[key]) and hs[key] <= bounds[key] * (1.0 + BOUND_SLACK))
        for key in hs
    }
    return HsReport(
        mode=mode,
        hs=hs,
        bounds=bounds,
        pass_flags=flags,
        eps=sol.eps.value,
        s_n=s_n.value,
        s_n1=s_n1.value,
        tau=tau,
        ratio=ratio,
        proxy=proxy,
    )


# ---------------------------------------------------------------- the step loops, one per recurrence


def compute_I_loop(mode: ModeIndex, table: LevelTable, C: np.ndarray) -> np.ndarray:
    """Forward table I(0..k_hi) from I(0) = (-1, m/a_n(0)) by its own plain-float loop, without the overflow guard."""
    x, y = -1.0, float(mode.m / table.an[0])
    flat = [x, y]
    for c00, c01, c10, c11 in C.reshape(-1, 4).tolist():
        x, y = c00 * x + c01 * y, c10 * x + c11 * y
        flat += (x, y)
    return np.array(flat).reshape(-1, 2)


def compute_K_loop(table: LevelTable, c_arr: np.ndarray, k_inf: tuple[float, float]) -> np.ndarray:
    """Backward table K(0..k_hi) from K(k_hi) = k_inf by its own plain-float loop over adj(C)/det C."""
    inv = np.stack((c_arr[:, 1, 1], -c_arr[:, 0, 1], -c_arr[:, 1, 0], c_arr[:, 0, 0]), axis=1)
    inv /= (table.c2 / table.c1)[:, None]
    x, y = float(k_inf[0]), float(k_inf[1])
    flat = [x, y]
    for i00, i01, i10, i11 in reversed(inv.tolist()):
        x, y = i00 * x + i01 * y, i10 * x + i11 * y
        flat += (x, y)
    return np.array(flat).reshape(-1, 2)[::-1].copy()


def partial_products_loop(c_arr: np.ndarray) -> np.ndarray:
    """P(0)=I and P(k+1) = C(k) P(k), all four entries carried in one plain-float loop."""
    p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
    flat = [(p00, p01, p10, p11)]
    for a, b, c, d in c_arr.reshape(-1, 4).tolist():
        p00, p01, p10, p11 = (
            a * p00 + b * p10,
            a * p01 + b * p11,
            c * p00 + d * p10,
            c * p01 + d * p11,
        )
        flat.append((p00, p01, p10, p11))
    return np.array(flat).reshape(len(flat), 2, 2)


def cumulative_product_sum_loop(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """out[k] = out[k-1] r(k-1) + x(k) from out[-1] = 0 by its own plain-float loop."""
    out = [0.0]
    for xk, rk in zip(x.tolist(), [1.0, *r.tolist()]):
        out.append(out[-1] * rk + xk)
    return np.array(out[1:])


# ---------------------------------------------------------------- the banded LU oracle


def oracle_band(sol: KernelSolution, k_max: int) -> np.ndarray:
    """The constrained system of ``oracle_matrix`` in LAPACK band form, kl = 2, ku = 1.

    Same unknowns and entries, with the initial regularity row moved first:
    row 0 is the datum row, rows 2k+1 and 2k+2 the block equations of step k,
    row 2K+1 the boundary row.  Entry (i, j) sits at ``band[3 + i - j, j]``;
    the two leading rows stay zero for the fill-in of the row interchanges.
    """
    m = sol.mode.m
    t = sol.table
    an1 = t.an1[:k_max]
    an_next = t.an[1 : k_max + 1]
    band = np.zeros((6, 2 * (k_max + 1)))
    band[3, 0] = m
    band[2, 1] = t.an[0]
    # the raw rows of apply_A: m y(k) - a_{n+1}(k) (x(k) - c_1(k) x(k+1)) and
    # a_n(k+1) (y(k+1) - c_2(k) y(k)) + m x(k+1)
    band[4, 0 : 2 * k_max : 2] = -an1
    band[3, 1 : 2 * k_max : 2] = m
    band[2, 2 : 2 * k_max + 1 : 2] = an1 * t.c1[:k_max]
    band[4, 1 : 2 * k_max : 2] = -an_next * t.c2[:k_max]
    band[3, 2 : 2 * k_max + 1 : 2] = m
    band[2, 3 : 2 * k_max + 2 : 2] = an_next
    band[4, 2 * k_max] = sol.K[k_max, 1]
    band[3, 2 * k_max + 1] = -sol.K[k_max, 0]
    return band


def banded_oracle_solve(sol: KernelSolution, r: RhsPair) -> tuple[np.ndarray, np.ndarray]:
    """(h_g, h_f) by a banded LU of ``oracle_band`` on the table's window, plus one refinement step.

    The refinement residual is the raw system's, as in ``oracle_solve``:
    ``apply_A`` on the solution's table and mode plus the boundary row.  A zero pivot
    is ``np.linalg.LinAlgError``.
    """
    n = sol.mode.n
    k_max = sol.k_table
    lu, piv, info = dgbtrf(oracle_band(sol, k_max), 2, 1, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    n_fill = min(k_max, len(r.r1.values))
    rhs = np.zeros(2 * (k_max + 1))
    rhs[0] = r.q0
    rhs[1 : 2 * n_fill : 2] = r.r1.values[:n_fill]
    rhs[2 : 2 * n_fill + 1 : 2] = r.r2.values[:n_fill]
    hvec, _ = dgbtrs(lu, 2, 1, rhs, piv)
    back = apply_A(sol.table, sol.mode, WeightedSeq(hvec[0::2], n), WeightedSeq(hvec[1::2], n + 1))
    b1, b2 = sol.K[k_max]
    resid = rhs.copy()
    resid[0] -= back.q0
    resid[1 : 2 * k_max : 2] -= back.r1.values
    resid[2 : 2 * k_max + 1 : 2] -= back.r2.values
    resid[-1] -= b2 * hvec[-2] - b1 * hvec[-1]
    hvec = hvec + dgbtrs(lu, 2, 1, resid, piv)[0]
    return hvec[0::2], hvec[1::2]
