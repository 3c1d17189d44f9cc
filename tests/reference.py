"""Test oracles and fixture builders that the package itself never calls.

Imported by the test modules as ``reference`` (pytest puts ``tests/`` on the
import path); nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from qsolidtorus.families import CoefficientFamily, WeightFamily
from qsolidtorus.parametrix import RhsPair, WeightedSeq, WeightTagMismatch, _phi
from qsolidtorus.solutions import KernelSolution, cumulative_product_sum, suffix_sum
from qsolidtorus.transfer import ModeIndex, invert, partial_products


def mat_abs_norm(mat: np.ndarray) -> float:
    """Entrywise absolute-sum norm, the norm the convergence certificate uses."""
    return float(np.sum(np.abs(mat)))


def zero_rhs(mode: ModeIndex, k_max: int) -> RhsPair:
    """The zero right-hand side of length k_max for one mode."""
    return RhsPair(
        r1=WeightedSeq(np.zeros(k_max), mode.n + 1),
        r2=WeightedSeq(np.zeros(k_max), mode.n),
        q0=0.0,
    )


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
    terms = _phi(sol, H, beta, k_max) * vals
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
