"""Test oracles and fixture builders that the package itself never calls.

Imported by the test modules as ``reference`` (pytest puts ``tests/`` on the
import path); nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from qsolidtorus.dirac import FourierField, Mode
from qsolidtorus.parametrix import RhsPair, WeightedSeq
from qsolidtorus.solutions import KernelSolution
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


def random_field(
    modes: list[Mode], k_max: int, rng: np.random.Generator
) -> FourierField:
    """Standard normal g and f tables of length k_max + 1 for each mode."""
    return FourierField(
        {
            (m, n): (rng.standard_normal(k_max + 1), rng.standard_normal(k_max + 1))
            for (m, n) in modes
        }
    )


def delta1_component(field: FourierField) -> FourierField:
    """The angular multiplier: each mode's data scaled by its m."""
    return FourierField(
        {(m, n): (m * g, m * f) for (m, n), (g, f) in field.entries.items()}
    )


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
