"""Test oracles and fixture builders that the package itself never calls.

Imported by the test modules as ``reference`` (pytest puts ``tests/`` on the
import path); nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from qsolidtorus.dirac import FourierField, Mode
from qsolidtorus.parametrix import RhsPair, WeightedSeq
from qsolidtorus.transfer import ModeIndex


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
