"""Numerics for a Dirac-type operator on the quantum solid torus.

The package decomposes the operator into 2x2 one-step difference systems per
Fourier mode, computes the distinguished I/K kernel solutions, assembles the
explicit inverse under the K-function boundary condition, and verifies the
inequality and Hilbert-Schmidt machinery behind its compactness at desk scale.
"""

from .families import (
    CoefficientFamily,
    HypothesisViolation,
    SeriesValue,
    WeightFamily,
    default_families,
    eval_J,
    eval_s,
    validate_hypotheses,
)
from .transfer import (
    ModeIndex,
    SingularMatrixError,
    TransferProduct,
    invert,
    limit_product,
    structure_check,
)
from .solutions import (
    BoundaryRule,
    BoundaryRuleError,
    DegeneratePairingError,
    KernelSolution,
    build_solution,
    compute_I,
    compute_K,
    epsilon,
    verify_lemma_suite,
    wronskian_residuals,
)
from .parametrix import (
    OracleSolution,
    ParametrixResult,
    RhsPair,
    WeightedSeq,
    apply_A,
    apply_Q,
    oracle_solve,
)
from .dirac import TruncatedAlgebraRep, algebra_sanity
from .analysis import HsReport, ScanTable, decay_scan, hs_norms

__version__ = "0.1.0"

__all__ = [
    "CoefficientFamily",
    "HypothesisViolation",
    "SeriesValue",
    "WeightFamily",
    "default_families",
    "eval_J",
    "eval_s",
    "validate_hypotheses",
    "ModeIndex",
    "SingularMatrixError",
    "TransferProduct",
    "invert",
    "limit_product",
    "structure_check",
    "BoundaryRule",
    "BoundaryRuleError",
    "DegeneratePairingError",
    "KernelSolution",
    "build_solution",
    "compute_I",
    "compute_K",
    "epsilon",
    "verify_lemma_suite",
    "wronskian_residuals",
    "OracleSolution",
    "ParametrixResult",
    "RhsPair",
    "WeightedSeq",
    "apply_A",
    "apply_Q",
    "oracle_solve",
    "TruncatedAlgebraRep",
    "algebra_sanity",
    "HsReport",
    "ScanTable",
    "decay_scan",
    "hs_norms",
]
