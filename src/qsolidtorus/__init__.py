"""Numerics for a Dirac-type operator on the quantum solid torus.

The package decomposes the operator into 2x2 one-step difference systems per
Fourier mode, computes the distinguished I/K kernel solutions, assembles the
explicit inverse under the K-function boundary condition, and verifies the
inequality and Hilbert-Schmidt machinery behind its compactness at desk scale.
"""

__version__ = "0.1.0"
