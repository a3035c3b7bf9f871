"""Dense complex linear algebra for small Hermitian operators.

Everything in the toolkit works on square complex matrices of dimension
at most MAX_DIM, stored as numpy complex128 arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotHermitian

MAX_DIM = 64

# max |A - A^dag| entry allowed before a matrix is rejected as non-Hermitian
HERMITIAN_ATOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex128 array of dimension <= MAX_DIM."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
        raise DimensionMismatch(
            f"{name} dimension {m.shape[0]} outside supported range 1..{MAX_DIM}"
        )
    return m


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermiticity_defect(a: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation from its adjoint of a matrix, or of each
    matrix of a stack (..., d, d)."""
    return np.max(np.abs(a - adjoint(a)), axis=(-2, -1))


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(a, name)
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_ATOL:
        raise NotHermitian(f"{name} deviates from Hermiticity by {defect:.3e}")
    return m


def eig_hermitian(a, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  The input is
    symmetrized before the solve so the result is exactly that of the nearest
    Hermitian matrix within the admission tolerance.
    """
    m = require_hermitian(a, name)
    w, v = np.linalg.eigh((m + adjoint(m)) / 2.0)
    return w, v


def unitary_exp(generator, t: float) -> np.ndarray:
    """exp(-i t G) for Hermitian G, via the spectral decomposition of G."""
    w, v = eig_hermitian(generator, "generator")
    phases = np.exp(-1j * t * w)
    return (v * phases) @ adjoint(v)
