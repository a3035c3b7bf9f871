"""Seeded random instances: states, generators, measurements, channels.

Everything takes a numpy Generator so suites can derive per-trial streams
deterministically.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, _cut
from .quantum import (MAX_DIM, DensityMatrix, KrausChannel, Povm, adjoint, projective_povm,
                      pure_state)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = _ginibre(rng, dim, dim)
    return (g + adjoint(g)) / 2.0


def random_pure_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    psi = _ginibre(rng, dim, 1).reshape(-1)
    return pure_state(psi / np.linalg.norm(psi))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    # fix the phase ambiguity of QR so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projective_povm(rng: np.random.Generator, dim: int) -> Povm:
    return projective_povm(random_unitary(rng, dim))


def check_channel_size(dim: int, kraus_count: int) -> None:
    """A sampled channel's isometry, (dim * kraus_count) x dim, has at most
    MAX_DIM rows."""
    if dim * kraus_count > MAX_DIM:
        raise DimensionMismatch(
            f"dim * kraus_count = {_cut(str(dim * kraus_count))} exceeds the supported {MAX_DIM}"
        )


def random_channel(rng: np.random.Generator, dim: int, kraus_count: int) -> KrausChannel:
    """Random channel via a sampled Stinespring isometry.

    Draws a (dim * kraus_count) x dim complex Gaussian matrix, orthonormalizes
    its columns, and slices the isometry into kraus_count blocks.  Kraus
    completeness then holds by construction.
    """
    check_channel_size(dim, kraus_count)
    g = _ginibre(rng, dim * kraus_count, dim)
    q, _ = np.linalg.qr(g)
    return KrausChannel(q.reshape(kraus_count, dim, dim))


def random_stochastic_map(rng: np.random.Generator, out_count: int, in_count: int) -> np.ndarray:
    """Column-stochastic matrix with uniform random entries."""
    t = rng.uniform(0.0, 1.0, size=(out_count, in_count))
    return t / t.sum(axis=0, keepdims=True)


def trial_seeds(root_seed: int, trials: int) -> np.ndarray:
    """Per-trial integer seeds derived from one root seed."""
    return np.random.SeedSequence(root_seed).generate_state(trials, dtype=np.uint32)
