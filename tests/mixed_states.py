"""Mixed states that only the tests build: the maximally mixed state, a
seeded full-rank state, and a channel's output as a validated state."""

import numpy as np

from fisherinfo.quantum import DensityMatrix, KrausChannel, adjoint, apply_channel_matrix, identity
from fisherinfo.sampling import _ginibre

FULL_RANK_FLOOR = 0.05  # eigenvalue floor of random_full_rank_state


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to a state, returning a validated state."""
    return DensityMatrix(apply_channel_matrix(channel, rho.mat))


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(identity(dim) / dim, validate=False)


def random_full_rank_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Random mixed state with every eigenvalue at least FULL_RANK_FLOOR-ish."""
    g = _ginibre(rng, dim, dim)
    rho = g @ adjoint(g)
    rho = rho / np.trace(rho).real
    rho = (1.0 - FULL_RANK_FLOOR * dim) * rho + FULL_RANK_FLOOR * np.eye(dim)
    return DensityMatrix(rho)
