"""Finite-difference references for the analytic model derivatives and the
search's gradients.

``KrausFamily`` has no analytic rule: it differences its own states, so it
checks the derivatives that ``UnitaryFamily`` computes in closed form.
"""

import numpy as np

from fisherinfo.errors import InvalidState
from fisherinfo.quantum import DensityMatrix, adjoint, apply_channel_matrix

FD_STEP = 1e-5  # central-difference step


def fd_gradient(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of a scalar function ``f`` along each coordinate of ``x``."""
    steps = h * np.eye(len(x))
    return np.array([(f(x + e) - f(x - e)) / (2.0 * h) for e in steps])


def fd_state_derivative(model, theta: float, h: float = FD_STEP) -> np.ndarray:
    """Central difference of the states of ``model.trajectory`` at ``theta``."""
    hi = model.trajectory([theta + h])[0][0]
    lo = model.trajectory([theta - h])[0][0]
    return (hi - lo) / (2.0 * h)


class KrausFamily:
    """rho(theta) = E_theta(rho0) for a theta-dependent Kraus channel.

    ``kraus_at`` maps theta to a KrausChannel.  No analytic derivative is
    assumed; central finite differences of the state serve instead, which
    makes this family the finite-difference reference for analytic models.
    """

    def __init__(self, kraus_at, rho0: DensityMatrix):
        if not isinstance(rho0, DensityMatrix):
            raise InvalidState("rho0 must be a DensityMatrix")
        self.kraus_at = kraus_at
        self.rho0 = rho0

    def _state(self, theta: float) -> np.ndarray:
        return apply_channel_matrix(self.kraus_at(theta), self.rho0.mat)

    def trajectory(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        h = FD_STEP
        thetas = np.asarray(thetas, dtype=float).reshape(-1)
        rho = np.stack([self._state(t) for t in thetas])
        hi = np.stack([self._state(t + h) for t in thetas])
        lo = np.stack([self._state(t - h) for t in thetas])
        d = (hi - lo) / (2.0 * h)
        # symmetrize away the last bits of roundoff
        return rho, (d + adjoint(d)) / 2.0
