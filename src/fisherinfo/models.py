"""The one model type, ``UnitaryFamily``: theta -> rho(theta).

Its kernel, ``trajectory``, gives the state and its theta-derivative,
stacked over a vector of theta values; it also gives Born probabilities
and their derivatives on a theta grid with the effects pulled back
(``pulled_back_outcomes``), and the Kraus vectors A with rho = A A^dag and
their derivative (``kraus_vectors``).  Information functionals need first
derivatives only, and always consume the model's own; they never
re-difference.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidChannel, InvalidState, SingularOutcome, _shown
from .quantum import (CHANNEL_ATOL, DensityMatrix, KrausChannel, _completeness_defect,
                      _effect_stack, adjoint, apply_channel_matrix, apply_dual_matrix,
                      checked_probabilities, checked_states, require_hermitian)


class UnitaryFamily:
    """rho(theta) = E_post(U E_pre(rho0) U^dag) with U = exp(-i theta passes G).

    ``passes`` counts repeated applications of the same generator, so the
    effective generator is passes * G.  ``channels`` is an ordered tuple of
    (KrausChannel, placement) pairs: "pre" channels act on rho0 in list
    order when the model is built, "post" channels act after the dynamics,
    also in list order.  The channels' completeness defects share one budget,
    CHANNEL_ATOL.  ``rho0`` may be left unset to describe the dynamics
    alone; ``with_state`` binds one.  The eigendecomposition of the
    generator's Hermitian part, eigenvalues ascending, is cached and shared
    by every derived instance.
    """

    def __init__(self, generator, rho0: DensityMatrix | None = None, passes: int = 1,
                 channels: tuple = (), *, _gen_eig=None):
        self.generator = require_hermitian(generator, "generator")
        dim = self.generator.shape[0]
        if int(passes) < 1:
            raise ValueError(f"passes must be a positive integer, got {passes!r}")
        for channel, placement in channels:
            if placement not in ("pre", "post"):
                raise ValueError(f"placement must be 'pre' or 'post', got {_shown(placement)}")
            if channel.dim != dim:
                raise DimensionMismatch("channel and model dimensions differ")
        defect = sum(_completeness_defect(channel) for channel, _ in channels)
        if defect > CHANNEL_ATOL:
            raise InvalidChannel(f"the channels' Kraus completeness defects sum to {defect:.3e}")
        self.passes = int(passes)
        self.channels = tuple(channels)
        g = self.generator
        self._gen_eig = _gen_eig if _gen_eig is not None else np.linalg.eigh((g + adjoint(g)) / 2.0)
        self.rho0 = rho0
        self._input = None  # rho0 after the "pre" channels, each output validated
        if rho0 is not None:
            if not isinstance(rho0, DensityMatrix):
                raise InvalidState("rho0 must be a DensityMatrix")
            if rho0.dim != dim:
                raise DimensionMismatch("generator and initial state dimensions differ")
            self._input = rho0.mat
            for channel, placement in self.channels:
                if placement == "pre":
                    self._input = checked_states(apply_channel_matrix(channel, self._input))

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def with_state(self, rho0: DensityMatrix) -> "UnitaryFamily":
        return UnitaryFamily(self.generator, rho0, self.passes, self.channels,
                             _gen_eig=self._gen_eig)

    def with_channel(self, channel: KrausChannel, placement: str = "post") -> "UnitaryFamily":
        return UnitaryFamily(self.generator, self.rho0, self.passes,
                             self.channels + ((channel, placement),), _gen_eig=self._gen_eig)

    def propagator(self, theta) -> np.ndarray:
        """exp(-i theta passes G); a vector of theta values gives a stack."""
        w, v = self._gen_eig
        thetas = np.asarray(theta, dtype=float)[..., None]
        return (v * _phases(thetas, thetas * self.passes * w)[..., None, :]) @ adjoint(v)

    def trajectory(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """(rho, d rho / d theta), each shaped (len(thetas), dim, dim).

        Analytic: d rho = -i k [G, rho], then the post channels."""
        u = self.propagator(np.asarray(thetas, dtype=float).reshape(-1))
        rho = u @ self._prepared() @ adjoint(u)
        g = self.generator
        drho = -1j * self.passes * (g @ rho - rho @ g)
        for channel, placement in self.channels:
            if placement == "post":
                rho, drho = apply_channel_matrix(channel, np.stack((rho, drho)))
        return rho, drho

    def _prepared(self) -> np.ndarray:
        if self._input is None:
            raise InvalidState("the model has no initial state; bind one with with_state")
        return self._input

    def pulled_back_outcomes(self, povm, thetas):
        """(p, dp), each (len(thetas), outcomes), in the Heisenberg picture.

        The effects F_x are pulled back once through the "post" channels'
        duals, last channel first.  In the generator's eigenbasis
        rho(theta)_ab = exp(-i theta D_ab) rho_ab with D_ab = passes (w_a - w_b),
        so every node is one row of phases times the coefficients rho_ab F_x,ba.
        ``trajectory`` traced against the effects gives the same up to rounding.
        """
        rho = self._prepared()
        effects = _effect_stack(povm, self.dim)
        for channel, placement in reversed(self.channels):
            if placement == "post":
                effects = apply_dual_matrix(channel, effects)
        w, v = self._gen_eig
        vh = adjoint(v)
        coeffs = (vh @ rho @ v) * np.swapaxes(vh @ effects @ v, -1, -2)
        diffs = (self.passes * (w[:, None] - w[None, :])).reshape(-1)
        thetas = np.asarray(thetas, dtype=float).reshape(-1, 1)
        phases = _phases(thetas, thetas * diffs)
        rows = np.concatenate((phases, -1j * diffs * phases))
        p, dp = (rows @ coeffs.reshape(len(effects), -1).T).real.reshape(2, len(phases), -1)
        return checked_probabilities(p), dp

    def vector_map(self, thetas) -> np.ndarray:
        """The linear map from input vectors to Kraus vectors at each theta.

        A (n, 2 r d, d) array for n theta values: for the r products
        K_j U P_l of a product K_j of the "post" channels' Kraus operators
        and a product P_l of the "pre" channels', each in list order, the
        rows K_j U P_l, then the rows K_j U (-i passes G) P_l.
        ``kraus_columns`` turns its product with input vectors (..., d, s)
        into (A, dA).
        """
        d = self.dim
        ops = {"pre": None, "post": None}  # None: no channel, the identity
        for channel, placement in self.channels:
            done = ops[placement]
            ops[placement] = (channel.kraus if done is None
                              else (channel.kraus[:, None] @ done).reshape(-1, d, d))
        evolved = self.propagator(np.asarray(thetas, dtype=float).reshape(-1))[:, None]
        if ops["post"] is not None:
            evolved = ops["post"] @ evolved
        slope = evolved @ (-1j * self.passes * self.generator)
        if ops["pre"] is not None:
            evolved, slope = evolved[:, :, None] @ ops["pre"], slope[:, :, None] @ ops["pre"]
        return np.concatenate((evolved, slope), axis=1).reshape(len(evolved), -1, d)

    def kraus_vectors(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """(A, dA / d theta), each (len(thetas), dim, r s): rho = A A^dag and
        d rho / d theta = dA A^dag + A dA^dag at each theta.

        The columns are K_j U P_l v_i (``vector_map``) for the initial
        state's vectors v_i (``DensityMatrix.vectors``).
        """
        self._prepared()
        return kraus_columns(self.vector_map(thetas) @ self.rho0.vectors, self.dim)


def _phases(thetas, angles) -> np.ndarray:
    """exp(-i angles) for the phase angles of the thetas (..., 1);
    SingularOutcome, naming a theta, where an angle overflows."""
    finite = np.isfinite(angles)
    if not finite.all():
        theta = float(np.broadcast_to(thetas, angles.shape)[~finite][0])
        raise SingularOutcome(f"the phases overflow at theta = {theta!r}")
    return np.exp(-1j * angles)


def kraus_columns(flat: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, dA), each (..., dim, r s), from a vector map's product with input
    vectors, (..., 2 r dim, s): column j s + i is operator j on vector i."""
    *lead, rows, s = flat.shape
    r = rows // (2 * dim)
    blocks = np.swapaxes(flat.reshape(*lead, 2, r, dim, s), -3, -2).reshape(*lead, 2, dim, r * s)
    return blocks[..., 0, :, :], blocks[..., 1, :, :]
