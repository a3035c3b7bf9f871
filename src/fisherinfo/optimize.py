"""Context optimization: maximize information over states and measurements.

A context is a (state, POVM) pair.  Either side can be fixed, which models
a restricted experiment.  At one theta the measurement side is never
searched: the SLD eigenbasis measurement attains the quantum Fisher
information at every state (Braunstein & Caves 1994), so a free POVM is
read off the chosen state's SLD.  A fixed state is never searched either.
Without channels, the best state for a free POVM is the equal
superposition of the generator's extreme eigenvectors, worth
k^2 (lmax - lmin)^2 (Giovannetti, Lloyd & Maccone 2006).  Otherwise the
2(dim-1) state parameters are searched with multi-start Nelder-Mead,
scored by the QFI for a free POVM or by the classical Fisher information
for a fixed one.  A prior average has no such closed form, so
maximize_bayesian searches state and measurement parameters together.
The theta nodes (one, or the prior's grid) are fixed during a search, so
the dynamics and the post channels form one linear map from the prepared
input to (rho, rho', rho'') at every node (``UnitaryFamily.transfer``).
Both searches build it once and score each candidate context with its
pre channels, one matrix-vector product and the SLD or Born kernel
(``context_objective``), never a rebuilt model.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DerivativeOffSupport, DimensionMismatch, SingularOutcome, ZeroEvidence
from .fisher import (
    averaged_information,
    bayesian_information,
    classical_fisher,
    outcome_blocks,
    sld_eigen,
    sld_optimal_povm,
    sld_solve,
)
from .linalg import PAULI_X, PAULI_Z, adjoint, unitary_exp
from .models import UnitaryFamily
from .quantum import DensityMatrix, Povm, projective_povm, pure_state, unitary_channel

MAX_OPT_DIM = 8          # larger searches are out of scope
VALUE_SPREAD_TOL = 1e-10  # simplex value spread at termination
MAX_ITER = 2000
DEFAULT_RESTARTS = 32


class ContextSpace:
    """The search space of contexts for one optimization.

    A None state (or POVM) means that side is free: pure states carry
    2(dim-1) real parameters (hyperspherical angles and relative phases),
    projective measurements carry dim^2 real parameters that build a
    Hermitian generator whose exponential supplies the basis.
    """

    __slots__ = ("dim", "state", "povm", "_triu")

    def __init__(self, dim: int, state: DensityMatrix | None = None,
                 povm: Povm | None = None):
        if dim < 2 or dim > MAX_OPT_DIM:
            raise DimensionMismatch(f"optimization supports dimensions 2..{MAX_OPT_DIM}, got {dim}")
        if state is not None and state.dim != dim:
            raise DimensionMismatch("fixed state dimension differs from the space")
        if povm is not None and povm.dim != dim:
            raise DimensionMismatch("fixed POVM dimension differs from the space")
        self.dim = dim
        self.state = state
        self.povm = povm
        self._triu = np.triu_indices(dim, 1)

    @property
    def n_state_params(self) -> int:
        return 0 if self.state is not None else 2 * (self.dim - 1)

    @property
    def n_povm_params(self) -> int:
        return 0 if self.povm is not None else self.dim * self.dim

    @property
    def n_params(self) -> int:
        return self.n_state_params + self.n_povm_params

    def decode_amplitudes(self, params: np.ndarray) -> np.ndarray:
        """Hyperspherical angles and relative phases to a unit vector."""
        d = self.dim
        if d == 2:
            t, phi = float(params[0]), float(params[1])
            return np.array([math.cos(t), math.sin(t) * cmath.exp(1j * phi)])
        angles = params[:d - 1]
        phases = params[d - 1:2 * (d - 1)]
        amps = np.zeros(d, dtype=complex)
        sine_product = 1.0
        for k in range(d - 1):
            amps[k] = sine_product * np.cos(angles[k])
            sine_product *= np.sin(angles[k])
        amps[d - 1] = sine_product
        amps[1:] *= np.exp(1j * phases)
        return amps / np.linalg.norm(amps)

    def decode_basis(self, params: np.ndarray) -> np.ndarray:
        """Measurement-basis unitary from the POVM block of the parameters."""
        d = self.dim
        vec = params[self.n_state_params:]
        h = np.zeros((d, d), dtype=complex)
        h[np.diag_indices(d)] = vec[:d]
        m = d * (d - 1) // 2
        h[self._triu] = vec[d:d + m] + 1j * vec[d + m:]
        h = h + adjoint(np.triu(h, 1))
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w)) @ adjoint(v)

    def decode(self, params: np.ndarray) -> tuple[DensityMatrix, Povm]:
        state, povm = self.state, self.povm
        if state is None:
            state = pure_state(self.decode_amplitudes(params))
        if povm is None:
            povm = projective_povm(self.decode_basis(params))
        return state, povm


@dataclass
class OptimizationResult:
    best_value: float
    best_state: DensityMatrix
    best_povm: Povm
    theta: float | None  # None for a prior-averaged maximum


def _extreme_superposition(family: UnitaryFamily) -> np.ndarray:
    """Amplitudes of the equal superposition of the generator's extreme eigenvectors."""
    w, v = family._gen_eig
    return (v[:, 0] + v[:, -1]) / np.sqrt(2.0)


def context_objective(family: UnitaryFamily, nodes, weights):
    """Score of a (state, POVM) context: the QFI at the single node for a
    free POVM (None), else the weighted classical Fisher information over
    the nodes.  The transfer map at the nodes is built once, here.
    """
    d = family.dim
    maps = family.transfer(nodes)

    def score(context):
        state, povm = context
        rho = family.prepare_input(state).mat
        blocks = (maps @ rho.reshape(-1)).reshape(3, -1, d, d)
        if povm is None:
            return sld_eigen(blocks[0, 0], blocks[1, 0])[0]
        return averaged_information(weights, *outcome_blocks(povm, *blocks))

    return score


def _search(decode, n_params: int, score, starts, restarts: int, seed: int, maxiter: int):
    """Best (value, context) among the start contexts and the restarts' ends.

    Each restart runs Nelder-Mead on -score(decode(params)) from a uniform
    point in [-pi, pi]^n_params.  A context whose score raises
    SingularOutcome, ZeroEvidence or DerivativeOffSupport scores 0 inside a
    run and is never a candidate.
    """

    def evaluate(context):
        try:
            return score(context)
        except (SingularOutcome, ZeroEvidence, DerivativeOffSupport):
            return None

    candidates = [(evaluate(context), context) for context in starts]
    if n_params > 0:
        from scipy.optimize import minimize

        def objective(params):
            value = evaluate(decode(params))
            return 0.0 if value is None else -value

        # terminate on the simplex's value spread alone
        options = {"maxiter": maxiter, "fatol": VALUE_SPREAD_TOL, "xatol": np.inf}
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            x0 = rng.uniform(-np.pi, np.pi, size=n_params)
            context = decode(minimize(objective, x0, method="Nelder-Mead", options=options).x)
            candidates.append((evaluate(context), context))

    candidates = [c for c in candidates if c[0] is not None]
    if not candidates:
        raise SingularOutcome("no evaluable context in the search space")
    return max(candidates, key=lambda c: c[0])


def maximize_fisher(family: UnitaryFamily, space: ContextSpace, theta: float, *,
                    restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                    maxiter: int = MAX_ITER) -> OptimizationResult:
    """Largest classical Fisher information over the context space.

    Each candidate state replaces the family's own rho0, if it has one.  A
    free POVM is the SLD eigenbasis of the chosen state, so only the state
    is searched, and only when neither a fixed state nor the channel-free
    closed form settles it.
    """
    if space.state is not None:
        state = space.state
    elif space.povm is None and not family.channels:
        state = pure_state(_extreme_superposition(family))
    else:
        start = pure_state(_extreme_superposition(family))
        _, (state, _) = _search(
            lambda params: (pure_state(space.decode_amplitudes(params)), space.povm),
            space.n_state_params, context_objective(family, [theta], [1.0]),
            [(start, space.povm)], restarts, seed, maxiter)
    chosen = family.with_state(state)
    povm = space.povm
    if povm is None:
        povm = sld_optimal_povm(sld_solve(chosen, theta))
    # report the value computed through the public scoring path
    best = classical_fisher(chosen, povm, theta).value
    return OptimizationResult(best_value=best, best_state=state, best_povm=povm,
                              theta=float(theta))


def maximize_bayesian(family: UnitaryFamily, space: ContextSpace, prior, *,
                      restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                      maxiter: int = MAX_ITER) -> OptimizationResult:
    """Largest prior-averaged Fisher information over the context space.

    Pointwise SLD measurements do not maximize a prior average, so state
    and measurement are searched together; the structured start pairs the
    extreme-eigenvector superposition with its SLD measurement at the prior
    mean.
    """
    state = space.state
    if state is None:
        state = pure_state(_extreme_superposition(family))
    povm = space.povm
    if povm is None:
        try:
            povm = sld_optimal_povm(sld_solve(family.with_state(state), prior.mean()))
        except DerivativeOffSupport:
            pass
    starts = [] if povm is None else [(state, povm)]
    _, (state, povm) = _search(space.decode, space.n_params,
                               context_objective(family, prior.nodes, prior.weights),
                               starts, restarts, seed, maxiter)
    best = bayesian_information(family.with_state(state), povm, prior)
    return OptimizationResult(best_value=best, best_state=state, best_povm=povm, theta=None)


def circumvention_report(theta: float) -> dict:
    """The qubit z-rotation scenario in four variants, computed live.

    base:        unrestricted context maximum for one pass
    multipass:   the same with the dynamics applied twice
    restricted:  context frozen to the |+> state and the z-basis measurement
    restricted_plus_rotation: the restricted context with a fixed x-axis
                 quarter-turn attached after the dynamics
    """
    plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    z_basis = projective_povm(np.eye(2))
    rotation = unitary_channel(unitary_exp(PAULI_X, np.pi / 4.0))

    base_family = UnitaryFamily(PAULI_Z)
    free = ContextSpace(2)
    frozen = ContextSpace(2, state=plus, povm=z_basis)

    base = maximize_fisher(base_family, free, theta)
    multipass = maximize_fisher(UnitaryFamily(PAULI_Z, passes=2), free, theta)
    restricted = maximize_fisher(base_family, frozen, theta)
    rotated = maximize_fisher(base_family.with_channel(rotation, "post"), frozen, theta)
    return {
        "base": base.best_value,
        "multipass": multipass.best_value,
        "restricted": restricted.best_value,
        "restricted_plus_rotation": rotated.best_value,
    }
