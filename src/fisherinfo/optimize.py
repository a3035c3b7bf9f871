"""Context optimization: maximize information over states and measurements.

A context is a (state, POVM) pair.  Either side can be fixed, which models
a restricted experiment; the free sides are parameterized by real vectors
and searched with multi-start Nelder-Mead.  One structured start per run
evaluates the generator's extreme-eigenvector superposition together with
the SLD eigenbasis measurement, which for unitary families is the exact
optimum; random restarts take it from there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DerivativeOffSupport, DimensionMismatch, SingularOutcome, ZeroEvidence
from .fisher import (
    classical_fisher,
    bayesian_information,
    information_from_outcomes,
    sld_solve,
    sld_optimal_povm,
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

    __slots__ = ("dim", "state", "povm", "label", "_triu")

    def __init__(self, dim: int, state: DensityMatrix | None = None,
                 povm: Povm | None = None, label: str = "unrestricted"):
        if dim < 2 or dim > MAX_OPT_DIM:
            raise DimensionMismatch(f"optimization supports dimensions 2..{MAX_OPT_DIM}, got {dim}")
        if state is not None and state.dim != dim:
            raise DimensionMismatch("fixed state dimension differs from the space")
        if povm is not None and povm.dim != dim:
            raise DimensionMismatch("fixed POVM dimension differs from the space")
        self.dim = dim
        self.state = state
        self.povm = povm
        self.label = label
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
        if d == 2:
            # traceless part squares to r^2, so the exponential closes in
            # cos/sinc form without an eigendecomposition
            mean = 0.5 * float(vec[0] + vec[1])
            b3 = 0.5 * float(vec[0] - vec[1])
            re, im = float(vec[2]), float(vec[3])
            r = math.sqrt(b3 * b3 + re * re + im * im)
            s = math.sin(r) / r if r > 1e-300 else 1.0
            phase = cmath.exp(-1j * mean)
            c = math.cos(r)
            off = -1j * s * complex(re, im)
            return np.array([
                [phase * (c - 1j * s * b3), phase * off],
                [-phase * off.conjugate(), phase * (c + 1j * s * b3)],
            ])
        h = np.zeros((d, d), dtype=complex)
        h[np.diag_indices(d)] = vec[:d]
        m = d * (d - 1) // 2
        h[self._triu] = vec[d:d + m] + 1j * vec[d + m:]
        h = h + adjoint(np.triu(h, 1))
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w)) @ adjoint(v)

    def decode_state(self, params: np.ndarray) -> DensityMatrix:
        if self.state is not None:
            return self.state
        return pure_state(self.decode_amplitudes(params))

    def decode_povm(self, params: np.ndarray) -> Povm:
        if self.povm is not None:
            return self.povm
        return projective_povm(self.decode_basis(params))

    def decode(self, params: np.ndarray) -> tuple[DensityMatrix, Povm]:
        return self.decode_state(params), self.decode_povm(params)


@dataclass
class OptimizationResult:
    best_value: float
    best_state: DensityMatrix
    best_povm: Povm
    restarts_used: int
    seed: int
    theta: float | None = None


def _extreme_superposition(family: UnitaryFamily) -> DensityMatrix:
    """Equal superposition of the generator's extreme eigenvectors."""
    w, v = family._gen_eig
    psi = (v[:, 0] + v[:, -1]) / np.sqrt(2.0)
    return pure_state(psi)


def _fast_fisher_objective(family: UnitaryFamily, space: ContextSpace, theta: float):
    """Precompiled Fisher evaluation for generator families with post channels.

    Computes the same outcome probabilities and derivatives as the public
    classical_fisher path, minus per-call object validation, which keeps
    the inner optimization loop cheap.  Returns None when the family shape
    is not supported (a pre-placed channel), letting callers fall back to
    the generic path.
    """
    if any(placement != "post" for _, placement in family.channels):
        return None
    k = family.passes
    u_theta = family.propagator(theta)
    gen = family.generator
    kraus_stack = [[(op, adjoint(op)) for op in ch.kraus] for ch, _ in family.channels]
    fixed_rho = space.state.mat if space.state is not None else None
    fixed_effects = (np.stack(space.povm.effects) if space.povm is not None else None)

    def evaluate(params: np.ndarray) -> float:
        if fixed_rho is None:
            phi = u_theta @ space.decode_amplitudes(params)
            rho = np.outer(phi, phi.conj())
        else:
            rho = u_theta @ fixed_rho @ adjoint(u_theta)
        drho = -1j * k * (gen @ rho - rho @ gen)
        for ops in kraus_stack:
            rho = sum(op @ rho @ op_dag for op, op_dag in ops)
            drho = sum(op @ drho @ op_dag for op, op_dag in ops)
        if fixed_effects is None:
            cols = space.decode_basis(params)
            p = np.einsum("ji,ji->i", cols.conj(), rho @ cols).real
            dp = np.einsum("ji,ji->i", cols.conj(), drho @ cols).real
        else:
            p = np.einsum("xij,ji->x", fixed_effects, rho).real
            dp = np.einsum("xij,ji->x", fixed_effects, drho).real
        return information_from_outcomes(np.clip(p, 0.0, None), dp)

    return evaluate


def _structured_candidates(family: UnitaryFamily, space: ContextSpace, theta: float):
    """Directly evaluated starting contexts (no parameter encoding needed)."""
    states = [space.state] if space.state is not None else [_extreme_superposition(family)]
    for state in states:
        if space.povm is not None:
            yield state, space.povm
        else:
            try:
                result = sld_solve(family.with_state(state), theta)
            except DerivativeOffSupport:
                continue
            yield state, sld_optimal_povm(result)


def _search(family: UnitaryFamily, space: ContextSpace, score, theta_for_warm,
            restarts: int, seed: int, maxiter: int, fast_score=None):
    candidates = []
    for state, povm in _structured_candidates(family, space, theta_for_warm):
        try:
            candidates.append((score(state, povm), state, povm))
        except (SingularOutcome, ZeroEvidence):
            pass

    n = space.n_params
    if n > 0:
        def objective(params):
            try:
                if fast_score is not None:
                    return -fast_score(params)
                state, povm = space.decode(params)
                return -score(state, povm)
            except (SingularOutcome, ZeroEvidence):
                return 0.0

        # terminate on the simplex's value spread alone
        options = {"maxiter": maxiter, "fatol": VALUE_SPREAD_TOL, "xatol": np.inf}
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            x0 = rng.uniform(-np.pi, np.pi, size=n)
            res = minimize(objective, x0, method="Nelder-Mead", options=options)
            try:
                state, povm = space.decode(res.x)
                candidates.append((score(state, povm), state, povm))
            except (SingularOutcome, ZeroEvidence):
                continue

    if not candidates:
        raise SingularOutcome("no evaluable context in the search space")
    value, state, povm = max(candidates, key=lambda c: c[0])
    return value, state, povm


def maximize_fisher(family: UnitaryFamily, space: ContextSpace, theta: float, *,
                    restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                    maxiter: int = MAX_ITER) -> OptimizationResult:
    """Largest classical Fisher information over the context space.

    Each candidate state replaces the family's own rho0, if it has one.
    """

    def score(state, povm):
        return classical_fisher(family.with_state(state), povm, theta).value

    fast = _fast_fisher_objective(family, space, theta)
    value, state, povm = _search(family, space, score, theta, restarts, seed, maxiter,
                                 fast_score=fast)
    # report the value recomputed through the public scoring path
    best = classical_fisher(family.with_state(state), povm, theta).value
    return OptimizationResult(best_value=best, best_state=state, best_povm=povm,
                              restarts_used=restarts, seed=seed, theta=float(theta))


def maximize_bayesian(family: UnitaryFamily, space: ContextSpace, prior, *,
                      restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                      maxiter: int = MAX_ITER) -> OptimizationResult:
    """Largest prior-averaged Fisher information over the context space."""

    def score(state, povm):
        return bayesian_information(family.with_state(state), povm, prior)

    theta_for_warm = float(np.dot(prior.nodes, prior.weights))
    value, state, povm = _search(family, space, score, theta_for_warm, restarts, seed, maxiter)
    best = bayesian_information(family.with_state(state), povm, prior)
    return OptimizationResult(best_value=best, best_state=state, best_povm=povm,
                              restarts_used=restarts, seed=seed, theta=None)


def circumvention_report(theta: float, *, seed: int = 0, restarts: int = 8) -> dict:
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
    free = ContextSpace(2, label="unrestricted")
    frozen = ContextSpace(2, state=plus, povm=z_basis, label="fixed |+> state, z-basis")

    base = maximize_fisher(base_family, free, theta, restarts=restarts, seed=seed)
    multipass = maximize_fisher(UnitaryFamily(PAULI_Z, passes=2), free, theta,
                                restarts=restarts, seed=seed)
    restricted = maximize_fisher(base_family, frozen, theta, restarts=restarts, seed=seed)
    rotated = maximize_fisher(base_family.with_channel(rotation, "post"), frozen, theta,
                              restarts=restarts, seed=seed)
    return {
        "base": base.best_value,
        "multipass": multipass.best_value,
        "restricted": restricted.best_value,
        "restricted_plus_rotation": rotated.best_value,
    }
