"""Fisher information functionals: classical, Bayesian, and quantum (SLD).

The classical score sums (dp_x)^2 / p_x over measurement outcomes.  An
outcome whose probability and probability-derivative both (numerically)
vanish sits at a removable singularity of that ratio; its contribution is
the limit 2 * d2p_x, read from the model's second derivative.  A vanishing
probability with a non-vanishing derivative has divergent information and
raises SingularOutcome instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DerivativeOffSupport, SingularOutcome
from .linalg import adjoint
from .models import ParameterizedModel
from .quantum import Povm, born_probabilities, outcome_traces, projective_povm

P_FLOOR = 1e-12       # probabilities at or below this count as zero
D_FLOOR = 1e-9        # derivative magnitude above this at p ~ 0 is divergent

EPS_SLD = 1e-10       # eigenvalue-pair sums at or below this are off support
DELTA_SLD = 1e-8      # derivative weight allowed on the off-support block


@dataclass
class FisherValue:
    """Classical Fisher information of one (model, POVM, theta) evaluation."""

    value: float
    theta: float


@dataclass
class SldResult:
    """Symmetric logarithmic derivative and the quantum Fisher information."""

    sld: np.ndarray
    qfi: float
    support_rank: int


def information_from_outcomes(p, dp, d2p=None) -> float:
    """Score an outcome-probability vector and its derivative.

    ``d2p``, if given, holds d2p_x/dtheta2 and is only read for outcomes at
    a removable singularity.  Without it such outcomes contribute zero.
    """
    total = 0.0
    for x in range(len(p)):
        px = float(p[x])
        dx = float(dp[x])
        if px > P_FLOOR:
            total += dx * dx / px
        elif abs(dx) > D_FLOOR:
            raise SingularOutcome(
                f"outcome {x} has probability {px:.3e} but derivative {dx:.3e}"
            )
        elif d2p is not None:
            total += max(0.0, 2.0 * float(d2p[x]))
    return total


def outcome_trajectory(model: ParameterizedModel, povm: Povm, thetas):
    """Born probabilities p and their first two theta-derivatives.

    Returns (p, dp, d2p), each shaped (len(thetas), len(povm)).  Derivatives
    come from the model's trajectory; they are never re-differenced from
    probabilities.
    """
    return outcome_blocks(povm, *model.trajectory(thetas))


def outcome_blocks(povm: Povm, rho, drho, d2rho):
    """(p, dp, d2p) of a state and its derivatives, one matrix or a stack each."""
    p = born_probabilities(rho, povm)
    dp, d2p = outcome_traces(np.stack((drho, d2rho)), povm)
    return p, dp, d2p


def classical_fisher(model: ParameterizedModel, povm: Povm, theta: float) -> FisherValue:
    """Fisher information of the Born distribution at ``theta``."""
    p, dp, d2p = outcome_trajectory(model, povm, [theta])
    value = information_from_outcomes(p[0], dp[0], d2p[0])
    return FisherValue(value=value, theta=float(theta))


def averaged_information(weights, p, dp, d2p) -> float:
    """Weighted sum of the scores of stacked outcome rows, one row per node."""
    return float(np.dot(weights, [information_from_outcomes(*row) for row in zip(p, dp, d2p)]))


def bayesian_information(model: ParameterizedModel, povm: Povm, prior) -> float:
    """Average Fisher information of the measurement under a prior grid."""
    return averaged_information(prior.weights, *outcome_trajectory(model, povm, prior.nodes))


def sld_solve(model: ParameterizedModel, theta: float) -> SldResult:
    """Solve rho' = (rho L + L rho) / 2 for the SLD L, and the QFI."""
    rho, drho, _ = model.trajectory([theta])
    qfi, v, l_eig, on_support = sld_eigen(rho[0], drho[0])
    sld = v @ l_eig @ adjoint(v)
    sld = (sld + adjoint(sld)) / 2.0
    support_rank = int(np.count_nonzero(on_support.diagonal()))
    return SldResult(sld=sld, qfi=qfi, support_rank=support_rank)


def sld_eigen(rho: np.ndarray, drho: np.ndarray):
    """The SLD of (rho, rho') in the eigenbasis of rho, and the QFI.

    L_ij = 2 rho'_ij / (l_i + l_j) wherever the eigenvalue pair-sum is
    above EPS_SLD.  Derivative weight above DELTA_SLD on the remaining block
    means no SLD exists.  Returns (qfi, eigenvectors, L in the eigenbasis,
    the on-support mask of eigenvalue pairs).
    """
    w, v = np.linalg.eigh((rho + adjoint(rho)) / 2.0)
    d_eig = adjoint(v) @ drho @ v

    pair_sums = w[:, None] + w[None, :]
    on_support = pair_sums > EPS_SLD
    off_weight = np.abs(np.where(on_support, 0.0, d_eig))
    worst = float(off_weight.max()) if off_weight.size else 0.0
    if worst > DELTA_SLD:
        raise DerivativeOffSupport(
            f"derivative has weight {worst:.3e} outside the state support"
        )
    l_eig = np.where(on_support, 2.0 * d_eig / np.where(on_support, pair_sums, 1.0), 0.0)
    qfi = float(np.sum(w[:, None] * np.abs(l_eig) ** 2).real)
    return qfi, v, l_eig, on_support


def sld_optimal_povm(result: SldResult) -> Povm:
    """Projective measurement in the SLD eigenbasis.

    For a scalar parameter this measurement's classical Fisher information
    equals the QFI.
    """
    _, v = np.linalg.eigh((result.sld + adjoint(result.sld)) / 2.0)
    return projective_povm(v)
