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
from .models import UnitaryFamily
from .quantum import Povm, born_probabilities, outcome_traces, projective_povm

P_FLOOR = 1e-12       # probabilities at or below this count as zero
D_FLOOR = 1e-9        # derivative magnitude above this at p ~ 0 is divergent

EPS_SLD = 1e-10       # eigenvalue-pair sums at or below this are off support
DELTA_SLD = 1e-8      # derivative weight allowed on the off-support block


@dataclass
class SldResult:
    """Symmetric logarithmic derivative and the quantum Fisher information."""

    sld: np.ndarray
    qfi: float
    support_rank: int


def outcome_scores(p, dp, d2p) -> tuple[np.ndarray, np.ndarray]:
    """Scores of outcome rows (..., outcomes) and the mask of singular outcomes.

    ``d2p`` holds d2p_x/dtheta2 and is only read for outcomes at a
    removable singularity, which score the limit 2 max(d2p_x, 0).  The
    terms are added in outcome order, as a loop over the outcomes adds them.
    """
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    live = p > P_FLOOR
    curvature = 2.0 * np.asarray(d2p, dtype=float)
    limit = np.where(curvature > 0.0, curvature, 0.0)
    terms = np.where(live, dp * dp / np.where(live, p, 1.0), limit)
    total = np.zeros(terms.shape[:-1])
    for x in range(terms.shape[-1]):
        total = total + terms[..., x]
    return total, ~live & (np.abs(dp) > D_FLOOR)


def information_from_outcomes(p, dp, d2p):
    """Score outcome probabilities and their first two derivatives, one row
    or a stack (..., outcomes), as ``outcome_scores`` does; a float for one
    row.  The first singular outcome, in row-major order, raises
    SingularOutcome."""
    total, singular = outcome_scores(p, dp, d2p)
    if singular.any():
        first = np.unravel_index(np.argmax(singular), singular.shape)
        raise SingularOutcome(
            f"outcome {first[-1]} has probability {float(np.asarray(p)[first]):.3e} "
            f"but derivative {float(np.asarray(dp)[first]):.3e}"
        )
    return total if total.ndim else float(total)


def outcome_trajectory(model: UnitaryFamily, povm: Povm, thetas):
    """Born probabilities p and their first two theta-derivatives.

    Returns (p, dp, d2p), each shaped (len(thetas), len(povm)).  Derivatives
    are analytic; they are never re-differenced from probabilities.  With
    fewer effects than nodes the effects are pulled back
    (``pulled_back_outcomes``); otherwise the states are pushed forward
    (``trajectory``) and traced against the effects.
    """
    if len(povm) < len(thetas):
        return model.pulled_back_outcomes(povm, thetas)
    return outcome_blocks(povm, *model.trajectory(thetas))


def outcome_blocks(povm: Povm, rho, drho, d2rho):
    """(p, dp, d2p) of states and their derivatives, each a stack (..., d, d)."""
    p = born_probabilities(rho, povm)
    dp, d2p = outcome_traces(np.stack((drho, d2rho)), povm)
    return p, dp, d2p


def classical_fisher(model: UnitaryFamily, povm: Povm, theta: float) -> float:
    """Fisher information of the Born distribution at ``theta``."""
    p, dp, d2p = outcome_trajectory(model, povm, [theta])
    return information_from_outcomes(p[0], dp[0], d2p[0])


def averaged_information(weights, p, dp, d2p) -> float:
    """Weighted sum of the scores of stacked outcome rows, one row per node."""
    return float(np.dot(weights, information_from_outcomes(p, dp, d2p)))


def bayesian_information(model: UnitaryFamily, povm: Povm, prior) -> float:
    """Average Fisher information of the measurement under a prior grid."""
    return averaged_information(prior.weights, *outcome_trajectory(model, povm, prior.nodes))


def sld_solve(model: UnitaryFamily, theta: float) -> SldResult:
    """Solve rho' = (rho L + L rho) / 2 for the SLD L, and the QFI."""
    rho, drho, _ = model.trajectory([theta])
    qfi, v, l_eig, on_support, off_weight = sld_eigen(rho[0], drho[0])
    if off_weight:
        raise DerivativeOffSupport(
            f"derivative has weight {float(off_weight):.3e} outside the state support"
        )
    sld = v @ l_eig @ adjoint(v)
    sld = (sld + adjoint(sld)) / 2.0
    support_rank = int(np.count_nonzero(on_support.diagonal()))
    return SldResult(sld=sld, qfi=float(qfi), support_rank=support_rank)


def sld_eigen(rho: np.ndarray, drho: np.ndarray):
    """The SLD of (rho, rho') in the eigenbasis of rho, and the QFI, for one
    pair of matrices or a stack (..., d, d).

    L_ij = 2 rho'_ij / (l_i + l_j) wherever the eigenvalue pair-sum is
    above EPS_SLD.  Derivative weight above DELTA_SLD on the remaining block
    means no SLD exists.  Returns (qfi, eigenvectors, L in the eigenbasis,
    the on-support mask of eigenvalue pairs, the off-support weight): the
    weight is 0 where an SLD exists, else the largest off-support entry,
    and there the qfi reads 0.
    """
    w, v = np.linalg.eigh((rho + adjoint(rho)) / 2.0)
    d_eig = adjoint(v) @ drho @ v

    pair_sums = w[..., :, None] + w[..., None, :]
    on_support = pair_sums > EPS_SLD
    worst = np.abs(np.where(on_support, 0.0, d_eig)).max(axis=(-2, -1))
    off_weight = np.where(worst > DELTA_SLD, worst, 0.0)
    l_eig = np.where(on_support, 2.0 * d_eig / np.where(on_support, pair_sums, 1.0), 0.0)
    qfi = (w[..., :, None] * np.abs(l_eig) ** 2).sum(axis=(-2, -1))
    return np.where(off_weight > 0.0, 0.0, qfi), v, l_eig, on_support, off_weight


def sld_optimal_povm(result: SldResult) -> Povm:
    """Projective measurement in the SLD eigenbasis.

    For a scalar parameter this measurement's classical Fisher information
    equals the QFI.
    """
    _, v = np.linalg.eigh((result.sld + adjoint(result.sld)) / 2.0)
    return projective_povm(v)
