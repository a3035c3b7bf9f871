"""A second route to the Bayes risk, the reference for the ``risk`` of ``bayes.check_bcrb``.

That sums Pr(x) Var(theta | x) over the outcomes; this averages the
posterior mean's squared error over the prior and the likelihood instead.
The two are the same finite sum reorganized, so they agree to rounding.
Also the mean and variance of a prior grid, the risk with no data.
"""

import numpy as np

from fisherinfo.bayes import EVIDENCE_FLOOR
from fisherinfo.fisher import outcome_trajectory


def estimator_mse(prior, model, povm) -> float:
    """sum over x and theta_i of Pr(theta_i, x) (theta_i - E[theta | x])^2,
    skipping the outcomes that ``check_bcrb`` skips."""
    joint = prior.weights[:, None] * outcome_trajectory(model, povm, prior.nodes)[0]
    evidence = joint.sum(axis=0)
    risk = 0.0
    for x in np.flatnonzero(evidence > EVIDENCE_FLOOR):
        estimate = float(np.dot(prior.nodes, joint[:, x] / evidence[x]))
        risk += float(np.dot(joint[:, x], (prior.nodes - estimate) ** 2))
    return risk


def grid_mean(prior) -> float:
    return float(np.dot(prior.nodes, prior.weights))


def grid_variance(prior) -> float:
    return float(np.dot(prior.weights, (prior.nodes - grid_mean(prior)) ** 2))
