"""Grid priors, the Bayes risk and its comparison with the inverse of the
prior-averaged Fisher information.

Priors live on a fixed quadrature grid (trapezoid weights times density,
normalized).  All downstream quantities are finite sums over that grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DocumentError, _cut, _shown
from .fisher import outcome_information, outcome_trajectory
from .models import UnitaryFamily
from .quantum import Povm

DEFAULT_GRID = 201
MIN_GRID = 3
WEIGHT_SUM_ATOL = 1e-10
EVIDENCE_FLOOR = 1e-300
BCRB_SLACK = 1e-9
VACUOUS_J = 1e-12


class PriorGrid:
    """Quadrature nodes with normalized nonnegative weights."""

    __slots__ = ("nodes", "weights")

    def __init__(self, nodes, weights):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if len(nodes) < MIN_GRID:
            raise ValueError(f"need at least {MIN_GRID} grid nodes, got {len(nodes)}")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly ascending")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        total = float(np.sum(weights))
        if abs(total - 1.0) > WEIGHT_SUM_ATOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        self.nodes = nodes
        self.weights = weights


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    h = np.diff(nodes)
    w = np.zeros_like(nodes)
    w[:-1] += h / 2.0
    w[1:] += h / 2.0
    return w


def grid_prior(nodes, density) -> PriorGrid:
    """Prior from node positions and (unnormalized) density values."""
    nodes = np.asarray(nodes, dtype=float)
    density = np.asarray(density, dtype=float)
    raw = _trapezoid_weights(nodes) * density
    total = float(np.sum(raw))
    if total <= 0:
        raise ValueError("prior density integrates to zero on the grid")
    return PriorGrid(nodes, raw / total)


def _window_nodes(a: float, b: float, n: int) -> np.ndarray:
    """n equally spaced nodes on [a, b], a window whose width b - a is a finite float."""
    if not b > a:
        raise ValueError(f"need b > a, got [{a!r}, {b!r}]")
    if not np.isfinite(b - a):
        raise ValueError(f"the width of [{a!r}, {b!r}] overflows a float")
    return np.linspace(a, b, int(n))


def uniform_prior(a: float, b: float, n: int = DEFAULT_GRID) -> PriorGrid:
    nodes = _window_nodes(a, b, n)
    return grid_prior(nodes, np.ones_like(nodes))


def gaussian_prior(mu: float, sigma: float, a: float, b: float, n: int = DEFAULT_GRID) -> PriorGrid:
    """Gaussian truncated to [a, b] and renormalized on the grid."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    nodes = _window_nodes(a, b, n)
    density = np.exp(-0.5 * ((nodes - mu) / sigma) ** 2)
    return grid_prior(nodes, density)


def parse_prior_spec(spec: str, n: int = DEFAULT_GRID) -> PriorGrid:
    """Parse "uniform:a,b" or "gauss:mu,sigma,a,b" into a PriorGrid.

    Every malformed or out-of-range spec, grid size included, raises
    DocumentError.
    """
    kind, _, rest = spec.partition(":")
    try:
        args = [float(x) for x in rest.split(",")] if rest else []
        if not np.all(np.isfinite(args)):
            raise ValueError("entries must be finite")
        if kind == "uniform" and len(args) == 2:
            return uniform_prior(args[0], args[1], n)
        if kind == "gauss" and len(args) == 4:
            return gaussian_prior(args[0], args[1], args[2], args[3], n)
    except ValueError as exc:
        raise DocumentError(f"bad prior spec {_shown(spec)}: {_cut(str(exc))}") from None
    raise DocumentError(f"bad prior spec {_shown(spec)}; "
                        "expected uniform:a,b or gauss:mu,sigma,a,b")


def _risk(prior: PriorGrid, like: np.ndarray) -> float:
    """The Bayes risk, the expected squared error of E[theta | x], as the sum
    of Pr(x) Var(theta | x) over the outcomes of ``like``, Pr(x | theta_i) by
    node; an outcome of zero evidence occurs with probability 0 and is skipped."""
    joint = prior.weights[:, None] * like            # Pr(theta_i, x)
    evidence = joint.sum(axis=0)                     # Pr(x)
    risk = 0.0
    for x in range(like.shape[1]):
        if evidence[x] <= EVIDENCE_FLOOR:
            continue
        post = joint[:, x] / evidence[x]
        estimate = float(np.dot(prior.nodes, post))
        risk += evidence[x] * float(np.dot(post, (prior.nodes - estimate) ** 2))
    return risk


@dataclass
class BcrbReport:
    """Bayes risk against the inverse of the prior-averaged information;
    ``j`` is the package's one value of that average, J."""

    risk: float
    j: float
    satisfied: bool
    vacuous: bool


def check_bcrb(prior: PriorGrid, model: UnitaryFamily, povm: Povm) -> BcrbReport:
    """Compare the Bayes risk with 1/J.

    J is the prior average of the classical Fisher information.  The bound
    reads risk >= 1/J; with J at numerical zero it is vacuous and reported
    as such (satisfied trivially, since 1/J is +inf).
    """
    p, dp = outcome_trajectory(model, povm, prior.nodes)
    risk = _risk(prior, p)
    j = float(np.dot(prior.weights,
                     outcome_information(model, prior.nodes, p, dp, lambda: povm.factors)))
    if j <= VACUOUS_J:
        return BcrbReport(risk=risk, j=j, satisfied=True, vacuous=True)
    return BcrbReport(risk=risk, j=j, satisfied=bool(risk >= 1.0 / j - BCRB_SLACK), vacuous=False)
