"""Data-processing inequality checks, classical and quantum.

Classical: pushing the outcome distribution through a stochastic map can
only lose Fisher (and Bayesian) information, with equality for permutations.
Quantum: attaching a parameter-independent channel can only lower the
context-maximized information and the SLD quantum Fisher information.

Closed-form pushforwards are held to 1e-9; statements whose two sides both
come from the numerical optimizer get 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fisher import outcome_information, outcome_trajectory, sld_solve
from .models import UnitaryFamily
from .optimize import _check_dims, _maximize_fisher_many
from .quantum import apply_channel_matrix, apply_dual_matrix
from .sampling import (
    check_channel_size,
    random_channel,
    random_hermitian,
    random_projective_povm,
    random_pure_state,
    random_stochastic_map,
    trial_seeds,
)

CLASSICAL_TOL = 1e-9    # closed-form pushforward comparisons
QUANTUM_TOL = 1e-3      # optimizer-owned comparisons
SLD_TOL = 1e-7          # SLD monotonicity at a fixed state
DUAL_TOL = 1e-12        # Heisenberg-picture identity
COLUMN_SUM_ATOL = 1e-12

J_GRID = 31             # quadrature nodes for per-trial Bayesian checks
J_RANGE = (0.2, 1.2)    # uniform prior window for per-trial Bayesian checks
CLASSICAL_DIMS = (2, 3)  # model dimensions drawn by the classical suite

OPT_RESTARTS = 3        # random starts per noisy search, besides the structured one
SEARCH_TRIALS = 256     # quantum trials drawn and searched together


class StochasticMap:
    """Column-stochastic matrix: column x holds Pr(y | x)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"stochastic map must be a matrix, got shape {m.shape}")
        if np.any(m < 0):
            raise ValueError("stochastic map entries must be nonnegative")
        defect = float(np.max(np.abs(m.sum(axis=0) - 1.0)))
        if defect > COLUMN_SUM_ATOL:
            raise ValueError(f"column sums deviate from 1 by {defect:.3e}")
        self.matrix = m

    @property
    def in_count(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_count(self) -> int:
        return self.matrix.shape[0]

    def push(self, p: np.ndarray) -> np.ndarray:
        """Push distributions whose outcome index is the last axis; T is
        linear, so it carries a derivative as it carries the probabilities."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.in_count:
            raise ValueError(f"map expects {self.in_count} outcomes, got {p.shape[-1]}")
        return p @ self.matrix.T


@dataclass
class DpiTrialReport:
    trial: int
    seed: int
    kind: str
    i_before: float
    i_after: float
    gap: float
    violated: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields in order, with ``extra``'s entries instead of ``extra``."""
        out = dict(vars(self))
        out.update(out.pop("extra"))
        return out


def _bayesian_pair(model, povm, tmap, nodes, weights):
    """Prior-averaged information before and after post-processing; one node
    of weight 1 gives the pointwise pair.  Pushed outcome y has the effect
    sum_x T_yx E_x, whose factor rows are the sqrt(T_yx) F_x."""
    before = outcome_trajectory(model, povm, nodes)
    after = tuple(map(tmap.push, before))

    def pushed_factors():
        f = povm.factors
        return (np.sqrt(tmap.matrix)[:, :, None, None] * f).reshape(tmap.out_count, -1, f.shape[-1])

    return (float(np.dot(weights, outcome_information(model, nodes, *before,
                                                      lambda: povm.factors))),
            float(np.dot(weights, outcome_information(model, nodes, *after, pushed_factors))))


def classical_dpi_suite(trials: int, seed: int) -> list[DpiTrialReport]:
    """Randomized classical data-processing checks.

    Each trial draws a model, a projective measurement and a stochastic
    post-processing map, then verifies that neither the pointwise Fisher
    information nor its prior average increases, to within CLASSICAL_TOL.
    """
    seeds = trial_seeds(seed, trials)
    lo, hi = J_RANGE
    nodes = np.linspace(lo, hi, J_GRID)
    weights = np.full(J_GRID, (hi - lo) / (J_GRID - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weights /= weights.sum()

    reports = []
    for trial in range(trials):
        rng = np.random.default_rng(int(seeds[trial]))
        dim = int(rng.choice(CLASSICAL_DIMS))
        model = UnitaryFamily(random_hermitian(rng, dim), random_pure_state(rng, dim))
        povm = random_projective_povm(rng, dim)
        tmap = StochasticMap(random_stochastic_map(rng, int(rng.integers(2, 5)), dim))
        theta = float(rng.uniform(lo, hi))

        i_before, i_after = _bayesian_pair(model, povm, tmap, [theta], [1.0])
        j_before, j_after = _bayesian_pair(model, povm, tmap, nodes, weights)
        violated = bool(i_after > i_before + CLASSICAL_TOL
                        or j_after > j_before + CLASSICAL_TOL)
        reports.append(DpiTrialReport(
            trial=trial, seed=int(seeds[trial]), kind="classical",
            i_before=i_before, i_after=i_after, gap=i_before - i_after,
            violated=violated,
            extra={"j_before": j_before, "j_after": j_after, "theta": theta, "dim": dim},
        ))
    return reports


def quantum_dpi_suite(trials: int, seed: int, dim: int = 2,
                      kraus_count: int = 2) -> list[DpiTrialReport]:
    """Randomized quantum data-processing checks.

    Each trial draws a unitary family and a random channel, maximizes the
    Fisher information over contexts with and without the channel, and
    verifies the channel never helps (within the optimizer's QUANTUM_TOL).
    At the optimizer's favourite state it additionally checks the SLD
    quantum Fisher information is monotone and the Heisenberg dual identity
    holds.
    """
    seeds = trial_seeds(seed, trials)
    _check_dims(dim)
    check_channel_size(dim, kraus_count)
    reports = []
    for first in range(0, trials, SEARCH_TRIALS):
        block = range(first, min(first + SEARCH_TRIALS, trials))
        draws = []
        for trial in block:
            rng = np.random.default_rng(int(seeds[trial]))
            family = UnitaryFamily(random_hermitian(rng, dim))
            channel = random_channel(rng, dim, kraus_count)
            noisy = family.with_channel(channel, "post")
            theta = float(rng.uniform(*J_RANGE))
            opt_seed = int(rng.integers(2 ** 31))
            draws.append((family, channel, noisy, theta, opt_seed))
        # the bare families take the closed form; the noisy ones are
        # searched, the restarts of every trial in the block together
        problems = ([(family, theta, opt_seed) for family, _, _, theta, opt_seed in draws]
                    + [(noisy, theta, opt_seed + 1) for _, _, noisy, theta, opt_seed in draws])
        results = _maximize_fisher_many(problems, OPT_RESTARTS)
        for trial, draw, before, after in zip(block, draws, results, results[len(draws):]):
            reports.append(_quantum_report(trial, int(seeds[trial]), draw, before, after))
    return reports


def _quantum_report(trial: int, seed: int, draw, before, after) -> DpiTrialReport:
    """The checks of one quantum trial at its searched optima."""
    family, channel, _, theta, _ = draw
    bare = family.with_state(after.best_state)
    sld_before = sld_solve(bare, theta).qfi
    sld_after = after.sld.qfi

    rho = bare.trajectory([theta])[0][0]
    pushed = apply_channel_matrix(channel, rho)
    pulled = apply_dual_matrix(channel, after.best_povm.effects)
    dual_defect = max(
        abs(np.trace(pushed @ e).real - np.trace(rho @ f).real)
        for e, f in zip(after.best_povm.effects, pulled)
    )

    violated = bool(
        after.best_value > before.best_value + QUANTUM_TOL
        or sld_after > sld_before + SLD_TOL
        or dual_defect > DUAL_TOL
    )
    return DpiTrialReport(
        trial=trial, seed=seed, kind="quantum",
        i_before=before.best_value, i_after=after.best_value,
        gap=before.best_value - after.best_value, violated=violated,
        extra={"sld_before": sld_before, "sld_after": sld_after,
               "dual_defect": float(dual_defect), "theta": theta},
    )

