"""Context optimization: maximize information over states and measurements.

A context is a (state, POVM) pair.  Either side can be fixed, which models
a restricted experiment.  At one theta the measurement side is never
searched: the SLD eigenbasis measurement attains the quantum Fisher
information at every state (Braunstein & Caves 1994), so a free POVM is
read off the chosen state's SLD.  A fixed state is never searched either.
Without channels, the best state for a free POVM is the equal
superposition of the generator's extreme eigenvectors, worth
k^2 (lmax - lmin)^2 (Giovannetti, Lloyd & Maccone 2006); a post channel
with one Kraus operator, a unitary, leaves the QFI unchanged and so keeps
that state.  Otherwise the
2(dim-1) state parameters are searched with multi-start Nelder-Mead,
scored by the QFI for a free POVM or by the classical Fisher information
for a fixed one.

The search is the package's own (``nelder_mead``): scipy's Nelder-Mead,
step for step, run on many simplices at once, every restart of every
problem in lockstep.  Each iteration scores all their candidate points in
one stacked call.  Each problem's theta is fixed during a search, so the
dynamics and the channels form one linear map at that theta: from the
input amplitudes to the Kraus vectors (``UnitaryFamily.vector_map``) for
the QFI, from the input matrix after the pre channels to (rho, rho')
(``UnitaryFamily.transfer``) for the Born rows of a fixed POVM.
``context_objective`` builds them once per problem and scores a stack of
candidate amplitudes, one matrix product per row and the stacked QFI or
Born kernel, never a rebuilt model.  Each row scores as it would alone, up
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, _cut
from .fisher import (
    amplitude_scores,
    classical_fisher,
    model_scores,
    outcome_blocks,
    qfi_from_vectors,
    sld_optimal_povm,
    sld_solve,
)
from .linalg import PAULI_X, PAULI_Z, unitary_exp
from .models import UnitaryFamily, kraus_columns
from .quantum import DensityMatrix, Povm, projective_povm, projectors, pure_state, unitary_channel

MAX_OPT_DIM = 8          # larger searches are out of scope
VALUE_SPREAD_TOL = 1e-10  # simplex value spread at termination
MAX_ITER = 2000
DEFAULT_RESTARTS = 32
SCORE_BYTES = 1 << 24     # per-row arrays one scoring step holds at once

# Nelder-Mead as scipy sets it up: the initial simplex steps a nonzero
# coordinate by NONZDELT of itself and a zero one to ZDELT; reflection,
# expansion, contraction and shrink coefficients
NONZDELT = 0.05
ZDELT = 0.00025
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
# the reflection, expansion, outside and inside contraction of a simplex
# are TRIAL_A * xbar - TRIAL_B * worst, the products scipy forms
TRIAL_A = np.array([1 + RHO, 1 + RHO * CHI, 1 + PSI * RHO, 1 - PSI])[:, None, None]
TRIAL_B = np.array([RHO, RHO * CHI, PSI * RHO, -PSI])[:, None, None]


def nelder_mead(objective, x0s, maxiter: int):
    """Minimize from each row of ``x0s``, all simplices in lockstep.

    Each start follows scipy's ``minimize(method="Nelder-Mead")`` step for
    step, with its default simplex and coefficients, ``xatol=inf``,
    ``fatol=VALUE_SPREAD_TOL`` and ``maxiter`` with no ``maxfev``: it stops
    once its simplex's value spread is at most VALUE_SPREAD_TOL, or after
    ``maxiter - 1`` iterations.  ``objective(x, rows)`` returns the values
    at the points ``x`` (m, n); ``rows[i]`` is the start whose simplex point
    i belongs to.  Each iteration scores the reflection, the expansion and
    both contractions of every live simplex in one call, then takes each
    simplex's branch as scipy's if-chain does; without an evaluation budget
    the points a branch does not use change nothing.  A shrink takes one
    more call.

    Returns (x, nit): each start's best vertex and its iteration count.
    """
    x0s = np.asarray(x0s, dtype=float)
    k, n = x0s.shape
    sim = np.repeat(x0s[:, None, :], n + 1, axis=1)
    for j in range(n):
        step = sim[:, j + 1, j]
        sim[:, j + 1, j] = np.where(step != 0, (1 + NONZDELT) * step, ZDELT)
    live = np.arange(k)
    fsim = objective(sim.reshape(-1, n), np.repeat(live, n + 1)).reshape(k, n + 1)
    # scipy sorts twice before its first iteration
    sim, fsim = _sorted(*_sorted(sim, fsim))
    x = np.empty_like(x0s)
    nit = np.empty(k, dtype=int)
    iterations = 1
    while True:
        done = ((np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= VALUE_SPREAD_TOL)
                | (iterations >= maxiter))
        if done.any():
            x[live[done]] = sim[done, 0]
            nit[live[done]] = iterations
            live, sim, fsim = live[~done], sim[~done], fsim[~done]
            if not len(live):
                return x, nit

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        points = TRIAL_A * xbar - TRIAL_B * sim[:, -1]
        values = objective(points.reshape(-1, n), np.concatenate((live,) * 4)).reshape(4, -1)
        fr, fe, fc, fcc = values
        # scipy's if-chain on the reflection value fr: the trial point that
        # replaces the worst vertex (0 reflection, 1 expansion, 2 outside and
        # 3 inside contraction), or -1 to shrink
        choice = np.where(
            fr < fsim[:, 0], np.where(fe < fr, 1, 0), np.where(
                fr < fsim[:, -2], 0, np.where(
                    fr < fsim[:, -1], np.where(fc <= fr, 2, -1),
                    np.where(fcc < fsim[:, -1], 3, -1))))
        rows = np.flatnonzero(choice >= 0)
        sim[rows, -1] = points[choice[rows], rows]
        fsim[rows, -1] = values[choice[rows], rows]
        shrink = choice < 0
        if shrink.any():
            kept = sim[shrink, :1]
            sim[shrink, 1:] = kept + SIGMA * (sim[shrink, 1:] - kept)
            fsim[shrink, 1:] = objective(sim[shrink, 1:].reshape(-1, n),
                                         np.repeat(live[shrink], n)).reshape(-1, n)
        iterations += 1
        sim, fsim = _sorted(sim, fsim)


def _sorted(sim, fsim):
    """Each simplex's vertices in ascending order of value."""
    order = np.argsort(fsim, axis=1)
    at = np.arange(len(fsim))[:, None]
    return sim[at, order], fsim[at, order]


class ContextSpace:
    """The search space of contexts for one optimization.

    A None state (or POVM) means that side is free: a pure state carries
    2(dim-1) real parameters (hyperspherical angles and relative phases), a
    free POVM none, since it is read off the chosen state's SLD.
    """

    __slots__ = ("dim", "state", "povm", "n_params")

    def __init__(self, dim: int, state: DensityMatrix | None = None,
                 povm: Povm | None = None):
        if dim < 2 or dim > MAX_OPT_DIM:
            raise DimensionMismatch(
                f"optimization supports dimensions 2..{MAX_OPT_DIM}, got {_cut(str(dim))}")
        if state is not None and state.dim != dim:
            raise DimensionMismatch("fixed state dimension differs from the space")
        if povm is not None and povm.dim != dim:
            raise DimensionMismatch("fixed POVM dimension differs from the space")
        self.dim = dim
        self.state = state
        self.povm = povm
        self.n_params = 0 if state is not None else 2 * (dim - 1)

    def decode_amplitudes(self, params: np.ndarray) -> np.ndarray:
        """Hyperspherical angles and relative phases to unit vectors, for one
        parameter vector or a stack (..., n_params)."""
        d = self.dim
        params = np.asarray(params, dtype=float)
        amps = np.zeros(params.shape[:-1] + (d,), dtype=complex)
        if d == 2:
            amps[..., 0] = np.cos(params[..., 0])
            amps[..., 1] = np.sin(params[..., 0]) * np.exp(1j * params[..., 1])
            return amps
        angles = params[..., :d - 1]
        phases = params[..., d - 1:2 * (d - 1)]
        sine_product = 1.0
        for k in range(d - 1):
            amps[..., k] = sine_product * np.cos(angles[..., k])
            sine_product = sine_product * np.sin(angles[..., k])
        amps[..., d - 1] = sine_product
        amps[..., 1:] *= np.exp(1j * phases)
        # one vector takes the whole-vector norm, a stack the norm of each row
        return amps / np.linalg.norm(amps, axis=None if amps.ndim == 1 else -1, keepdims=True)


@dataclass
class OptimizationResult:
    best_value: float
    best_state: DensityMatrix
    best_povm: Povm


def _extreme_superposition(family: UnitaryFamily) -> np.ndarray:
    """Amplitudes of the equal superposition of the generator's extreme eigenvectors."""
    w, v = family._gen_eig
    return (v[:, 0] + v[:, -1]) / np.sqrt(2.0)


def context_objective(families, thetas):
    """Scores of stacked contexts, each row against its own problem.

    Problem k is ``families[k]`` at ``thetas[k]``; its maps there are built
    once, here, when a score first needs them.  ``score(problems,
    amplitudes, povm)`` takes each row's problem index, its input state's
    amplitudes before the pre channels (m, d), and its measurement: None
    for the SLD measurement, else a Povm for every row.  It returns each
    row's QFI (``qfi_from_vectors``) or classical Fisher information
    (``model_scores``, a near-null outcome scored from its amplitudes), a
    float.  Rows are scored SCORE_BYTES at a time, so memory does not grow
    with m.
    """
    d = families[0].dim
    maps = {}
    prepared = [(k, family) for k, family in enumerate(families)
                if any(placement == "pre" for _, placement in family.channels)]
    # a row holds its (rho, rho') blocks and the Born kernel's stack of them,
    # 4 d^2 numbers, or its vector map and the QFI kernel's products, about
    # 4 r d^2 for r Kraus vectors; the floor stays 6, since the chunk size
    # sets the stacks that the kernels round
    r = max(int(np.prod([len(channel.kraus) for channel, _ in family.channels]))
            for family in families)
    chunk = max(1, SCORE_BYTES // (16 * d * d * max(6, 4 * r)))

    def transfer_maps():
        if "transfer" not in maps:
            maps["transfer"] = [family.transfer(theta) for family, theta in zip(families, thetas)]
        return maps["transfer"]

    def vector_maps():
        """The problems' vector maps stacked by shape, each problem's stack
        and its place in it."""
        if "vector" not in maps:
            each = [family.vector_map(theta)[0] for family, theta in zip(families, thetas)]
            shapes = sorted({m.shape for m in each})
            group = np.array([shapes.index(m.shape) for m in each])
            place = np.zeros(len(each), dtype=int)
            for g in range(len(shapes)):
                place[group == g] = np.arange(np.count_nonzero(group == g))
            maps["vector"] = ([np.stack([m for m, h in zip(each, group) if h == g])
                               for g in range(len(shapes))], group, place)
        return maps["vector"]

    def kraus_rows(problems, amplitudes):
        """(rows, A, dA) for each group of rows whose problems' vector maps
        have one shape: one map-vector product per row, bitwise the row's
        alone."""
        stacks, group, place = vector_maps()
        for g, stack in enumerate(stacks):
            rows = slice(None) if len(stacks) == 1 else np.flatnonzero(group[problems] == g)
            if len(stacks) > 1 and not len(rows):
                continue
            at = stack[0] if len(stack) == 1 else stack[place[problems[rows]]]
            yield (rows, *kraus_columns(at @ amplitudes[rows, :, None], d))

    def score_rows(problems, amplitudes, povm):
        if povm is None:
            values = np.empty(len(problems))
            for rows, a, da in kraus_rows(problems, amplitudes):
                values[rows] = qfi_from_vectors(a, da)
            return values
        m = len(problems)
        states = projectors(amplitudes)
        for k, family in prepared:
            rows = problems == k
            states[rows] = family.prepare_inputs(states[rows])
        # one gemv per row, bitwise the product of the row's map with its
        # input; each map serves its own rows, uncopied
        ms = transfer_maps()
        inputs = np.reshape(states, (m, -1, 1))
        if len(ms) == 1:
            flat = ms[0] @ inputs
        else:
            flat = np.empty((m, 2 * d * d, 1), dtype=complex)
            order = np.argsort(problems, kind="stable")
            ks, firsts = np.unique(problems[order], return_index=True)
            for k, rows in zip(ks, np.split(order, firsts[1:])):
                flat[rows] = ms[k] @ inputs[rows]
        p, dp = outcome_blocks(povm, *np.moveaxis(flat.reshape(m, 2, d, d), 1, 0))

        def near_terms(near):
            rows, outcomes = np.nonzero(near)
            terms = np.empty(len(rows))
            for at, a, da in kraus_rows(problems[rows], amplitudes[rows]):
                terms[at] = amplitude_scores(povm.factors[outcomes[at]], a, da)
            return terms

        return model_scores(p, dp, near_terms)

    def score(problems, amplitudes, povm):
        if len(problems) <= chunk:
            return score_rows(problems, amplitudes, povm)
        return np.concatenate([score_rows(problems[at:at + chunk], amplitudes[at:at + chunk], povm)
                               for at in range(0, len(problems), chunk)])

    return score


def _search(score, decode, n_params: int, start, restarts: int, seeds, maxiter: int):
    """Each problem's best context among its start and its restarts' ends.

    Problem k's restarts run Nelder-Mead on -score from uniform points in
    [-pi, pi]^n_params drawn from ``default_rng(seeds[k])``; the restarts
    of every problem advance together (``nelder_mead``).  ``decode`` turns
    stacked parameters into contexts for ``score``, and ``start`` holds one
    start context per problem in the same form.  An end wins only by a
    strictly greater score, so of equal scores the earliest wins, the start
    first.  Returns each problem's winning parameters, or None where its
    start won.
    """
    problems = np.arange(len(seeds))
    best = score(problems, *start)
    winners = [None] * len(seeds)
    if n_params > 0 and restarts > 0:
        x0s = np.concatenate([np.random.default_rng(s).uniform(-np.pi, np.pi, (restarts, n_params))
                              for s in seeds])
        owner = np.repeat(problems, restarts)
        ends, _ = nelder_mead(lambda x, rows: -score(owner[rows], *decode(x)), x0s, maxiter)
        for end, k, value in zip(ends, owner, score(owner, *decode(ends))):
            if value > best[k]:
                best[k], winners[k] = value, end
    return winners


def maximize_fisher(family: UnitaryFamily, space: ContextSpace, theta: float, *,
                    restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                    maxiter: int = MAX_ITER) -> OptimizationResult:
    """Largest classical Fisher information over the context space.

    Each candidate state replaces the family's own rho0, if it has one.  A
    free POVM is the SLD eigenbasis of the chosen state, so only the state
    is searched, and only when neither a fixed state nor the channel-free
    closed form settles it.
    """
    return _maximize_fisher_many(space, [(family, theta, seed)], restarts, maxiter)[0]


def _maximize_fisher_many(space: ContextSpace, problems, restarts: int,
                          maxiter: int) -> list[OptimizationResult]:
    """``maximize_fisher`` for each (family, theta, seed) problem; the
    problems that need a search are searched together."""
    states = [space.state if space.state is not None
              else pure_state(_extreme_superposition(family)) for family, _, _ in problems]
    searched = [k for k, (family, _, _) in enumerate(problems)
                if space.state is None and (space.povm is not None or _changes_the_qfi(family))]
    if searched:
        score = context_objective([problems[k][0] for k in searched],
                                  [problems[k][1] for k in searched])
        winners = _search(
            score, lambda x: (space.decode_amplitudes(x), space.povm), space.n_params,
            (np.stack([states[k].vectors[:, 0] for k in searched]), space.povm),
            restarts, [problems[k][2] for k in searched], maxiter)
        for k, params in zip(searched, winners):
            if params is not None:
                states[k] = pure_state(space.decode_amplitudes(params))
    results = []
    for (family, theta, _), state in zip(problems, states):
        chosen = family.with_state(state)
        povm = space.povm
        if povm is None:
            povm = sld_optimal_povm(sld_solve(chosen, theta))
        # report the value computed through the public scoring path
        results.append(OptimizationResult(classical_fisher(chosen, povm, theta), state, povm))
    return results


def _changes_the_qfi(family: UnitaryFamily) -> bool:
    """Whether a channel can move the best state off the closed form: a pre
    channel, or a post channel with more than one Kraus operator.  One Kraus
    operator that passes the completeness check is a unitary."""
    return any(placement == "pre" or len(channel.kraus) > 1
               for channel, placement in family.channels)


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
