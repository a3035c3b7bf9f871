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
that state.  Otherwise the input amplitudes psi are searched by a BFGS
ascent (``_search``), scored by the QFI for a free POVM or by the
classical Fisher information for a fixed one (``ContextObjective``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, _cut
from .fisher import (
    SldResult,
    amplitude_scores,
    classical_fisher,
    model_scores,
    qfi_from_vectors,
    sld_optimal_povm,
    sld_solve,
)
from .models import UnitaryFamily, kraus_columns
from .quantum import (PAULI_X, PAULI_Z, DensityMatrix, Povm, adjoint, projective_povm,
                      pure_state, unitary_channel)

MAX_OPT_DIM = 8          # larger searches are out of scope
ASCENT_TOL = 1e-12       # relative step in the value at which an ascent stops
MAX_ITER = 2000          # evaluations per start
DEFAULT_RESTARTS = 32
SCORE_BYTES = 1 << 24     # per-row arrays one scoring step holds at once
ARMIJO = 1e-4            # share of the slope's predicted rise a step must reach
MAX_STEP = 0.5           # longest step along the sphere
KINK_OVERLAP = 1e-4      # 1 - |<c, psi>|^2 at which a row is at kink input c


def _check_dims(dim: int, povm: Povm | None = None) -> None:
    """A search's dimension is 2..MAX_OPT_DIM, and a fixed POVM's is the model's."""
    if dim < 2 or dim > MAX_OPT_DIM:
        raise DimensionMismatch(
            f"optimization supports dimensions 2..{MAX_OPT_DIM}, got {_cut(str(dim))}")
    if povm is not None and povm.dim != dim:
        raise DimensionMismatch("fixed POVM dimension differs from the space")


def _decode_amplitudes(params: np.ndarray, d: int) -> np.ndarray:
    """Unit vectors in C^d from 2(d-1) hyperspherical angles and relative
    phases, for one parameter vector or a stack (..., 2(d-1))."""
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
    """The best context and its value; ``sld``, the chosen state's SLD
    solve, which gave a free POVM (None for a fixed one)."""

    best_value: float
    best_state: DensityMatrix
    best_povm: Povm
    sld: SldResult | None


def _extreme_superposition(family: UnitaryFamily) -> np.ndarray:
    """Amplitudes of the equal superposition of the generator's extreme eigenvectors."""
    w, v = family._gen_eig
    return (v[:, 0] + v[:, -1]) / np.sqrt(2.0)


class ContextObjective:
    """Scores of stacked inputs, each row against its own problem, by one
    measurement: ``povm``, or the SLD measurement where it is None.

    Problem k is ``families[k]`` at ``thetas[k]``, where its dynamics and
    channels are one linear map from the input amplitudes to the Kraus
    vectors (``UnitaryFamily.vector_map``), built once, as are a POVM's
    effects pulled back through it.  A call ``(problems, amplitudes)``, with
    unit amplitudes before the pre channels (m, d), returns (F, G): each
    row's QFI or classical Fisher information (``model_scores``), as it
    would score alone up to rounding, and its gradient on the sphere.  Each
    is the maximum of a form linear in the output: 2 tr(rho' L) - tr(rho L^2)
    at the SLD L (Braunstein & Caves), and sum_x 2 l_x p'_x - l_x^2 p_x at
    l_x = p'_x / p_x.  With the maximizer held it is <psi|Q|psi>, so the
    gradient is 2 (Q - F) psi.  Rows are scored SCORE_BYTES at a time, so
    memory does not grow with m.  ``extremes`` (problems, n, d) holds extra
    starts: for a fixed POVM, the eigenvectors of each pulled-back M_x.
    """

    def __init__(self, families, thetas, povm: Povm | None = None):
        d = self.dim = families[0].dim
        self.povm, self.extremes = povm, np.zeros((len(families), 0, d), dtype=complex)
        # one stack of vector maps: the problems of one search share its shape
        self.maps = np.stack([family.vector_map(theta)[0]
                              for family, theta in zip(families, thetas)])
        if povm is not None:
            # for the map's blocks B_j and their derivatives dB_j, each effect's
            # M_x = sum_j B_j^dag E_x B_j, then each M'_x = sum_j dB_j^dag E_x B_j + h.c.
            b = self.maps.reshape(len(self.maps), 1, 2, -1, d, d)
            eb = povm.effects[:, None] @ b[:, :, 0]
            m, dm = (sum(adjoint(b[:, :, half, j]) @ eb[:, :, j] for j in range(eb.shape[2]))
                     for half in (0, 1))
            self.pulled = np.concatenate((m, dm + adjoint(dm)), axis=1).reshape(len(b), -1, d)
            # the eigenvectors of each M_x: the inputs that make an outcome's probability extreme
            effects = self.pulled[:, :len(povm) * d].reshape(len(b), -1, d, d)
            self.extremes = np.swapaxes(np.linalg.eigh(effects)[1], -1, -2).reshape(len(b), -1, d)
        # a row holds its map (2 r d^2 numbers for r Kraus products, 2 x d^2 for x
        # effects) and the kernels' products; the floor 6 stays, as chunks set the stacks
        width = max(6, 2 * len(povm) if povm else 0, 2 * self.maps.shape[1] // d)
        self.chunk = max(1, SCORE_BYTES // (16 * d * d * width))

    def __call__(self, problems, amplitudes):
        c = self.chunk
        parts = [self._score(problems[at:at + c], amplitudes[at:at + c])
                 for at in range(0, len(problems), c)]
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    def _score(self, problems, amplitudes):
        if self.povm is not None:
            return self._born_rows(problems, amplitudes)
        maps, a, da = self._kraus(problems, amplitudes)
        f, sld = qfi_from_vectors(a, da)
        # Q psi = M^dag w for the map M: w is 2 L dA - L^2 A on the rows of
        # the Kraus products, 2 L A on the rows of their derivatives
        r = a.shape[-1]
        la = sld @ np.concatenate((a, da), axis=-1)
        w = np.stack((2.0 * la[..., r:] - sld @ la[..., :r], 2.0 * la[..., :r]), axis=1)
        q = np.conj(np.conj(np.swapaxes(w, -1, -2).reshape(len(f), 1, -1)) @ maps)[:, 0]
        return f, 2.0 * (q - f[:, None] * amplitudes)

    def _kraus(self, problems, amplitudes):
        """(maps, A, dA) of the rows; a row's product with its map is bitwise the row's alone."""
        maps = self.maps[0] if len(self.maps) == 1 else self.maps[problems]
        return maps, *kraus_columns(maps @ amplitudes[:, :, None], self.dim)

    def _born_rows(self, problems, amplitudes):
        m, x, povm = len(problems), len(self.povm), self.povm
        maps = self.pulled[0] if len(self.pulled) == 1 else self.pulled[problems]
        # M_x psi, then M'_x psi, for each outcome x
        ys = (maps @ amplitudes[:, :, None]).reshape(m, 2 * x, self.dim)
        p, dp = np.moveaxis((ys @ np.conj(amplitudes)[:, :, None]).real.reshape(m, 2, x), 1, 0)

        def near_terms(near):
            rows, outcomes = np.nonzero(near)
            return amplitude_scores(povm.factors[outcomes],
                                    *self._kraus(problems[rows], amplitudes[rows])[1:])

        values = model_scores(p, dp, near_terms)
        # Q psi = sum_x 2 l_x M'_x psi - l_x^2 M_x psi, with l_x = p'_x / p_x
        positive = p > 0.0
        slope = np.where(positive, dp / np.where(positive, p, 1.0), 0.0)
        q = (np.concatenate((-slope * slope, 2.0 * slope), axis=1)[:, None, :] @ ys)[:, 0]
        return values, 2.0 * (q - values[:, None] * amplitudes)

    def kinks(self):
        """(inputs, values), (problems, d, d) and (problems, d): for the SLD
        measurement and exactly two Kraus products B_1, B_2, the unit inputs
        psi with B_1 psi = lambda B_2 psi, whose output is pure, and their
        QFI; zero inputs valued -inf for every other problem."""
        d, maps = self.dim, self.maps
        if maps.shape[1] != 4 * d or self.povm is not None:
            return np.zeros((len(maps), d, d), dtype=complex), np.full((len(maps), d), -np.inf)
        pair = maps[:, :2 * d].reshape(-1, 2, d, d)
        # the better conditioned block divides; pinv keeps a singular
        # pair finite, and its inputs are then scored like any other
        lowest = np.linalg.svd(pair, compute_uv=False)[..., -1]
        swap = (lowest[:, :1] > lowest[:, 1:])[..., None]
        den, num = (np.where(swap, pair[:, k], pair[:, 1 - k]) for k in (0, 1))
        inputs = np.swapaxes(np.linalg.eig(np.linalg.pinv(den) @ num)[1], 1, 2)
        values = self(np.repeat(np.arange(len(maps)), d), inputs.reshape(-1, d))[0]
        return inputs, values.reshape(-1, d)


def _ascend(objective, psi, maxiter: int, stop=None):
    """Maximize from each unit row of ``psi`` (m, d), all rows in lockstep:
    dense BFGS with Armijo backtracking (Nocedal & Wright, ch. 6) on the
    unit sphere of x, the real and imaginary parts of psi.  A direction
    drops its parts along x and i x (F depends on neither the norm nor the
    global phase), a step is at most MAX_STEP long, and its end is scaled
    back to unit length.  ``objective(rows, u)`` gives (F, G) at the unit
    rows u of the starts ``rows``, G the gradient on the sphere; each
    iteration scores one trial point of every live row in one call.  A row
    stops once a step changes its value by at most ASCENT_TOL relative (a
    backtracked one to first order), once ``stop(rows, u, F)`` holds, or
    after ``maxiter`` evaluations.  Returns each row's end and its value.
    """
    m, eye = len(psi), np.eye(2 * psi.shape[1])

    def evaluate(rows, x):
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        f, g = objective(rows, x.view(complex))
        return x, f, g.view(float)

    def along_the_sphere(p, x):
        # p - <u, p> u drops the parts along u and i u for u = x as a complex row
        u, p = x.view(complex), p.view(complex)
        p = (p - np.sum(np.conj(u) * p, axis=1)[:, None] * u).view(float)
        return p * (MAX_STEP / np.maximum(np.linalg.norm(p, axis=1), MAX_STEP))[:, None]

    live = np.arange(m)
    x, f, g = evaluate(live, np.ascontiguousarray(psi, dtype=complex).view(float))
    ends, values = np.empty_like(psi, dtype=complex), np.empty(m)
    inverse = np.broadcast_to(eye, (m,) + eye.shape)
    fresh, settled = np.ones(m, dtype=bool), np.zeros(m, dtype=bool)  # fresh: H not yet scaled
    direction, step = along_the_sphere(g, x), np.ones(m)
    for _ in range(maxiter - 1):
        slope = np.sum(g * direction, axis=1)
        done = settled | (step * slope <= ASCENT_TOL * np.abs(f))
        if stop is not None:
            done |= stop(live, x.view(complex), f)
        if done.any():
            ends[live[done]], values[live[done]] = x[done].view(complex), f[done]
            keep = ~done
            live, x, f, g, inverse, fresh, settled, direction, step, slope = (
                a[keep] for a in (live, x, f, g, inverse, fresh, settled, direction, step, slope))
            if not len(live):
                return ends, values
        trial, ft, gt = evaluate(live, x + step[:, None] * direction)
        ok = ft >= f + ARMIJO * step * slope
        settled = ok & (ft - f <= ASCENT_TOL * np.abs(ft))
        # BFGS update of the inverse Hessian H of -F where a step is taken
        # with positive curvature (rho 0 keeps H), H first scaled by s.y / y.y
        # (N&W 6.20)
        s, y = trial - x, g - gt
        sy = np.sum(s * y, axis=1)
        curved = ok & (sy > 0.0)
        rho = curved / np.where(curved, sy, 1.0)
        scale = sy / np.where(curved, np.sum(y * y, axis=1), 1.0)
        h = np.where((fresh & curved)[:, None, None], scale[:, None, None] * eye, inverse)
        hy = (h @ y[:, :, None])[..., 0]
        cross = rho[:, None, None] * s[:, :, None] * hy[:, None, :]
        outer = rho * (1.0 + rho * np.sum(y * hy, axis=1))
        inverse = (h - cross - np.swapaxes(cross, 1, 2)
                   + outer[:, None, None] * s[:, :, None] * s[:, None, :])
        fresh &= ~curved
        x, g, f = np.where(ok[:, None], trial, x), np.where(ok[:, None], gt, g), np.where(ok, ft, f)
        direction = np.where(ok[:, None], along_the_sphere((inverse @ g[:, :, None])[..., 0], x),
                             direction)
        step = np.where(ok, 1.0, 0.5 * step)
    ends[live], values[live] = x.view(complex), f
    return ends, values


def _search(objective: ContextObjective, start, restarts: int, seeds) -> np.ndarray:
    """Each problem's best input, the earliest of equal scores: the ends of
    its ascents (``_ascend``) from ``start[k]``, from ``restarts`` inputs
    decoded from uniform points in [-pi, pi]^(2(d-1)) drawn from
    ``default_rng(seeds[k])`` and from its ``objective.extremes``, then its
    kink inputs.  A fixed POVM's information has maxima that few random
    starts reach, where an outcome's probability nears 0; the eigenvectors
    of the pulled-back effects reach them.  At a kink input the QFI has a
    kink, which an ascent only creeps towards, so a row that comes within
    KINK_OVERLAP of one that scores as high stops there.
    """
    count, d = len(seeds), objective.dim
    draws = np.stack([np.random.default_rng(s).uniform(-np.pi, np.pi, (restarts, 2 * (d - 1)))
                      for s in seeds])
    starts = np.concatenate((start[:, None], _decode_amplitudes(draws, d),
                             objective.extremes), axis=1)
    owner = np.repeat(np.arange(count), starts.shape[1])
    kinks, kink_values = objective.kinks()
    stop = None
    if np.isfinite(kink_values).any():
        def stop(rows, u, f):
            k = owner[rows]
            overlap = np.abs(np.conj(kinks[k]) @ u[:, :, None])[..., 0] ** 2
            return np.any((1.0 - overlap <= KINK_OVERLAP) & (kink_values[k] >= f[:, None]), axis=1)
    ends, values = _ascend(lambda rows, u: objective(owner[rows], u),
                           starts.reshape(-1, d), MAX_ITER, stop)
    ends = np.concatenate((ends.reshape(starts.shape), kinks), axis=1)
    values = np.concatenate((values.reshape(count, -1), kink_values), axis=1)
    return ends[np.arange(count), np.argmax(values, axis=1)]


def maximize_fisher(family: UnitaryFamily, theta: float, *, state: DensityMatrix | None = None,
                    povm: Povm | None = None, restarts: int = DEFAULT_RESTARTS,
                    seed: int = 0) -> OptimizationResult:
    """Largest classical Fisher information over the contexts of ``family``,
    in its own dimension, with the state or the POVM fixed where given.

    Each candidate state replaces the family's own rho0, if it has one.  A
    free POVM is the SLD eigenbasis of the chosen state, so only the state
    is searched, and only when neither a fixed state nor the channel-free
    closed form settles it, and never with no restarts (the start is kept).
    """
    _check_dims(family.dim, povm)
    return _maximize_fisher_many([(family, theta, seed)], restarts, state, povm)[0]


def _maximize_fisher_many(problems, restarts: int, state: DensityMatrix | None = None,
                          povm: Povm | None = None) -> list[OptimizationResult]:
    """``maximize_fisher`` for each (family, theta, seed) problem, all of one
    dimension; the problems that need a search are searched together."""
    states = [state if state is not None
              else pure_state(_extreme_superposition(family)) for family, _, _ in problems]
    searched = [k for k, (family, _, _) in enumerate(problems) if restarts > 0
                and state is None and (povm is not None or _changes_the_qfi(family))]
    if searched:
        families, thetas, seeds = zip(*(problems[k] for k in searched))
        ends = _search(ContextObjective(families, thetas, povm),
                       np.stack([states[k].vectors[:, 0] for k in searched]), restarts, seeds)
        for k, psi in zip(searched, ends):
            states[k] = pure_state(psi)
    results = []
    for (family, theta, _), best in zip(problems, states):
        chosen = family.with_state(best)
        sld = sld_solve(chosen, theta) if povm is None else None
        measured = povm if sld is None else sld_optimal_povm(sld)
        # report the value computed through the public scoring path
        results.append(OptimizationResult(classical_fisher(chosen, measured, theta),
                                          best, measured, sld))
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
    rotation = unitary_channel(UnitaryFamily(PAULI_X).propagator(np.pi / 4.0))

    base_family = UnitaryFamily(PAULI_Z)
    base = maximize_fisher(base_family, theta)
    multipass = maximize_fisher(UnitaryFamily(PAULI_Z, passes=2), theta)
    restricted = maximize_fisher(base_family, theta, state=plus, povm=z_basis)
    rotated = maximize_fisher(base_family.with_channel(rotation, "post"), theta,
                              state=plus, povm=z_basis)
    return {
        "base": base.best_value,
        "multipass": multipass.best_value,
        "restricted": restricted.best_value,
        "restricted_plus_rotation": rotated.best_value,
    }
