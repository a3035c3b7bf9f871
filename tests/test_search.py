"""The lockstep BFGS ascent and the batched context searches built on it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finite_difference import fd_gradient
from fisherinfo import dpi
from fisherinfo.fisher import qfi_from_vectors, sld_solve
from fisherinfo.models import UnitaryFamily
from fisherinfo.optimize import (
    SCORE_BYTES,
    ContextObjective,
    _ascend,
    _decode_amplitudes,
    _extreme_superposition,
    _maximize_fisher_many,
    _search,
    maximize_fisher,
)
from fisherinfo.quantum import PAULI_Z, KrausChannel, pure_state
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_projective_povm,
    random_pure_state,
    trial_seeds,
)


def quartic(seed, d):
    """F(u) = sum_k w_k |<v_k, u>|^4, a smooth function on the sphere with
    several maxima, and its sphere gradient; each row is scored alone."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    w = rng.uniform(0.5, 2.0, 3)

    def objective(rows, u):
        z = (np.conj(v)[None] * u[:, None, :]).sum(-1)
        weights = w * np.abs(z) ** 2
        f = (weights * np.abs(z) ** 2).sum(-1)
        g = 4.0 * ((weights * z)[:, :, None] * v[None]).sum(1)
        return f, g - 4.0 * f[:, None] * u

    return objective


def random_inputs(rng, m, d):
    psi = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def random_problem(rng, dim, placements, kraus=2):
    family = UnitaryFamily(random_hermitian(rng, dim))
    for placement in placements:
        family = family.with_channel(random_channel(rng, dim, kraus), placement)
    return family


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 5), starts=st.integers(1, 7),
       maxiter=st.integers(1, 120))
def test_a_lockstep_batch_of_starts_runs_each_start_as_alone(seed, d, starts, maxiter):
    objective = quartic(seed, d)
    psi = random_inputs(np.random.default_rng(seed), starts, d)
    ends, values = _ascend(objective, psi, maxiter)
    for k in range(starts):
        alone_ends, alone_values = _ascend(objective, psi[k:k + 1], maxiter)
        assert ends[k].tobytes() == alone_ends[0].tobytes()
        assert values[k] == alone_values[0]


def test_the_ascent_climbs_to_a_maximum_and_stops_at_the_cap():
    objective = quartic(5, 3)
    psi = random_inputs(np.random.default_rng(5), 6, 3)
    start_values = objective(None, psi)[0]
    ends, values = _ascend(objective, psi, 400)
    assert np.all(values >= start_values)
    assert np.array_equal(values, objective(None, ends)[0])
    # at each end the gradient on the sphere vanishes
    assert np.max(np.abs(objective(None, ends)[1])) < 1e-5 * np.max(values)
    ends, values = _ascend(objective, psi, 1)
    assert np.array_equal(values, start_values)


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 3),
       n_problems=st.integers(1, 4), fixed_povm=st.booleans(),
       placements=st.lists(st.sampled_from(["pre", "post"]), min_size=1, max_size=2))
def test_a_lockstep_batch_of_problems_solves_each_as_alone(seed, dim, n_problems, fixed_povm,
                                                          placements):
    rng = np.random.default_rng(seed)
    povm = random_projective_povm(rng, dim) if fixed_povm else None
    # one Kraus count, so that every problem's map has one shape, as in a suite
    kraus = int(rng.integers(1, 3))
    problems = [(random_problem(rng, dim, placements, kraus), float(rng.uniform(-1.0, 1.0)),
                 int(rng.integers(1000))) for _ in range(n_problems)]
    together = _maximize_fisher_many(problems, 2, povm=povm)
    for (family, theta, opt_seed), result in zip(problems, together):
        alone = maximize_fisher(family, theta, povm=povm, restarts=2, seed=opt_seed)
        assert result.best_value == alone.best_value
        assert result.best_state.mat.tobytes() == alone.best_state.mat.tobytes()


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4),
       measurement=st.sampled_from(["sld", "fixed"]),
       placements=st.lists(st.sampled_from(["pre", "post"]), max_size=2))
def test_each_row_of_a_stacked_score_matches_its_score_alone(seed, dim, measurement, placements):
    rng = np.random.default_rng(seed)
    families = [random_problem(rng, dim, placements) for _ in range(3)]
    povm = random_projective_povm(rng, dim) if measurement == "fixed" else None
    score = ContextObjective(families, rng.uniform(-1.0, 1.0, size=len(families)), povm)
    params = rng.uniform(-np.pi, np.pi, size=(12, 2 * (dim - 1)))
    states = _decode_amplitudes(params, dim)
    problems = rng.integers(len(families), size=12)
    values, grads = score(problems, states)
    for i in range(12):
        value, grad = score(problems[i:i + 1], states[i:i + 1])
        assert abs(values[i] - value[0]) <= 1e-12 * max(1.0, abs(value[0]))
        assert np.max(np.abs(grads[i] - grad[0])) <= 1e-12 * max(1.0, abs(value[0]))


@pytest.mark.parametrize("n_problems", [1, 2])
def test_scoring_holds_a_bounded_number_of_rows_at_dim_8(n_problems):
    rng = np.random.default_rng(8)
    families = [UnitaryFamily(random_hermitian(rng, 8)).with_channel(random_channel(rng, 8, 2))
                for _ in range(n_problems)]
    thetas = rng.uniform(-1.0, 1.0, n_problems)
    # several slices of rows; all rows at once would hold about 90 MB of
    # gathered effects with two problems
    rows = 2 * (SCORE_BYTES // (2 * 16 * 3 * 64)) + 1
    states = np.stack([random_pure_state(rng, 8).vectors[:, 0] for _ in range(rows)])
    problems = rng.integers(n_problems, size=rows)
    povm = random_projective_povm(rng, 8)
    score = ContextObjective(families, thetas, povm)
    tracemalloc.start()
    try:
        values = score(problems, states)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(values > 0) and peak < SCORE_BYTES + (8 << 20)
    first = score(problems[:1], states[:1])[0]
    assert abs(values[0] - first[0]) <= 1e-12 * first[0]


@pytest.mark.parametrize("measurement", ["sld", "fixed"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_the_gradient_matches_central_differences(dim, measurement):
    rng = np.random.default_rng(10 * dim + (measurement == "fixed"))
    for placements in (["post"], ["pre"], ["pre", "post"]):
        family = random_problem(rng, dim, placements)
        povm = random_projective_povm(rng, dim) if measurement == "fixed" else None
        score = ContextObjective([family], [float(rng.uniform(-1.0, 1.0))], povm)
        psi = random_inputs(rng, 1, dim)

        def value(x):
            u = x.view(complex)
            return score(np.array([0]), (u / np.linalg.norm(u))[None])[0][0]

        f, g = score(np.array([0]), psi)
        reference = fd_gradient(value, psi[0].view(float).copy(), h=1e-6)
        assert np.max(np.abs(g[0].view(float) - reference)) < 1e-6 * max(1.0, f[0])
        # F = <psi|Q|psi>, so the gradient is orthogonal to psi
        assert abs(np.vdot(psi[0], g[0])) < 1e-12 * max(1.0, f[0])


def test_the_qubit_sld_is_the_singular_value_sld():
    rng = np.random.default_rng(17)
    for placements in (["post"], ["pre", "post"], ["post", "post"]):
        family = random_problem(rng, 2, placements, kraus=int(rng.integers(2, 4)))
        model = family.with_state(random_pure_state(rng, 2))
        theta = float(rng.uniform(-1.0, 1.0))
        qfi, sld = qfi_from_vectors(*model.kraus_vectors([theta]))
        reference = sld_solve(model, theta)
        assert abs(qfi[0] - reference.qfi) <= 1e-12 * reference.qfi
        assert np.max(np.abs(sld[0] - reference.sld)) < 1e-10 * np.max(np.abs(reference.sld))


@pytest.mark.parametrize("placements", [["post"], ["pre"]])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_each_kink_input_has_a_pure_output(dim, placements):
    rng = np.random.default_rng(dim)
    families = [random_problem(rng, dim, placements) for _ in range(3)]
    thetas = rng.uniform(-1.0, 1.0, 3)
    inputs, values = ContextObjective(families, thetas).kinks()
    for family, theta, rows, row_values in zip(families, thetas, inputs, values):
        for psi, value in zip(rows, row_values):
            a, _ = family.with_state(pure_state(psi)).kraus_vectors([theta])
            s = np.linalg.svd(a[0], compute_uv=False)
            assert s[1] <= 1e-12 * s[0]
            assert value == pytest.approx(sld_solve(family.with_state(pure_state(psi)), theta).qfi,
                                          rel=1e-9)
    # three Kraus products have no such inputs
    family = random_problem(rng, dim, placements, kraus=3)
    inputs, values = ContextObjective([family], [0.3]).kinks()
    assert np.all(values == -np.inf) and not inputs.any()


def suite_problems(dim, kraus, trials):
    """The noisy problems of ``quantum_dpi_suite(trials, seed=11)``, drawn as it draws them."""
    problems = []
    for seed in trial_seeds(11, trials):
        rng = np.random.default_rng(int(seed))
        family = UnitaryFamily(random_hermitian(rng, dim))
        channel = random_channel(rng, dim, kraus)
        theta = float(rng.uniform(*dpi.J_RANGE))
        problems.append((family.with_channel(channel, "post"), theta,
                         int(rng.integers(2 ** 31)) + 1))
    return problems


def bloch_grid(n):
    """Qubit inputs on an n x 2n grid of Bloch-sphere angles."""
    polar, azimuth = np.meshgrid(np.linspace(0.0, np.pi, n), np.linspace(0.0, 2 * np.pi, 2 * n))
    return np.stack((np.cos(polar / 2), np.sin(polar / 2) * np.exp(1j * azimuth)),
                    axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("kraus", [2, 3])
def test_the_qubit_search_reaches_the_grid_maximum(kraus):
    problems = suite_problems(2, kraus, 6)
    results = _maximize_fisher_many(problems, dpi.OPT_RESTARTS)
    grid = bloch_grid(181)
    for (family, theta, _), result in zip(problems, results):
        score = ContextObjective([family], [theta])
        grid_max = np.max(score(np.zeros(len(grid), dtype=int), grid)[0])
        found = sld_solve(family.with_state(result.best_state), theta).qfi
        assert found >= grid_max * (1.0 - 1e-12)


# The QFI at the states that a Nelder-Mead search with 24 restarts and
# 4,000 iterations found for the first five noisy problems of
# quantum_dpi_suite(seed=11) at each (dim, Kraus count), committed here so
# that the suite's four-start ascent is held to a deeper search.
DEEP_REFERENCE = {
    (3, 2): [13.887835783572797, 12.800341245828731, 6.6669225286424005,
             18.97083795174265, 13.946083505232497],
    (3, 3): [13.02627089720627, 9.159008172300958, 4.04063550173499,
             7.6475579393256865, 9.759295452840927],
    (4, 2): [20.858258072154065, 12.893442673880173, 17.65181201029486,
             11.997474460363879, 21.698007559112643],
    (4, 3): [15.156099585165586, 11.636499789861292, 15.74119967399611,
             9.591503839521696, 22.42846626332009],
}


@pytest.mark.parametrize("dim,kraus", sorted(DEEP_REFERENCE))
def test_the_search_reaches_a_deep_search_above_the_qubit(dim, kraus):
    problems = suite_problems(dim, kraus, len(DEEP_REFERENCE[dim, kraus]))
    results = _maximize_fisher_many(problems, dpi.OPT_RESTARTS)
    for (family, theta, _), result, reference in zip(problems, results,
                                                    DEEP_REFERENCE[dim, kraus]):
        found = sld_solve(family.with_state(result.best_state), theta).qfi
        assert found >= reference * (1.0 - 1e-9)


def test_a_fixed_povm_search_reaches_the_maximum_that_nelder_mead_found():
    # d = 4, pre and post channels and a projective POVM: from the structured
    # start and 8 random starts alone every ascent ends below 2.7, while a
    # Nelder-Mead search with the same 8 restarts found the value below
    rng = np.random.default_rng(1032)
    family = UnitaryFamily(random_hermitian(rng, 4))
    for placement in ("pre", "post"):
        family = family.with_channel(random_channel(rng, 4, int(rng.integers(1, 4))), placement)
    povm = random_projective_povm(rng, 4)
    theta = float(rng.uniform(-1.0, 1.0))
    result = maximize_fisher(family, theta, povm=povm, restarts=8, seed=32)
    assert result.best_value >= 3.8541611232756883 * (1.0 - 1e-12)


@pytest.mark.parametrize("measurement", ["sld", "fixed"])
def test_no_restarts_keeps_the_structured_start(measurement):
    rng = np.random.default_rng(5)
    family = random_problem(rng, 3, ["pre"])
    povm = random_projective_povm(rng, 3) if measurement == "fixed" else None
    result = maximize_fisher(family, 0.3, povm=povm, restarts=0)
    start = pure_state(_extreme_superposition(family))
    assert result.best_state.mat.tobytes() == start.mat.tobytes()
    assert maximize_fisher(family, 0.3, povm=povm, restarts=1).best_value \
        > result.best_value


class Synthetic:
    """An objective of one qubit problem with no kink inputs, from a function
    ``score(u) -> (F, G)`` of the unit rows u."""

    dim = 2
    extremes = np.zeros((1, 0, 2), dtype=complex)

    def __init__(self, score):
        self.score = score

    def __call__(self, problems, u):
        return self.score(u)

    def kinks(self):
        return np.zeros((1, 2, 2), dtype=complex), np.full((1, 2), -np.inf)


def search_one(score, start):
    """``_search`` of one qubit problem from ``start``."""
    return _search(Synthetic(score), start[None], 3, [7])[0]


def test_a_search_scores_floats_and_keeps_the_earliest_best():
    start = np.array([1.0, 0.0], dtype=complex)

    def flat(values):
        return lambda u: (values(u), np.zeros_like(u))

    # a row that scores 0 never beats a positive one, and an exact tie keeps the start
    at_start = flat(lambda u: np.where((u == start).all(axis=1), 0.5, 0.0))
    assert search_one(at_start, start).tobytes() == start.tobytes()
    assert search_one(flat(lambda u: np.ones(len(u))), start).tobytes() == start.tobytes()
    # F = |<v, u>|^2 climbs to v
    v = np.array([0.6, 0.8j])

    def overlap(u):
        z = u @ np.conj(v)
        f = np.abs(z) ** 2
        return f, 2.0 * (z[:, None] * v - f[:, None] * u)

    assert abs(np.vdot(v, search_one(overlap, start))) ** 2 > 1 - 1e-10


def test_the_quantum_suite_searches_in_blocks_without_changing_a_trial(monkeypatch):
    whole = [r.to_dict() for r in dpi.quantum_dpi_suite(5, seed=3)]
    monkeypatch.setattr(dpi, "SEARCH_TRIALS", 2)
    assert [r.to_dict() for r in dpi.quantum_dpi_suite(5, seed=3)] == whole


def test_a_channel_that_fixes_the_output_purity_is_searched_without_error():
    # every input of fully damped amplitude damping has a pure output: the
    # pair of Kraus operators is singular, and its kink inputs stay finite
    damping = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    family = UnitaryFamily(PAULI_Z).with_channel(KrausChannel(damping), "pre")
    result = maximize_fisher(family, 0.3, restarts=2)
    assert np.isfinite(result.best_value)
