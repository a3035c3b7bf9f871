"""The lockstep Nelder-Mead search and the batched context searches built on it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisherinfo import dpi
from fisherinfo.models import UnitaryFamily
from fisherinfo.optimize import (
    SCORE_BYTES,
    VALUE_SPREAD_TOL,
    ContextSpace,
    _maximize_fisher_many,
    _search,
    context_objective,
    maximize_fisher,
    nelder_mead,
)
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_projective_povm,
    random_pure_state,
)


def smooth(seed, n):
    """A seeded tilted bowl with ripples, scored term by term for each row."""
    rng = np.random.default_rng(seed)
    scale, center, ripple = rng.uniform(0.5, 2.0, n), rng.uniform(-1, 1, n), rng.uniform(0, 0.5)

    def f(x):
        total = np.zeros(len(x))
        for j in range(n):
            total = total + scale[j] * (x[:, j] - center[j]) ** 2 + ripple * np.cos(3.0 * x[:, j])
        return total

    return f


def plateau(seed, n):
    """A bowl cut into flat steps that ends in a 0 plateau: where a simplex
    straddles a step, no contraction is better and it shrinks."""
    center = np.random.default_rng(seed).uniform(-0.5, 0.5, n)

    def f(x):
        r2 = np.zeros(len(x))
        for j in range(n):
            r2 = r2 + (x[:, j] - center[j]) ** 2
        return np.minimum(0.0, np.floor(32.0 * (r2 - 2.0)) / 32.0)

    return f


def lockstep(f, x0s, maxiter):
    return nelder_mead(lambda x, rows: f(x), x0s, maxiter)


@pytest.mark.parametrize("family", [smooth, plateau])
def test_nelder_mead_retraces_scipy(family):
    minimize = pytest.importorskip("scipy.optimize").minimize
    shrinks = 0
    for n in (1, 2, 4, 6):
        rng = np.random.default_rng(n)
        for seed in range(4):
            f = family(seed, n)
            x0s = rng.uniform(-1.5, 1.5, size=(6, n))
            x0s[0, 0] = 0.0  # a zero coordinate takes scipy's other initial step
            for maxiter in (3, 40, 400):
                x, nit = lockstep(f, x0s, maxiter)
                for k, x0 in enumerate(x0s):
                    calls, ends = [], []
                    ref = minimize(lambda v: calls.append(v) or f(v[None])[0], x0,
                                   method="Nelder-Mead",
                                   callback=lambda v: ends.append(len(calls)),
                                   options={"maxiter": maxiter, "fatol": VALUE_SPREAD_TOL,
                                            "xatol": np.inf})
                    assert x[k].tobytes() == ref.x.tobytes()
                    assert nit[k] == ref.nit
                    # an iteration evaluates once or twice, or 2 + n times to shrink
                    shrinks += int(np.sum(np.diff([n + 1] + ends) > 2))
    if family is plateau:
        assert shrinks > 0


def test_nelder_mead_stops_at_maxiter_or_on_the_value_spread():
    f = smooth(0, 3)
    x0s = np.random.default_rng(0).uniform(-1, 1, size=(5, 3))
    x, nit = lockstep(f, x0s, 1)
    assert np.array_equal(nit, np.ones(5, dtype=int))
    x, nit = lockstep(f, x0s, 10_000)
    assert np.all(nit < 10_000)


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5), starts=st.integers(1, 7),
       maxiter=st.integers(1, 120))
def test_a_lockstep_batch_of_starts_runs_each_start_as_alone(seed, n, starts, maxiter):
    f = plateau(seed, n) if seed % 2 else smooth(seed, n)
    x0s = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(starts, n))
    x, nit = lockstep(f, x0s, maxiter)
    for k in range(starts):
        alone_x, alone_nit = lockstep(f, x0s[k:k + 1], maxiter)
        assert x[k].tobytes() == alone_x[0].tobytes()
        assert nit[k] == alone_nit[0]


@settings(max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 3),
       n_problems=st.integers(1, 4), fixed_povm=st.booleans(),
       placements=st.lists(st.sampled_from(["pre", "post"]), min_size=1, max_size=2))
def test_a_lockstep_batch_of_problems_solves_each_as_alone(seed, dim, n_problems, fixed_povm,
                                                          placements):
    rng = np.random.default_rng(seed)
    space = ContextSpace(dim, povm=random_projective_povm(rng, dim) if fixed_povm else None)
    problems = []
    for _ in range(n_problems):
        family = UnitaryFamily(random_hermitian(rng, dim))
        for placement in placements:
            family = family.with_channel(random_channel(rng, dim, int(rng.integers(1, 3))),
                                         placement)
        problems.append((family, float(rng.uniform(-1.0, 1.0)), int(rng.integers(1000))))
    together = _maximize_fisher_many(space, problems, 2, 60)
    for (family, theta, opt_seed), result in zip(problems, together):
        alone = maximize_fisher(family, space, theta, restarts=2, seed=opt_seed, maxiter=60)
        assert result.best_value == alone.best_value
        assert result.best_state.mat.tobytes() == alone.best_state.mat.tobytes()


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4),
       measurement=st.sampled_from(["sld", "fixed"]),
       placements=st.lists(st.sampled_from(["pre", "post"]), max_size=2))
def test_each_row_of_a_stacked_score_matches_its_score_alone(seed, dim, measurement, placements):
    rng = np.random.default_rng(seed)
    families = []
    for _ in range(3):
        family = UnitaryFamily(random_hermitian(rng, dim))
        for placement in placements:
            family = family.with_channel(random_channel(rng, dim, 2), placement)
        families.append(family)
    score = context_objective(families, rng.uniform(-1.0, 1.0, size=len(families)))
    space = ContextSpace(dim)
    params = rng.uniform(-np.pi, np.pi, size=(12, space.n_params))
    states = space.decode_amplitudes(params)
    povm = random_projective_povm(rng, dim) if measurement == "fixed" else None
    problems = rng.integers(len(families), size=12)
    values = score(problems, states, povm)
    for i in range(12):
        value = score(problems[i:i + 1], states[i:i + 1], povm)
        assert abs(values[i] - value[0]) <= 1e-12 * max(1.0, abs(value[0]))


@pytest.mark.parametrize("n_problems", [1, 2])
def test_scoring_holds_a_bounded_number_of_rows_at_dim_8(n_problems):
    rng = np.random.default_rng(8)
    families = [UnitaryFamily(random_hermitian(rng, 8)).with_channel(random_channel(rng, 8, 2))
                for _ in range(n_problems)]
    score = context_objective(families, rng.uniform(-1.0, 1.0, n_problems))
    # three slices of rows; all rows at once would peak at about 30 MB
    rows = 2 * (SCORE_BYTES // (2 * 16 * 3 * 64)) + 1
    states = np.stack([random_pure_state(rng, 8).vectors[:, 0] for _ in range(rows)])
    problems = rng.integers(n_problems, size=rows)
    povm = random_projective_povm(rng, 8)
    tracemalloc.start()
    try:
        values = score(problems, states, povm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(values > 0) and peak < SCORE_BYTES + (8 << 20)
    first = score(problems[:1], states[:1], povm)
    assert abs(values[0] - first[0]) <= 1e-12 * first[0]


def search_one(f, start):
    """``_search`` of one problem whose score of a row is ``f`` of its parameters."""
    return _search(lambda problems, x: f(x), lambda x: (x,), 2, start, 3, [7], 40)[0]


def test_a_search_scores_floats_and_keeps_the_earliest_best():
    origin = (np.zeros((1, 2)),)  # the start; no restart draws it

    def at_origin(x):
        return (x == 0.0).all(axis=1)

    # a row that scores 0 never beats a positive one
    assert search_one(lambda x: np.where(at_origin(x), 0.5, 0.0), origin) is None
    end = search_one(lambda x: np.where(at_origin(x), 0.0, 1.0 / (1.0 + (x * x).sum(1))), origin)
    assert end is not None and (end * end).sum() < 1e-3
    # an exact tie keeps the start
    assert search_one(lambda x: np.ones(len(x)), origin) is None


def test_the_quantum_suite_searches_in_blocks_without_changing_a_trial(monkeypatch):
    whole = [r.to_dict() for r in dpi.quantum_dpi_suite(5, seed=3)]
    monkeypatch.setattr(dpi, "SEARCH_TRIALS", 2)
    assert [r.to_dict() for r in dpi.quantum_dpi_suite(5, seed=3)] == whole
