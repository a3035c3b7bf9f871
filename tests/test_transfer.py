"""The vector map at theta nodes and the context objective built on it."""

import numpy as np
from hypothesis import given, settings, strategies as st

from fisherinfo.fisher import classical_fisher, sld_solve
from fisherinfo.models import UnitaryFamily
from fisherinfo.optimize import ContextObjective
from fisherinfo.quantum import pure_state
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_projective_povm,
)

from mixed_states import random_full_rank_state


def random_amplitudes(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def score_one(family, theta, state, povm):
    """The context objective on a one-problem, one-row stack."""
    values = ContextObjective([family], [theta], povm)(np.array([0]), state.vectors.T)[0]
    return float(values[0])


def random_family(rng, dim, passes, placements):
    family = UnitaryFamily(random_hermitian(rng, dim), passes=passes)
    for placement in placements:
        family = family.with_channel(random_channel(rng, dim, int(rng.integers(1, 4))), placement)
    return family


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), passes=st.integers(1, 3),
       placements=st.lists(st.sampled_from(["pre", "post"]), max_size=3))
def test_context_objective_reproduces_the_public_path(seed, dim, passes, placements):
    rng = np.random.default_rng(seed)
    family = random_family(rng, dim, passes, placements)
    theta = float(rng.uniform(-1.5, 1.5))
    state = pure_state(random_amplitudes(rng, dim))
    rebuilt = family.with_state(state)

    qfi = sld_solve(rebuilt, theta).qfi
    assert abs(score_one(family, theta, state, None) - qfi) <= 1e-12 * qfi

    povm = random_projective_povm(rng, dim)
    value = classical_fisher(rebuilt, povm, theta)
    assert abs(score_one(family, theta, state, povm) - value) <= 1e-12 * value


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), passes=st.integers(1, 3),
       placements=st.lists(st.sampled_from(["pre", "post"]), max_size=3),
       pure=st.booleans(), n_nodes=st.integers(1, 4))
def test_kraus_vectors_reproduce_the_trajectory(seed, dim, passes, placements, pure, n_nodes):
    rng = np.random.default_rng(seed)
    family = random_family(rng, dim, passes, placements)
    state = (pure_state(random_amplitudes(rng, dim)) if pure
             else random_full_rank_state(rng, dim))
    model = family.with_state(state)
    thetas = rng.uniform(-1.5, 1.5, size=n_nodes)
    a, da = model.kraus_vectors(thetas)
    rho, drho = model.trajectory(thetas)
    slope = da @ np.conj(np.swapaxes(a, -1, -2))
    assert np.max(np.abs(a @ np.conj(np.swapaxes(a, -1, -2)) - rho)) < 1e-12
    assert np.max(np.abs(slope + np.conj(np.swapaxes(slope, -1, -2)) - drho)) < 1e-12
