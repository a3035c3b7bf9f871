"""The fixed-theta transfer map and the state-search objective built on it."""

import numpy as np
from hypothesis import given, settings, strategies as st

from fisherinfo.fisher import classical_fisher, sld_solve
from fisherinfo.models import UnitaryFamily
from fisherinfo.optimize import state_objective
from fisherinfo.quantum import pure_state
from fisherinfo.sampling import random_channel, random_hermitian, random_projective_povm


def random_amplitudes(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), passes=st.integers(1, 3),
       placements=st.lists(st.sampled_from(["pre", "post"]), max_size=3))
def test_transfer_map_reproduces_the_rebuilt_model(seed, dim, passes, placements):
    rng = np.random.default_rng(seed)
    family = UnitaryFamily(random_hermitian(rng, dim), passes=passes)
    for placement in placements:
        family = family.with_channel(random_channel(rng, dim, int(rng.integers(1, 4))), placement)
    theta = float(rng.uniform(-1.5, 1.5))
    amplitudes = random_amplitudes(rng, dim)
    rebuilt = family.with_state(pure_state(amplitudes))

    maps = family.transfer(theta)
    assert maps.shape == (3 * dim * dim, dim * dim)
    prepared = family.prepare_input(pure_state(amplitudes)).mat.reshape(-1)
    blocks = (maps @ prepared).reshape(3, dim, dim)
    for block, row in zip(blocks, rebuilt.trajectory([theta])):
        assert np.max(np.abs(block - row[0])) < 1e-12

    qfi = sld_solve(rebuilt, theta).qfi
    assert abs(state_objective(family, None, theta)(amplitudes) - qfi) <= 1e-12 * qfi

    povm = random_projective_povm(rng, dim)
    value = classical_fisher(rebuilt, povm, theta).value
    assert abs(state_objective(family, povm, theta)(amplitudes) - value) <= 1e-12 * value
