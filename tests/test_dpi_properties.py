"""Property tests of the quantum data-processing inequality at fixed states.

A parameter-independent channel attached after the dynamics never raises
the SLD quantum Fisher information, and its Heisenberg dual satisfies
tr(E(rho) X) = tr(rho E^dag(X)).  Both are checked here on random draws,
independently of the optimizer that the DPI suite runs.
"""

import numpy as np
from hypothesis import given, strategies as st

from fisherinfo.dpi import DUAL_TOL, SLD_TOL
from fisherinfo.fisher import sld_solve
from fisherinfo.models import UnitaryFamily
from fisherinfo.quantum import DensityMatrix, apply_channel_matrix, apply_dual_matrix
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_pure_state,
)

from mixed_states import random_full_rank_state

seeds = st.integers(0, 2 ** 32 - 1)


@given(seeds, st.integers(2, 4), st.integers(1, 3), st.floats(-1.5, 1.5))
def test_post_channel_never_raises_the_sld_information(seed, dim, kraus_count, theta):
    rng = np.random.default_rng(seed)
    model = UnitaryFamily(random_hermitian(rng, dim), random_full_rank_state(rng, dim))
    noisy = model.with_channel(random_channel(rng, dim, kraus_count), "post")
    assert sld_solve(noisy, theta).qfi <= sld_solve(model, theta).qfi + SLD_TOL


@given(seeds, st.integers(2, 4), st.integers(1, 3), st.floats(-1.5, 1.5),
       st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, 1e-4]))
def test_post_channel_never_raises_the_sld_information_of_a_near_pure_input(
        seed, dim, kraus_count, theta, mixing):
    # a pure input mixed with weight ``mixing`` of a full-rank state; the
    # channel can take the output close to pure as well
    rng = np.random.default_rng(seed)
    pure = random_pure_state(rng, dim).mat
    rho0 = DensityMatrix((1.0 - mixing) * pure + mixing * random_full_rank_state(rng, dim).mat)
    model = UnitaryFamily(random_hermitian(rng, dim), rho0)
    noisy = model.with_channel(random_channel(rng, dim, kraus_count), "post")
    assert sld_solve(noisy, theta).qfi <= sld_solve(model, theta).qfi + SLD_TOL


@given(seeds, st.integers(1, 6), st.integers(1, 3), st.integers(1, 5))
def test_dual_map_acts_on_a_stack_as_on_each_matrix(seed, dim, kraus_count, count):
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, dim, kraus_count)
    rho = random_full_rank_state(rng, dim).mat
    stack = np.stack([random_hermitian(rng, dim) for _ in range(count)])
    stack /= np.max(np.abs(np.linalg.eigvalsh(stack)), axis=-1)[:, None, None]
    pulled = apply_dual_matrix(channel, stack)
    pushed = apply_channel_matrix(channel, rho)
    for x, y in zip(stack, pulled):
        assert apply_dual_matrix(channel, x).tobytes() == y.tobytes()
        assert abs(np.trace(pushed @ x) - np.trace(rho @ y)) < DUAL_TOL
