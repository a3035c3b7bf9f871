import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisherinfo.errors import DimensionMismatch, InvalidState, NotHermitian
from fisherinfo.fisher import classical_fisher, sld_solve
from fisherinfo.models import UnitaryFamily
from fisherinfo.quantum import (
    PAULI_X,
    PAULI_Z,
    KrausChannel,
    adjoint,
    depolarizing_channel,
    pure_state,
    unitary_channel,
)
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_projective_povm,
)

from finite_difference import KrausFamily, fd_state_derivative
from mixed_states import apply_channel, random_full_rank_state


def test_base_state_closed_form(base_model):
    theta = 0.7
    rho = base_model.trajectory([theta])[0][0]
    # e^{-i theta sz}|+> has off-diagonal e^{-2 i theta}/2
    expect = np.array([
        [0.5, 0.5 * np.exp(-2j * theta)],
        [0.5 * np.exp(2j * theta), 0.5],
    ])
    assert np.max(np.abs(rho - expect)) < 1e-12


def test_derivative_is_hermitian_and_traceless(base_model):
    for theta in (0.0, 0.3, 1.1):
        d = base_model.trajectory([theta])[1][0]
        assert np.max(np.abs(d - adjoint(d))) < 1e-10
        assert abs(np.trace(d)) < 1e-10


def test_derivative_matches_finite_difference_builtin(base_model, multipass_model):
    for model in (base_model, multipass_model):
        for theta in (0.0, 0.3, 1.1):
            err = np.max(np.abs(model.trajectory([theta])[1][0] - fd_state_derivative(model, theta)))
            assert err < 1e-6


def test_generator_eigenstate_gives_constant_model():
    model = UnitaryFamily(PAULI_Z, pure_state(np.array([1.0, 0.0])), 1)
    for theta in (0.0, 0.4, 2.0):
        assert np.max(np.abs(model.trajectory([theta])[1][0])) < 1e-12
        assert np.max(np.abs(model.trajectory([theta])[0][0] - np.diag([1.0, 0.0]))) < 1e-12


def test_passes_double_the_angle(plus_state):
    single = UnitaryFamily(PAULI_Z, plus_state, 1)
    double = UnitaryFamily(PAULI_Z, plus_state, 2)
    for theta in (0.1, 0.9):
        assert np.max(np.abs(double.trajectory([theta])[0][0] - single.trajectory([2 * theta])[0][0])) < 1e-12


def test_make_unitary_family_validates_inputs(plus_state):
    with pytest.raises(NotHermitian):
        UnitaryFamily(np.array([[0.0, 1.0], [0.0, 0.0]]), plus_state, 1)
    with pytest.raises(InvalidState):
        UnitaryFamily(PAULI_Z, np.eye(2) / 2.0, 1)
    with pytest.raises(ValueError):
        UnitaryFamily(PAULI_Z, plus_state, 0)


def test_kraus_family_reproduces_unitary_dynamics(plus_state, base_model):
    def kraus_at(theta):
        return KrausChannel([UnitaryFamily(PAULI_Z).propagator(theta)])

    model = KrausFamily(kraus_at, plus_state)
    for theta in (0.0, 0.3, 1.1):
        assert np.max(np.abs(model.trajectory([theta])[0][0] - base_model.trajectory([theta])[0][0])) < 1e-12
        err = np.max(np.abs(model.trajectory([theta])[1][0] - base_model.trajectory([theta])[1][0]))
        assert err < 1e-6


def test_compose_identity_channel_changes_nothing(base_model):
    wrapped = base_model.with_channel(KrausChannel([np.eye(2)]), "post")
    for theta in (0.0, 0.8):
        assert np.max(np.abs(wrapped.trajectory([theta])[0][0] - base_model.trajectory([theta])[0][0])) < 1e-14
        assert np.max(np.abs(wrapped.trajectory([theta])[1][0] - base_model.trajectory([theta])[1][0])) < 1e-14


def test_compose_full_depolarizing_kills_dependence(base_model):
    wrapped = base_model.with_channel(depolarizing_channel(1.0), "post")
    for theta in (0.0, 0.6):
        assert np.max(np.abs(wrapped.trajectory([theta])[0][0] - np.eye(2) / 2.0)) < 1e-12
        assert np.max(np.abs(wrapped.trajectory([theta])[1][0])) < 1e-12


def test_compose_post_applies_channel_to_derivative(base_model):
    channel = unitary_channel(UnitaryFamily(PAULI_X).propagator(np.pi / 4.0))
    wrapped = base_model.with_channel(channel, "post")
    theta = 0.5
    u = channel.kraus[0]
    expect = u @ base_model.trajectory([theta])[1][0] @ adjoint(u)
    assert np.max(np.abs(wrapped.trajectory([theta])[1][0] - expect)) < 1e-12
    err = np.max(np.abs(wrapped.trajectory([theta])[1][0] - fd_state_derivative(wrapped, theta)))
    assert err < 1e-6


def test_compose_pre_transforms_the_input(plus_state, base_model):
    channel = unitary_channel(UnitaryFamily(PAULI_X).propagator(0.3))
    wrapped = base_model.with_channel(channel, "pre")
    u = channel.kraus[0]
    moved = pure_state(u @ np.array([1.0, 1.0]) / np.sqrt(2.0))
    direct = UnitaryFamily(PAULI_Z, moved, 1)
    for theta in (0.0, 0.7):
        assert np.max(np.abs(wrapped.trajectory([theta])[0][0] - direct.trajectory([theta])[0][0])) < 1e-12
        assert np.max(np.abs(wrapped.trajectory([theta])[1][0] - direct.trajectory([theta])[1][0])) < 1e-12


def test_compose_rejects_mismatched_dimensions(base_model):
    with pytest.raises(DimensionMismatch):
        base_model.with_channel(KrausChannel([np.eye(3)]), "post")


def test_compose_rejects_unknown_placement(base_model):
    with pytest.raises(ValueError):
        base_model.with_channel(KrausChannel([np.eye(2)]), "sideways")


def test_with_initial_state_rebinds(base_model):
    rebound = base_model.with_state(pure_state(np.array([1.0, 0.0])))
    assert np.max(np.abs(rebound.trajectory([1.0])[0][0] - np.diag([1.0, 0.0]))) < 1e-12


def test_random_families_match_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        model = UnitaryFamily(
            random_hermitian(rng, dim),
            random_full_rank_state(rng, dim),
            int(rng.integers(1, 4)),
        )
        theta = float(rng.uniform(-1.0, 1.0))
        err = np.max(np.abs(model.trajectory([theta])[1][0] - fd_state_derivative(model, theta)))
        assert err < 1e-6
        assert abs(np.trace(model.trajectory([theta])[1][0])) < 1e-10


def amplitude_damping(gamma: float) -> KrausChannel:
    return KrausChannel([
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
    ])


@pytest.mark.parametrize("order", ["post-pre", "pre-pre"])
def test_pre_channels_act_on_the_input_in_list_order(plus_state, base_model, order):
    # the two pre channels do not commute, so list order shows in the result
    first = unitary_channel(UnitaryFamily(PAULI_X).propagator(0.3))
    second = amplitude_damping(0.4)
    if order == "post-pre":
        model = base_model.with_channel(second, "post").with_channel(first, "pre")
        direct = UnitaryFamily(PAULI_Z, apply_channel(first, plus_state)).with_channel(second)
    else:
        model = base_model.with_channel(first, "pre").with_channel(second, "pre")
        direct = UnitaryFamily(PAULI_Z, apply_channel(second, apply_channel(first, plus_state)))
    for theta in (0.0, 0.7):
        for a, b in zip(model.trajectory([theta]), direct.trajectory([theta])):
            assert np.max(np.abs(a - b)) < 1e-14


def test_trajectory_needs_an_initial_state():
    with pytest.raises(InvalidState):
        UnitaryFamily(PAULI_Z).trajectory([0.1])


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4),
       placements=st.lists(st.sampled_from(["pre", "post"]), max_size=3))
def test_trajectory_invariants_with_random_channels(seed, dim, placements):
    rng = np.random.default_rng(seed)
    model = UnitaryFamily(random_hermitian(rng, dim), random_full_rank_state(rng, dim),
                          int(rng.integers(1, 4)))
    for placement in placements:
        model = model.with_channel(random_channel(rng, dim, int(rng.integers(1, 3))), placement)
    thetas = rng.uniform(-1.5, 1.5, size=4)
    stacked = model.trajectory(thetas)

    # a stack of theta values equals its single-theta rows
    for i, theta in enumerate(thetas):
        for block, row in zip(stacked, model.trajectory([theta])):
            assert np.max(np.abs(block[i] - row[0])) < 1e-13

    # no measurement beats the SLD value
    theta = float(thetas[0])
    povm = random_projective_povm(rng, dim)
    assert classical_fisher(model, povm, theta) <= sld_solve(model, theta).qfi + 1e-7
