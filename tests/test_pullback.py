"""The Heisenberg-picture Born kernel against the state path, and the choice between them.

``UnitaryFamily.pulled_back_outcomes`` pulls the effects back through the
post channels and scores every node from one phase-matrix product;
``outcome_blocks(povm, *model.trajectory(thetas))`` pushes the states
forward and traces them.  ``fisher.outcome_trajectory`` takes the first
when the POVM has fewer effects than there are nodes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisherinfo import fisher, quantum
from fisherinfo.bayes import check_bcrb, uniform_prior
from fisherinfo.errors import DimensionMismatch, InvalidPovm, InvalidState
from fisherinfo.fisher import (
    classical_fisher,
    outcome_blocks,
    outcome_information,
)
from fisherinfo.models import UnitaryFamily
from fisherinfo.quantum import PAULI_Z, Povm, adjoint, pure_state
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_projective_povm,
    random_pure_state,
)

from mixed_states import maximally_mixed

EPS = np.finfo(float).eps


def state_path(model, povm, thetas):
    return outcome_blocks(povm, *model.trajectory(thetas))


def random_povm(rng, dim, projective):
    if projective:
        return random_projective_povm(rng, dim)
    # K_j^dag K_j of a random channel's Kraus operators: a general POVM
    kraus = random_channel(rng, dim, int(rng.integers(2, 64 // dim + 1))).kraus
    return Povm([adjoint(k) @ k for k in kraus], validate=False)


@settings(max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 8), passes=st.integers(1, 3),
       placements=st.lists(st.sampled_from(["pre", "post"]), max_size=3),
       projective=st.booleans(), n_nodes=st.integers(1, 401))
def test_pulled_back_outcomes_equal_the_state_path(seed, dim, passes, placements, projective,
                                                   n_nodes):
    rng = np.random.default_rng(seed)
    model = UnitaryFamily(random_hermitian(rng, dim), random_pure_state(rng, dim), passes)
    for placement in placements:
        model = model.with_channel(random_channel(rng, dim, int(rng.integers(1, 4))), placement)
    povm = random_povm(rng, dim, projective)
    thetas = rng.uniform(-np.pi, np.pi, size=n_nodes)

    w = model._gen_eig[0]
    scale = max(1.0, passes * float(w[-1] - w[0]))
    pulled = model.pulled_back_outcomes(povm, thetas)
    pushed = state_path(model, povm, thetas)
    for j, (a, b) in enumerate(zip(pulled, pushed)):
        assert a.shape == b.shape == (n_nodes, len(povm))
        assert np.max(np.abs(a - b)) <= 64 * EPS * dim * scale ** j


def raised_by(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("case", ["sum", "clamp", "dimension", "no_state"])
def test_both_paths_raise_the_same_error(case):
    # a diagonal generator and state keep both paths exact at multiples of
    # pi/2, so even the printed row sum agrees to the last digit
    thetas = np.pi / 2 * np.arange(4)
    model = UnitaryFamily(PAULI_Z, maximally_mixed(2)).with_channel(
        quantum.unitary_channel(np.array([[0.0, 1.0], [1.0, 0.0]])))
    povm = Povm([np.diag([2.0, 0.0]), np.diag([0.0, 2.0])], validate=False)
    expected = (InvalidPovm, "probabilities sum to 2.0, not 1")
    if case == "clamp":
        model = UnitaryFamily(PAULI_Z, pure_state(np.array([1.0, 0.0])))
        povm = Povm([np.diag([1.0 + 1e-3, -1e-3]), np.diag([-1e-3, 1.0 + 1e-3])], validate=False)
        expected = (InvalidPovm, "probability -1.000e-03 below clamp floor")
    elif case == "dimension":
        povm = Povm([np.eye(3)], validate=False)
        expected = (DimensionMismatch, "state and POVM dimensions differ")
    elif case == "no_state":
        model = UnitaryFamily(PAULI_Z)
        expected = (InvalidState, "the model has no initial state; bind one with with_state")
    assert len(povm) < len(thetas)
    assert raised_by(lambda: model.pulled_back_outcomes(povm, thetas)) == expected
    assert raised_by(lambda: state_path(model, povm, thetas)) == expected
    assert raised_by(lambda: fisher.outcome_trajectory(model, povm, thetas)) == expected


def count_calls(monkeypatch, targets):
    calls = []
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_grid_pulls_the_effects_back_and_a_point_pushes_the_state(monkeypatch):
    rng = np.random.default_rng(211)
    model = UnitaryFamily(random_hermitian(rng, 3), random_pure_state(rng, 3)).with_channel(
        random_channel(rng, 3, 2))
    povm = random_projective_povm(rng, 3)
    calls = count_calls(monkeypatch, [(UnitaryFamily, "trajectory"), (quantum, "born_probabilities"),
                                      (fisher, "born_probabilities")])
    check_bcrb(uniform_prior(0.0, 1.0, 21), model, povm)
    assert calls == []
    classical_fisher(model, povm, 0.4)
    assert calls == ["trajectory", "born_probabilities"]


def test_a_single_theta_keeps_the_state_path_bitwise():
    rng = np.random.default_rng(223)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        model = UnitaryFamily(random_hermitian(rng, dim), random_pure_state(rng, dim),
                              int(rng.integers(1, 4)))
        model = model.with_channel(random_channel(rng, dim, 2), "pre").with_channel(
            random_channel(rng, dim, 2), "post")
        povm = random_projective_povm(rng, dim)
        theta = float(rng.uniform(-np.pi, np.pi))
        p, dp = outcome_blocks(povm, *model.trajectory([theta]))
        scores = outcome_information(model, [theta], p, dp, lambda: povm.factors)
        assert classical_fisher(model, povm, theta) == float(scores[0])
