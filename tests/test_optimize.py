import numpy as np
import pytest

from fisherinfo.errors import DimensionMismatch
from fisherinfo.fisher import classical_fisher, sld_solve
from fisherinfo.linalg import PAULI_X, PAULI_Z, unitary_exp
from fisherinfo.models import UnitaryFamily
from fisherinfo.optimize import (
    OptimizationResult,
    _decode_amplitudes,
    circumvention_report,
    maximize_fisher,
)
from fisherinfo.quantum import KrausChannel
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_projective_povm,
    random_pure_state,
)


def test_the_search_rejects_dimensions_it_cannot_take(plus_state, z_basis_povm):
    # the search reads its dimension from the model, which must be 2..MAX_OPT_DIM
    # and agree with a fixed side
    rng = np.random.default_rng(59)
    for dim in (1, 9):
        with pytest.raises(DimensionMismatch, match="dimensions 2..8"):
            maximize_fisher(UnitaryFamily(random_hermitian(rng, dim)), 0.3, restarts=1)
    qutrit = UnitaryFamily(random_hermitian(rng, 3)).with_channel(random_channel(rng, 3, 2))
    with pytest.raises(DimensionMismatch, match="fixed POVM"):
        maximize_fisher(qutrit, 0.3, povm=z_basis_povm, restarts=1)
    with pytest.raises(DimensionMismatch):
        maximize_fisher(qutrit, 0.3, state=plus_state, restarts=1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_decoded_contexts_are_always_valid(dim):
    rng = np.random.default_rng(61)
    for _ in range(50):
        params = rng.uniform(-4.0, 4.0, size=2 * (dim - 1))
        amps = _decode_amplitudes(params, dim)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


def test_unrestricted_maximum_for_one_pass():
    result = maximize_fisher(UnitaryFamily(PAULI_Z), 0.3, restarts=4)
    assert result.best_value == pytest.approx(4.0, abs=1e-8)
    assert isinstance(result, OptimizationResult)


def test_amplitude_damping_caps_the_maximum_at_the_damped_bloch_speed():
    # damping shrinks the equatorial Bloch radius to sqrt(1 - gamma), and the
    # rotation speed stays 2, so the best value is 4 (1 - gamma)
    gamma = 0.3
    damping = KrausChannel([
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
    ])
    family = UnitaryFamily(PAULI_Z).with_channel(damping, "post")
    result = maximize_fisher(family, 0.3, restarts=4, seed=5)
    assert result.best_value == pytest.approx(4.0 * (1.0 - gamma), abs=1e-8)
    replay = classical_fisher(family.with_state(result.best_state), result.best_povm, 0.3)
    assert replay == pytest.approx(result.best_value, abs=1e-12)


def test_a_free_measurement_keeps_the_sld_solve_of_the_chosen_state(z_basis_povm):
    rng = np.random.default_rng(7)
    family = UnitaryFamily(PAULI_Z).with_channel(random_channel(rng, 2, 2), "post")
    result = maximize_fisher(family, 0.3, restarts=2)
    assert result.sld.qfi == sld_solve(family.with_state(result.best_state), 0.3).qfi
    assert maximize_fisher(family, 0.3, povm=z_basis_povm, restarts=2).sld is None


def test_channel_free_maximum_is_the_closed_form_without_a_search(monkeypatch):
    import fisherinfo.optimize

    def no_search(*args, **kwargs):
        raise AssertionError("a channel-free family must not be searched")

    monkeypatch.setattr(fisherinfo.optimize, "_ascend", no_search)
    rng = np.random.default_rng(89)
    for dim, passes in [(2, 1), (3, 2), (4, 3)]:
        generator = random_hermitian(rng, dim)
        w = np.linalg.eigvalsh(generator)
        result = maximize_fisher(UnitaryFamily(generator, passes=passes),
                                 float(rng.uniform(-1, 1)), restarts=4)
        assert result.best_value == pytest.approx((passes * (w[-1] - w[0])) ** 2, abs=1e-12)


def test_unitary_post_channels_keep_the_closed_form_without_a_search(monkeypatch):
    import fisherinfo.optimize

    def no_search(*args, **kwargs):
        raise AssertionError("a unitary post channel leaves the QFI unchanged; no search")

    monkeypatch.setattr(fisherinfo.optimize, "_ascend", no_search)
    rng = np.random.default_rng(97)
    for dim, passes, count in [(2, 1, 1), (2, 3, 2), (3, 2, 1), (4, 1, 2)]:
        generator = random_hermitian(rng, dim)
        w = np.linalg.eigvalsh(generator)
        family = UnitaryFamily(generator, passes=passes)
        for _ in range(count):
            family = family.with_channel(random_channel(rng, dim, 1), "post")
        result = maximize_fisher(family, float(rng.uniform(-1, 1)), restarts=4)
        assert result.best_value == pytest.approx((passes * (w[-1] - w[0])) ** 2, rel=1e-12)
    # a unitary before the dynamics moves the best state, so it is searched
    family = UnitaryFamily(PAULI_Z).with_channel(random_channel(rng, 2, 1), "pre")
    with pytest.raises(AssertionError, match="no search"):
        maximize_fisher(family, 0.3, restarts=1)


@pytest.mark.parametrize("fixed_povm", [False, True])
def test_state_search_builds_no_model_per_candidate(monkeypatch, fixed_povm):
    rng = np.random.default_rng(101)
    family = UnitaryFamily(random_hermitian(rng, 2)).with_channel(random_channel(rng, 2, 2))
    povm = random_projective_povm(rng, 2) if fixed_povm else None
    built = []
    init = UnitaryFamily.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(UnitaryFamily, "__init__", counting_init)
    counts = []
    for restarts in (1, 8):
        built.clear()
        maximize_fisher(family, 0.4, povm=povm, restarts=restarts, seed=3)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 3


def test_fixed_state_with_a_free_measurement_attains_the_qfi():
    rng = np.random.default_rng(97)
    family = UnitaryFamily(random_hermitian(rng, 3)).with_channel(random_channel(rng, 3, 2))
    state = random_pure_state(rng, 3)
    result = maximize_fisher(family, 0.5, state=state, restarts=4)
    assert result.best_state is state
    qfi = sld_solve(family.with_state(state), 0.5).qfi
    assert result.best_value == pytest.approx(qfi, abs=1e-7)


def test_unrestricted_maximum_scales_with_passes_squared():
    result = maximize_fisher(UnitaryFamily(PAULI_Z, passes=2), 0.3, restarts=4)
    assert result.best_value == pytest.approx(16.0, abs=1e-8)


def test_frozen_context_is_scored_not_searched(plus_state, z_basis_povm):
    result = maximize_fisher(UnitaryFamily(PAULI_Z), 0.3, state=plus_state, povm=z_basis_povm,
                             restarts=4)
    assert result.best_value == pytest.approx(0.0, abs=1e-12)
    assert result.best_state is plus_state
    assert result.best_povm is z_basis_povm


def test_fixed_rotation_revives_a_frozen_context(plus_state, z_basis_povm):
    from fisherinfo.quantum import unitary_channel

    family = UnitaryFamily(PAULI_Z).with_channel(
        unitary_channel(unitary_exp(PAULI_X, np.pi / 4.0)), "post"
    )
    result = maximize_fisher(family, 0.3, state=plus_state, povm=z_basis_povm, restarts=4)
    assert result.best_value == pytest.approx(4.0, abs=1e-8)


def test_reported_value_reproduces_through_the_public_path():
    family = UnitaryFamily(PAULI_Z, passes=2)
    result = maximize_fisher(family, 0.7, restarts=4)
    replay = classical_fisher(family.with_state(result.best_state), result.best_povm, 0.7)
    assert replay == pytest.approx(result.best_value, abs=1e-12)


def test_optimization_is_deterministic_for_a_fixed_seed():
    family = UnitaryFamily(random_hermitian(np.random.default_rng(3), 2))
    runs = [maximize_fisher(family, 0.5, restarts=6, seed=42) for _ in range(2)]
    assert runs[0].best_value == runs[1].best_value
    assert np.array_equal(runs[0].best_state.mat, runs[1].best_state.mat)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(runs[0].best_povm.effects, runs[1].best_povm.effects)
    )


def test_no_hand_built_context_beats_the_optimizer():
    rng = np.random.default_rng(71)
    family = UnitaryFamily(random_hermitian(rng, 2), passes=1)
    result = maximize_fisher(family, 0.4, restarts=8, seed=1)
    for _ in range(100):
        state = random_pure_state(rng, 2)
        povm = random_projective_povm(rng, 2)
        value = classical_fisher(family.with_state(state), povm, 0.4)
        assert value <= result.best_value + 1e-9


def bloch_state_grid_oracle(generator: np.ndarray, passes: int) -> float:
    """Exhaustive pure-state sweep with the in-plane measurement maximum.

    For a qubit unitary family the best measurement score at a given pure
    state is the squared Bloch velocity, which depends only on the angle
    between the state and the generator axis.
    """
    paulis = np.stack([
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ])
    b = np.einsum("kij,ji->k", paulis, generator).real / 2.0
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return 0.0
    bhat = b / beta
    pol = np.deg2rad(np.arange(0.0, 180.5, 1.0))
    azi = np.deg2rad(np.arange(0.0, 360.0, 1.0))
    grid_p, grid_a = np.meshgrid(pol, azi, indexing="ij")
    axes = np.stack([
        np.sin(grid_p) * np.cos(grid_a),
        np.sin(grid_p) * np.sin(grid_a),
        np.cos(grid_p),
    ], axis=-1).reshape(-1, 3)
    align = axes @ bhat
    return float(np.max((2.0 * passes * beta) ** 2 * (1.0 - align ** 2)))


def test_optimizer_matches_the_bloch_sphere_oracle():
    rng = np.random.default_rng(73)
    for _ in range(5):
        generator = random_hermitian(rng, 2)
        passes = int(rng.integers(1, 3))
        family = UnitaryFamily(generator, passes=passes)
        result = maximize_fisher(family, float(rng.uniform(-1, 1)), restarts=4, seed=2)
        oracle = bloch_state_grid_oracle(generator, passes)
        assert result.best_value >= oracle - 1e-3

        # the exact optimum is the squared pass-scaled eigenvalue spread
        w = np.linalg.eigvalsh(generator)
        exact = (passes * (w[-1] - w[0])) ** 2
        assert result.best_value == pytest.approx(exact, abs=1e-3)


def test_unrestricted_maximum_equals_the_best_quantum_value():
    rng = np.random.default_rng(79)
    generator = random_hermitian(rng, 2)
    family = UnitaryFamily(generator, passes=1)
    theta = 0.6
    result = maximize_fisher(family, theta, restarts=8, seed=3)
    qfi = sld_solve(family.with_state(result.best_state), theta).qfi
    assert result.best_value <= qfi + 1e-9
    assert abs(result.best_value - qfi) < 1e-3


def test_fixing_a_side_never_helps():
    rng = np.random.default_rng(83)
    family = UnitaryFamily(random_hermitian(rng, 2))
    theta = 0.4
    free_value = maximize_fisher(family, theta, restarts=8, seed=4).best_value
    for _ in range(5):
        pinned = random_pure_state(rng, 2)
        value = maximize_fisher(family, theta, state=pinned, restarts=4, seed=4).best_value
        assert value <= free_value + 1e-9


@pytest.mark.parametrize("theta", [0.0, 0.4, 1.2])
def test_circumvention_report_recovers_all_three_mechanisms(theta):
    report = circumvention_report(theta)
    assert report["base"] == pytest.approx(4.0, abs=1e-8)
    assert report["multipass"] == pytest.approx(16.0, abs=1e-8)
    assert report["restricted"] == pytest.approx(0.0, abs=1e-8)
    assert report["restricted_plus_rotation"] == pytest.approx(4.0, abs=1e-8)
