import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fisherinfo.errors import DimensionMismatch
from fisherinfo.fisher import (
    NEAR_NULL,
    classical_fisher,
    model_scores,
    qfi_from_vectors,
    sld_optimal_povm,
    sld_solve,
)
from fisherinfo.bayes import check_bcrb, uniform_prior
from fisherinfo.models import UnitaryFamily
from fisherinfo.quantum import PAULI_Z, DensityMatrix, Povm, adjoint, projective_povm, pure_state
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_projective_povm,
    random_pure_state,
)

from mixed_states import random_full_rank_state


def test_base_information_is_four_at_all_angles(base_model, x_basis_povm):
    for theta in (0.0, 0.4, 1.2):
        assert classical_fisher(base_model, x_basis_povm, theta) == pytest.approx(4.0, abs=1e-8)


def test_aligned_basis_sees_nothing(base_model, z_basis_povm):
    for theta in (0.0, 0.4, 1.2):
        assert classical_fisher(base_model, z_basis_povm, theta) == pytest.approx(0.0, abs=1e-12)


def test_two_passes_quadruple_the_information(multipass_model, x_basis_povm):
    for theta in (0.0, 0.4):
        assert classical_fisher(multipass_model, x_basis_povm, theta) == pytest.approx(16.0, abs=1e-8)


def test_removable_points_take_the_analytic_limit(base_model, multipass_model, x_basis_povm):
    # one outcome has p = dp = 0 here; its score is the amplitude limit 4 |b'|^2
    for model, limit in ((base_model, 4.0), (multipass_model, 16.0)):
        for theta in (0.0, np.pi / 2):
            assert abs(classical_fisher(model, x_basis_povm, theta) - limit) < 1e-12


def scalar_information(p, dp, limits):
    """The outcome score as a loop over one row's outcomes; an outcome below
    NEAR_NULL takes its entry of ``limits``."""
    total = 0.0
    for x in range(len(p)):
        px, dx = float(p[x]), float(dp[x])
        total += float(limits[x]) if px < NEAR_NULL else dx * dx / px
    return total


# probabilities on both sides of NEAR_NULL, zeros included
PROBABILITY = st.one_of(st.just(0.0), st.floats(0.0, 2 * NEAR_NULL), st.floats(1e-9, 1.0))
DERIVATIVE = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@settings(max_examples=300)
@given(data=st.data(), rows=st.integers(1, 4), outcomes=st.integers(1, 8))
def test_stacked_outcome_scores_equal_the_outcome_loop(data, rows, outcomes):
    def block(elements):
        return np.array(data.draw(st.lists(st.lists(elements, min_size=outcomes, max_size=outcomes),
                                           min_size=rows, max_size=rows)))

    p, dp, limits = block(PROBABILITY), block(DERIVATIVE), block(st.floats(0.0, 5.0))
    masks = []

    def near_terms(near):
        masks.append(near)
        return limits[near]

    expected = [scalar_information(p[r], dp[r], limits[r]) for r in range(rows)]
    assert model_scores(p, dp, near_terms).tobytes() == np.array(expected).tobytes()
    # the near-null cells are asked for once, and only if there are any
    assert len(masks) == int(bool(np.any(p < NEAR_NULL)))


@pytest.mark.parametrize("offset", [1e-9, 1e-8, 1e-7, 5e-7, 1e-6, 2e-6, 1e-5, 1e-4, 1e-3])
def test_a_vanishing_probability_is_scored_from_its_amplitudes(base_model, x_basis_povm, offset):
    # one outcome's p is sin^2(offset) on either side of the zeros at 0 and
    # pi/2, and the information is 4 throughout: exact from the amplitudes
    # below NEAR_NULL, within the Born rows' rounding of p above it
    for theta in (offset, -offset, np.pi / 2 + offset, np.pi / 2 - offset):
        near = base_model.pulled_back_outcomes(x_basis_povm, [theta])[0].min() < NEAR_NULL
        assert classical_fisher(base_model, x_basis_povm, theta) == pytest.approx(
            4.0, rel=1e-13 if near else 1e-7)


def test_dimension_mismatch_is_rejected(base_model):
    with pytest.raises(DimensionMismatch):
        classical_fisher(base_model, projective_povm(np.eye(3)), 0.3)


def test_information_invariant_under_outcome_relabeling(base_model, x_basis_povm):
    theta = 0.4
    flipped = Povm(list(x_basis_povm.effects)[::-1], labels=(7, 3))
    lhs = classical_fisher(base_model, x_basis_povm, theta)
    rhs = classical_fisher(base_model, flipped, theta)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_comoving_measurement_gives_constant_information(base_model):
    rng = np.random.default_rng(31)
    effects0 = random_projective_povm(rng, 2).effects
    values = []
    for theta in (0.0, 0.3, 0.7, 1.1, 2.0):
        u = base_model.propagator(theta)
        moving = Povm([u @ e @ adjoint(u) for e in effects0])
        values.append(classical_fisher(base_model, moving, theta))
    assert np.max(values) - np.min(values) < 1e-9


def test_sld_of_base_model(base_model):
    result = sld_solve(base_model, 0.4)
    assert result.qfi == pytest.approx(4.0, abs=1e-8)
    assert result.support_rank == 1
    assert np.max(np.abs(result.sld - adjoint(result.sld))) < 1e-10


def test_sld_of_constant_model():
    model = UnitaryFamily(PAULI_Z, pure_state(np.array([1.0, 0.0])), 1)
    assert sld_solve(model, 0.9).qfi == pytest.approx(0.0, abs=1e-12)


def _qfi_reference(mpmath, generator, psi, kraus, theta):
    """The QFI of rho(theta) = sum_j K_j U psi psi^dag U^dag K_j^dag, at 50 digits."""
    with mpmath.workdps(50):
        g = mpmath.matrix(generator.tolist())
        phi = mpmath.expm(-1j * mpmath.mpf(theta) * g) * mpmath.matrix(psi.tolist())
        dphi = -1j * g * phi
        dim = len(psi)
        rho, drho = mpmath.zeros(dim), mpmath.zeros(dim)
        for k in map(mpmath.matrix, kraus.tolist()):
            a, da = k * phi, k * dphi
            rho += a * a.H
            drho += da * a.H + a * da.H
        w, q = mpmath.eighe(rho)
        d = q.H * drho * q
        return float(sum(2 * abs(d[i, j]) ** 2 / (w[i] + w[j])
                         for i in range(dim) for j in range(dim) if w[i] + w[j] > 0))


def output_pure_at(dim, seed, theta0=0.7):
    """A model whose output is pure at theta0: v is an eigenvector of
    K0^-1 K1, so K0 v and K1 v are parallel; with its generator, input and
    Kraus operators."""
    rng = np.random.default_rng(seed)
    generator = random_hermitian(rng, dim)
    channel = random_channel(rng, dim, 2)
    v = np.linalg.eig(np.linalg.solve(*channel.kraus))[1][:, 0]
    family = UnitaryFamily(generator)
    psi = adjoint(family.propagator(theta0)) @ v
    return family.with_state(pure_state(psi)).with_channel(channel, "post"), generator, psi, channel


def check_against_the_reference(dim, seed, offset):
    mpmath = pytest.importorskip("mpmath")
    model, generator, psi, channel = output_pure_at(dim, seed)
    theta = 0.7 + offset
    reference = _qfi_reference(mpmath, generator, psi, channel.kraus, theta)
    assert sld_solve(model, theta).qfi == pytest.approx(reference, rel=1e-8)
    # the search's kernel: the qubit closed form, or the singular-value form
    assert qfi_from_vectors(*model.kraus_vectors([theta]))[0][0] == pytest.approx(reference, rel=1e-8)


# a qubit whose output is pure at theta0 = 0.7; the reference is
# 8.51326088441 for |theta - theta0| <= 1e-6
@pytest.mark.parametrize("offset", [1e-3, 1e-6, 1e-9, -1e-9])
def test_sld_matches_a_50_digit_reference_near_a_pure_output(offset):
    check_against_the_reference(2, 3, offset)


@pytest.mark.parametrize("seed", [3, 5])
@pytest.mark.parametrize("offset", [1e-5, 1e-6, 1e-7, 1e-9, -1e-9])
def test_sld_matches_a_50_digit_reference_near_a_pure_output_at_dim_3(seed, offset):
    check_against_the_reference(3, seed, offset)


@pytest.mark.parametrize("dim, seed", [(2, 3), (3, 3), (4, 3)])
def test_sld_value_is_continuous_across_a_pure_output(dim, seed):
    model = output_pure_at(dim, seed)[0]
    values = {k: [sld_solve(model, 0.7 + side * 10.0 ** -k).qfi for side in (-1, 1)]
              for k in range(3, 10)}
    limit = np.mean(values[9])
    for k, sides in values.items():
        # the value is smooth in theta, so each side moves by O(10^-k)
        assert max(abs(v - limit) for v in sides) <= 100.0 * 10.0 ** -k * max(1.0, limit)
    # the SLD measurement attains it, its near-null outcome scored from amplitudes
    for k in (4, 6, 9):
        theta = 0.7 + 10.0 ** -k
        result = sld_solve(model, theta)
        assert classical_fisher(model, sld_optimal_povm(result), theta) == pytest.approx(
            result.qfi, rel=1e-8)


@pytest.mark.parametrize("dim, seed", [(2, 3), (2, 5), (3, 3), (4, 3)])
def test_the_sld_measurement_attains_the_limit_where_the_output_is_pure(dim, seed):
    model = output_pure_at(dim, seed)[0]
    result = sld_solve(model, 0.7)
    assert result.support_rank == 1 and result.basis is not None
    assert np.array_equal(result.sld, adjoint(result.sld))
    assert classical_fisher(model, sld_optimal_povm(result), 0.7) == pytest.approx(
        result.qfi, rel=1e-12)
    # the SLD's own eigenbasis mixes the null space with the support and
    # misses how fast the null space fills
    _, v = np.linalg.eigh(result.sld)
    assert classical_fisher(model, projective_povm(v), 0.7) < result.qfi * (1 - 1e-6)


@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 6), pre=st.integers(1, 3),
       post=st.integers(1, 3), pure=st.booleans(), theta=st.floats(-1.5, 1.5))
@example(seed=11, dim=3, pre=1, post=1, pure=True, theta=0.4)
@example(seed=11, dim=6, pre=1, post=1, pure=True, theta=0.4)
def test_the_sld_equals_its_adjoint_exactly(seed, dim, pre, post, pure, theta):
    # sld_optimal_povm diagonalizes the SLD as it is; a pure input through one
    # Kraus operator on each side is a pure output, a drop in rank
    rng = np.random.default_rng(seed)
    rho0 = random_pure_state(rng, dim) if pure else random_full_rank_state(rng, dim)
    model = UnitaryFamily(random_hermitian(rng, dim), rho0)
    for count, placement in ((pre, "pre"), (post, "post")):
        model = model.with_channel(random_channel(rng, dim, count), placement)
    sld = sld_solve(model, theta).sld
    assert np.array_equal(sld, adjoint(sld))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), kraus=st.integers(1, 4),
       offset_exponent=st.integers(3, 9), side=st.sampled_from([-1, 1]))
def test_no_measurement_beats_the_sld_value_near_a_pure_output(seed, dim, kraus, offset_exponent,
                                                               side):
    rng = np.random.default_rng(seed)
    model = output_pure_at(dim, int(rng.integers(1000)))[0].with_channel(
        random_channel(rng, dim, kraus), "post")
    theta = 0.7 + side * 10.0 ** -offset_exponent
    qfi = sld_solve(model, theta).qfi
    for _ in range(4):
        value = classical_fisher(model, random_projective_povm(rng, dim), theta)
        assert 0.0 <= value <= qfi * (1 + 1e-9) + 1e-12


def test_sld_measurement_achieves_the_quantum_value(base_model):
    result = sld_solve(base_model, 0.4)
    povm = sld_optimal_povm(result)
    achieved = classical_fisher(base_model, povm, 0.4)
    assert achieved == pytest.approx(result.qfi, abs=1e-7)


def test_sld_achievability_on_random_full_rank_models():
    rng = np.random.default_rng(37)
    for _ in range(200):
        model = UnitaryFamily(random_hermitian(rng, 2), random_full_rank_state(rng, 2), 1)
        theta = float(rng.uniform(-1.0, 1.0))
        result = sld_solve(model, theta)
        achieved = classical_fisher(model, sld_optimal_povm(result), theta)
        assert abs(achieved - result.qfi) < 1e-7


def test_no_measurement_beats_the_sld_value():
    rng = np.random.default_rng(41)
    for _ in range(500):
        dim = int(rng.integers(2, 4))
        model = UnitaryFamily(random_hermitian(rng, dim), random_full_rank_state(rng, dim), 1)
        theta = float(rng.uniform(-1.0, 1.0))
        qfi = sld_solve(model, theta).qfi
        value = classical_fisher(model, random_projective_povm(rng, dim), theta)
        assert value <= qfi + 1e-7
        assert value >= 0.0


def test_mixed_state_sld_matches_measurement_sphere_search():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho0 = DensityMatrix(0.5 * np.eye(2) / 2.0 + 0.5 * np.outer(plus, plus.conj()))
    model = UnitaryFamily(PAULI_Z, rho0, 1)
    theta = 0.3
    qfi = sld_solve(model, theta).qfi
    assert qfi == pytest.approx(1.0, abs=1e-10)

    # dense sweep of projective measurement axes at one-degree resolution
    rho = model.trajectory([theta])[0][0]
    drho = model.trajectory([theta])[1][0]
    paulis = np.stack([
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ])
    r = np.einsum("kij,ji->k", paulis, rho).real
    dr = np.einsum("kij,ji->k", paulis, drho).real
    pol = np.deg2rad(np.arange(0.0, 180.5, 1.0))
    azi = np.deg2rad(np.arange(0.0, 360.0, 1.0))
    grid_p, grid_a = np.meshgrid(pol, azi, indexing="ij")
    axes = np.stack([
        np.sin(grid_p) * np.cos(grid_a),
        np.sin(grid_p) * np.sin(grid_a),
        np.cos(grid_p),
    ], axis=-1).reshape(-1, 3)
    align = axes @ r
    slope = axes @ dr
    denom = 1.0 - align ** 2
    keep = denom > 1e-12
    brute = float(np.max(np.where(keep, slope ** 2 / np.where(keep, denom, 1.0), 0.0)))
    assert abs(qfi - brute) < 1e-4


def test_prior_average_of_constant_information(base_model, x_basis_povm):
    j = check_bcrb(uniform_prior(0.0, np.pi / 2, 101), base_model, x_basis_povm).j
    assert j == pytest.approx(4.0, abs=1e-8)


def test_prior_average_of_blind_measurement(base_model, z_basis_povm):
    j = check_bcrb(uniform_prior(0.2, 1.2, 51), base_model, z_basis_povm).j
    assert j == pytest.approx(0.0, abs=1e-12)


def test_prior_average_of_constant_model(x_basis_povm):
    model = UnitaryFamily(PAULI_Z, pure_state(np.array([1.0, 0.0])), 1)
    j = check_bcrb(uniform_prior(0.2, 1.2, 51), model, x_basis_povm).j
    assert j == pytest.approx(0.0, abs=1e-12)
