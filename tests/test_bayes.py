import numpy as np
import pytest

from fisherinfo.bayes import (
    PriorGrid,
    check_bcrb,
    gaussian_prior,
    grid_prior,
    parse_prior_spec,
    uniform_prior,
)
from fisherinfo.errors import DocumentError
from fisherinfo.fisher import outcome_trajectory
from fisherinfo.models import UnitaryFamily
from fisherinfo.sampling import random_hermitian, random_projective_povm

from mixed_states import random_full_rank_state
from risk_reference import estimator_mse


def risk(prior, model, povm) -> float:
    return check_bcrb(prior, model, povm).risk


def test_prior_grid_validation():
    with pytest.raises(ValueError):
        PriorGrid([0.0, 1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        PriorGrid([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        PriorGrid([0.0, 2.0, 1.0], [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        PriorGrid([0.0, 1.0, 2.0], [0.6, -0.1, 0.5])
    with pytest.raises(ValueError):
        PriorGrid([0.0, 1.0, 2.0], [0.2, 0.2, 0.2])


def test_uniform_grid_moments_follow_the_quadrature_law():
    # trapezoid quadrature is exact for quadratics, so the grid variance is
    # the continuous w^2/12 plus the end-node correction h^2/6, exactly
    for a, b, n in ((0.0, 1.0, 11), (0.0, 1.0, 201), (-0.3, 2.1, 57)):
        prior = uniform_prior(a, b, n)
        w = b - a
        h = w / (n - 1)
        assert prior.mean() == pytest.approx((a + b) / 2, abs=1e-12)
        assert prior.variance() == pytest.approx(w * w / 12 + h * h / 6, abs=1e-12)


def test_fine_uniform_grid_variance_approaches_the_continuum():
    assert abs(uniform_prior(0.0, 1.0, 1001).variance() - 1.0 / 12.0) < 1e-6


def test_gaussian_prior_is_symmetric_and_tightens_with_sigma():
    prior = gaussian_prior(0.5, 0.2, 0.0, 1.0, 201)
    assert prior.mean() == pytest.approx(0.5, abs=1e-12)
    tighter = gaussian_prior(0.5, 0.05, 0.0, 1.0, 201)
    assert tighter.variance() < prior.variance()
    with pytest.raises(ValueError):
        gaussian_prior(0.5, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_prior(0.5, 0.2, 1.0, 0.0)


def test_grid_prior_rejects_zero_density():
    with pytest.raises(ValueError):
        grid_prior([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])


def test_parse_prior_spec_round_trips():
    direct = uniform_prior(0.0, 1.0, 201)
    parsed = parse_prior_spec("uniform:0,1")
    assert np.array_equal(parsed.nodes, direct.nodes)
    assert np.array_equal(parsed.weights, direct.weights)
    gauss = parse_prior_spec("gauss:0.5,0.2,0,1", n=101)
    assert gauss.mean() == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("spec", ["uniform:0", "uniform:zero,one", "tri:0,1", "gauss:1,2", "",
                                  "uniform:1,0", "uniform:0,inf", "gauss:0,-1,0,1"])
def test_parse_prior_spec_rejects_malformed_input(spec):
    with pytest.raises(DocumentError):
        parse_prior_spec(spec)


def test_likelihood_table_rows_are_normalized(base_model, x_basis_povm):
    prior = uniform_prior(0.0, np.pi, 31)
    table = outcome_trajectory(base_model, x_basis_povm, prior.nodes)[0]
    assert table.shape == (31, 2)
    assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)


def test_point_mass_prior_pins_the_estimate(base_model, x_basis_povm):
    prior = PriorGrid([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert risk(prior, base_model, x_basis_povm) == pytest.approx(0.0, abs=1e-15)


def test_risk_routes_agree_and_never_beat_the_prior():
    rng = np.random.default_rng(53)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        model = UnitaryFamily(random_hermitian(rng, dim), random_full_rank_state(rng, dim), 1)
        povm = random_projective_povm(rng, dim)
        a = float(rng.uniform(-1.0, 0.5))
        prior = uniform_prior(a, a + float(rng.uniform(0.5, 2.0)), 61)
        pv = risk(prior, model, povm)
        mse = estimator_mse(prior, model, povm)
        assert abs(pv - mse) < 1e-10
        assert pv <= prior.variance() + 1e-10


def test_uninformative_measurement_risk_is_the_prior_variance(base_model, z_basis_povm):
    prior = uniform_prior(0.1, 1.4, 87)
    assert risk(prior, base_model, z_basis_povm) == pytest.approx(prior.variance(), abs=1e-12)


def test_symmetric_interval_risk_saturates_the_prior_variance(base_model, x_basis_povm):
    # both posterior means sit at pi/2, so conditioning removes no variance
    prior = uniform_prior(0.0, np.pi, 201)
    assert risk(prior, base_model, x_basis_povm) == pytest.approx(prior.variance(), abs=1e-12)


def test_half_interval_risk_is_strictly_below_the_prior_variance(base_model, x_basis_povm):
    prior = uniform_prior(0.0, np.pi / 2, 201)
    assert risk(prior, base_model, x_basis_povm) < prior.variance() - 0.09


def test_risk_matches_monte_carlo_simulation(base_model, x_basis_povm):
    prior = uniform_prior(0.0, np.pi / 2, 201)
    value = risk(prior, base_model, x_basis_povm)
    # each outcome's posterior mean on the grid
    joint = prior.weights[:, None] * outcome_trajectory(base_model, x_basis_povm, prior.nodes)[0]
    estimates = prior.nodes @ joint / joint.sum(axis=0)
    rng = np.random.default_rng(2024)
    thetas = rng.uniform(0.0, np.pi / 2, 100_000)
    outcomes = (rng.uniform(size=thetas.size) > np.cos(thetas) ** 2).astype(int)
    errors = (thetas - estimates[outcomes]) ** 2
    se = errors.std(ddof=1) / np.sqrt(errors.size)
    assert abs(value - errors.mean()) < 3.0 * se


def test_posterior_mean_minimizes_the_quadratic_risk():
    # nudging any single conditional estimate can only increase the risk
    rng = np.random.default_rng(59)
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        model = UnitaryFamily(random_hermitian(rng, dim), random_full_rank_state(rng, dim), 1)
        povm = random_projective_povm(rng, dim)
        prior = uniform_prior(0.0, float(rng.uniform(0.5, 2.0)), 41)
        table = outcome_trajectory(model, povm, prior.nodes)[0]
        joint = prior.weights[:, None] * table
        evidence = joint.sum(axis=0)
        keep = evidence > 1e-300
        estimates = np.where(keep, (prior.nodes @ joint) / np.where(keep, evidence, 1.0), 0.0)

        def total_risk(est):
            return float(np.sum(joint * (prior.nodes[:, None] - est[None, :]) ** 2))

        base = total_risk(estimates)
        assert base == pytest.approx(risk(prior, model, povm), abs=1e-10)
        for x in range(len(evidence)):
            if not keep[x]:
                continue
            bumped = estimates.copy()
            bumped[x] += 0.01
            assert total_risk(bumped) >= base - 1e-12


def test_bcrb_holds_on_a_wide_prior(base_model, x_basis_povm):
    report = check_bcrb(uniform_prior(0.0, np.pi, 201), base_model, x_basis_povm)
    assert report.satisfied and not report.vacuous
    assert report.j == pytest.approx(4.0, abs=1e-8)
    assert report.risk >= 1.0 / report.j


def test_bcrb_fails_on_a_narrow_prior(base_model, x_basis_povm):
    # with a 0.1-wide prior the risk is ~w^2/48 while 1/J is 0.25, so the
    # grid-information form of the bound genuinely does not hold here
    report = check_bcrb(uniform_prior(0.7, 0.8, 201), base_model, x_basis_povm)
    assert not report.satisfied
    assert not report.vacuous
    assert report.risk < 1.0 / report.j


def test_bcrb_reports_vacuous_when_information_vanishes(base_model, z_basis_povm):
    report = check_bcrb(uniform_prior(0.2, 1.2, 51), base_model, z_basis_povm)
    assert report.vacuous
    assert report.satisfied
    assert report.j <= 1e-12
    assert report.risk == pytest.approx(uniform_prior(0.2, 1.2, 51).variance(), abs=1e-12)
