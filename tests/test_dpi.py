import json

import numpy as np
import pytest

from fisherinfo.dpi import (
    CLASSICAL_TOL,
    DUAL_TOL,
    QUANTUM_TOL,
    SLD_TOL,
    DpiTrialReport,
    StochasticMap,
    _bayesian_pair,
    classical_dpi_suite,
    quantum_dpi_suite,
)
from fisherinfo.fisher import sld_solve
from fisherinfo.models import UnitaryFamily
from fisherinfo.quantum import adjoint
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_stochastic_map,
    trial_seeds,
)

from mixed_states import random_full_rank_state


def test_stochastic_map_validation():
    with pytest.raises(ValueError):
        StochasticMap([0.5, 0.5])
    with pytest.raises(ValueError):
        StochasticMap([[0.5, 1.2], [0.5, -0.2]])
    with pytest.raises(ValueError):
        StochasticMap([[0.5, 0.5], [0.4, 0.5]])
    tmap = StochasticMap([[0.9, 0.2], [0.1, 0.8]])
    assert (tmap.in_count, tmap.out_count) == (2, 2)
    assert np.allclose(tmap.push([0.5, 0.5]), [0.55, 0.45])


def test_pushforward_is_linear_in_both_arrays(base_model, x_basis_povm):
    theta = 0.4
    t = np.array([[0.7, 0.1], [0.2, 0.6], [0.1, 0.3]])
    _, i_y = _bayesian_pair(base_model, x_basis_povm, StochasticMap(t), [theta], [1.0])
    p = np.array([np.cos(theta) ** 2, np.sin(theta) ** 2])
    dp = np.array([-np.sin(2 * theta), np.sin(2 * theta)])
    q, dq = t @ p, t @ dp
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    assert dq.sum() == pytest.approx(0.0, abs=1e-10)
    assert i_y == pytest.approx(np.sum(dq ** 2 / q), abs=1e-10)


def test_pushforward_rejects_mismatched_outcome_counts(base_model, x_basis_povm):
    threemap = StochasticMap(np.full((2, 3), 1.0 / 2.0))
    with pytest.raises(ValueError):
        _bayesian_pair(base_model, x_basis_povm, threemap, [0.4], [1.0])


def test_identity_map_preserves_information(base_model, x_basis_povm):
    i_x, i_y = _bayesian_pair(base_model, x_basis_povm, StochasticMap(np.eye(2)), [0.4], [1.0])
    assert i_x == pytest.approx(4.0, abs=1e-8)
    assert i_y == pytest.approx(i_x, abs=1e-12)


def test_identity_map_preserves_the_flat_outcome_score(base_model, x_basis_povm):
    # theta = 0 puts one outcome on the probability floor; the curvature
    # fallback must survive the pushforward
    i_x, i_y = _bayesian_pair(base_model, x_basis_povm, StochasticMap(np.eye(2)), [0.0], [1.0])
    assert i_x == pytest.approx(4.0, abs=1e-6)
    assert i_y == pytest.approx(i_x, abs=1e-6)


def test_relabeling_outcomes_changes_nothing(base_model, x_basis_povm):
    swap = StochasticMap([[0.0, 1.0], [1.0, 0.0]])
    i_x, i_y = _bayesian_pair(base_model, x_basis_povm, swap, [0.7], [1.0])
    assert i_y == pytest.approx(i_x, abs=1e-12)


def test_merging_all_outcomes_discards_everything(base_model, x_basis_povm):
    merge = StochasticMap(np.ones((1, 2)))
    i_x, i_y = _bayesian_pair(base_model, x_basis_povm, merge, [0.4], [1.0])
    assert i_x == pytest.approx(4.0, abs=1e-8)
    assert i_y == 0.0


def test_symmetric_noise_degrades_information_monotonically(base_model, x_basis_povm):
    theta = 0.4
    last = np.inf
    for eps in np.linspace(0.0, 0.5, 11):
        flip = StochasticMap([[1.0 - eps, eps], [eps, 1.0 - eps]])
        i_x, i_y = _bayesian_pair(base_model, x_basis_povm, flip, [theta], [1.0])
        assert i_y <= i_x + 1e-12
        assert i_y <= last + 1e-12
        last = i_y
    assert last == pytest.approx(0.0, abs=1e-12)


def test_classical_suite_reports_no_violations():
    reports = classical_dpi_suite(100, seed=5)
    assert len(reports) == 100
    assert [r.trial for r in reports] == list(range(100))
    for r in reports:
        assert r.kind == "classical"
        assert not r.violated
        assert r.i_after <= r.i_before + CLASSICAL_TOL
        assert r.extra["j_after"] <= r.extra["j_before"] + CLASSICAL_TOL
        assert r.gap == pytest.approx(r.i_before - r.i_after, abs=1e-15)


def test_classical_suite_is_reproducible():
    a = classical_dpi_suite(10, seed=5)
    b = classical_dpi_suite(10, seed=5)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    c = classical_dpi_suite(10, seed=6)
    assert [r.to_dict() for r in a] != [r.to_dict() for r in c]


def test_quantum_suite_reports_no_violations():
    reports = quantum_dpi_suite(10, seed=11)
    assert len(reports) == 10
    for r in reports:
        assert r.kind == "quantum"
        assert not r.violated
        assert r.i_after <= r.i_before + QUANTUM_TOL
        assert r.extra["sld_after"] <= r.extra["sld_before"] + SLD_TOL
        assert r.extra["dual_defect"] <= DUAL_TOL


def test_the_sld_measurement_never_reads_above_the_qfi():
    # Braunstein-Caves: the classical information of the SLD measurement at
    # the searched state is the QFI there, and never more
    for r in quantum_dpi_suite(200, seed=11, dim=2, kraus_count=2):
        assert r.i_after <= r.extra["sld_after"] * (1.0 + 1e-12)


def test_sld_information_is_monotone_under_channels():
    # direct check at fixed states, independent of any optimizer
    rng = np.random.default_rng(89)
    for _ in range(500):
        dim = int(rng.integers(2, 4))
        state = random_full_rank_state(rng, dim)
        model = UnitaryFamily(random_hermitian(rng, dim), state)
        noisy = model.with_channel(random_channel(rng, dim, 2), "post")
        theta = float(rng.uniform(0.2, 1.2))
        assert sld_solve(noisy, theta).qfi <= sld_solve(model, theta).qfi + SLD_TOL


def test_random_channels_are_trace_preserving():
    rng = np.random.default_rng(97)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        kraus_count = int(rng.integers(1, 1 + 8 // dim))
        channel = random_channel(rng, dim, kraus_count)
        total = sum(adjoint(k) @ k for k in channel.kraus)
        assert np.max(np.abs(total - np.eye(dim))) < 1e-12


def test_random_stochastic_maps_are_column_stochastic():
    rng = np.random.default_rng(101)
    for _ in range(20):
        m = random_stochastic_map(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        assert np.all(m >= 0)
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)


def test_trial_seeds_are_deterministic():
    a = trial_seeds(7, 100)
    b = trial_seeds(7, 100)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint32
    assert len(a) == 100
    assert not np.array_equal(a, trial_seeds(8, 100))


def test_trial_reports_serialize_to_json():
    reports = quantum_dpi_suite(2, seed=11)
    dumped = json.dumps([r.to_dict() for r in reports])
    parsed = json.loads(dumped)
    assert parsed[0]["kind"] == "quantum"
    assert isinstance(parsed[0]["violated"], bool)
    assert set(parsed[0]) >= {"trial", "seed", "i_before", "i_after", "gap", "violated"}


def test_trial_report_extras_flatten_into_the_dict():
    report = DpiTrialReport(trial=0, seed=1, kind="classical", i_before=2.0,
                            i_after=1.0, gap=1.0, violated=False, extra={"dim": 2})
    assert report.to_dict()["dim"] == 2
