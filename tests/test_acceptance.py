"""End-to-end acceptance checks, one test per stated criterion.

Each test prints a PASS/FAIL line through the acceptance_log fixture so a
plain pytest run ends with a one-line-per-criterion scoreboard.
"""

import json

import numpy as np

from fisherinfo.bayes import check_bcrb, uniform_prior
from fisherinfo.cli import main
from fisherinfo.dpi import (
    CLASSICAL_TOL,
    QUANTUM_TOL,
    SLD_TOL,
    StochasticMap,
    _bayesian_pair,
    classical_dpi_suite,
    quantum_dpi_suite,
)
from fisherinfo.documents import pairs_from_matrix
from fisherinfo.fisher import (
    bayesian_information,
    classical_fisher,
    sld_optimal_povm,
    sld_solve,
)
from fisherinfo.linalg import PAULI_X, PAULI_Z, unitary_exp
from fisherinfo.models import UnitaryFamily
from fisherinfo.quantum import (
    KrausChannel,
    apply_channel_matrix,
    apply_dual_matrix,
    depolarizing_channel,
    unitary_channel,
)
from fisherinfo.sampling import (
    random_channel,
    random_hermitian,
    random_projective_povm,
    random_pure_state,
)

from finite_difference import KrausFamily, fd_state_derivative
from mixed_states import random_full_rank_state
from risk_reference import estimator_mse, grid_mean, grid_variance

THETAS = (0.0, 0.4, 1.2)


def test_criterion_01_base_example_information(acceptance_log, base_model, x_basis_povm):
    devs = [abs(classical_fisher(base_model, x_basis_povm, t) - 4.0) for t in THETAS]
    ok = max(devs) < 1e-8
    assert acceptance_log(
        "criterion 1 (base example I = 4)", ok,
        f"max |I - 4| = {max(devs):.2e} over theta in {THETAS} (tol 1e-8)",
    )


def test_criterion_02_multipass_information(acceptance_log, multipass_model, x_basis_povm):
    devs = [abs(classical_fisher(multipass_model, x_basis_povm, t) - 16.0) for t in THETAS]
    ok = max(devs) < 1e-8
    assert acceptance_log(
        "criterion 2 (two passes give I = 16)", ok,
        f"max |I - 16| = {max(devs):.2e} over theta in {THETAS} (tol 1e-8)",
    )


def test_criterion_03_restriction_and_recovery(acceptance_log, base_model, z_basis_povm):
    restricted = [abs(classical_fisher(base_model, z_basis_povm, t)) for t in THETAS]
    rotated = base_model.with_channel(unitary_channel(unitary_exp(PAULI_X, np.pi / 4.0)), "post")
    recovered = [abs(classical_fisher(rotated, z_basis_povm, t) - 4.0) for t in THETAS]
    ok = max(restricted) < 1e-10 and max(recovered) < 1e-8
    assert acceptance_log(
        "criterion 3 (restriction kills, rotation restores)", ok,
        f"max |I_restricted| = {max(restricted):.2e} (tol 1e-10); "
        f"max |I_rotated - 4| = {max(recovered):.2e} (tol 1e-8)",
    )


def test_criterion_04_sld_consistency(acceptance_log, base_model):
    base_dev = max(abs(sld_solve(base_model, t).qfi - 4.0) for t in THETAS)
    result = sld_solve(base_model, 0.4)
    achieved = classical_fisher(base_model, sld_optimal_povm(result), 0.4)
    base_gap = abs(achieved - result.qfi)

    rng = np.random.default_rng(113)
    worst_gap = 0.0
    for _ in range(200):
        model = UnitaryFamily(random_hermitian(rng, 2), random_full_rank_state(rng, 2), 1)
        theta = float(rng.uniform(-1.0, 1.0))
        res = sld_solve(model, theta)
        got = classical_fisher(model, sld_optimal_povm(res), theta)
        worst_gap = max(worst_gap, abs(got - res.qfi))

    ok = base_dev < 1e-8 and base_gap < 1e-7 and worst_gap < 1e-7
    assert acceptance_log(
        "criterion 4 (SLD value, achievability)", ok,
        f"|qfi - 4| = {base_dev:.2e} (tol 1e-8); base gap = {base_gap:.2e}, "
        f"worst gap over 200 random models = {worst_gap:.2e} (tol 1e-7)",
    )


def test_criterion_05_dual_channel_identity(acceptance_log):
    rng = np.random.default_rng(131)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        channel = random_channel(rng, dim, int(rng.integers(1, 1 + 8 // dim)))
        rho = random_full_rank_state(rng, dim).mat
        effect = random_projective_povm(rng, dim).effects[int(rng.integers(dim))]
        lhs = np.trace(apply_channel_matrix(channel, rho) @ effect).real
        rhs = np.trace(rho @ apply_dual_matrix(channel, effect)).real
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-12
    assert acceptance_log(
        "criterion 5 (Heisenberg dual identity)", ok,
        f"max |tr(E(rho) E_x) - tr(rho E^dag(E_x))| = {worst:.2e} over 1000 triples (tol 1e-12)",
    )


def test_criterion_06_classical_dpi_suite(acceptance_log):
    reports = classical_dpi_suite(1000, seed=7)
    violations = sum(r.violated for r in reports)
    worst_gap = min(r.i_before - r.i_after for r in reports)
    worst_j_gap = min(r.extra["j_before"] - r.extra["j_after"] for r in reports)

    rng = np.random.default_rng(139)
    worst_eq = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        model = UnitaryFamily(random_hermitian(rng, dim), random_pure_state(rng, dim), 1)
        povm = random_projective_povm(rng, dim)
        perm = StochasticMap(np.eye(dim)[rng.permutation(dim)])
        i_x, i_y = _bayesian_pair(model, povm, perm, [float(rng.uniform(0.2, 1.2))], [1.0])
        worst_eq = max(worst_eq, abs(i_x - i_y))

    ok = violations == 0 and worst_eq < CLASSICAL_TOL
    assert acceptance_log(
        "criterion 6 (classical DPI, 1000 trials)", ok,
        f"violations = {violations}; min pointwise gap = {worst_gap:.2e}, "
        f"min averaged gap = {worst_j_gap:.2e} (floor -1e-9); "
        f"permutation |I_y - I_x| max = {worst_eq:.2e} (tol 1e-9)",
    )


def test_criterion_07_quantum_dpi_suite(acceptance_log):
    reports = quantum_dpi_suite(200, seed=11, dim=2, kraus_count=2)
    violations = sum(r.violated for r in reports)
    worst_opt = max(r.i_after - r.i_before for r in reports)
    worst_sld = max(r.extra["sld_after"] - r.extra["sld_before"] for r in reports)
    ok = violations == 0 and worst_opt <= QUANTUM_TOL and worst_sld <= SLD_TOL
    assert acceptance_log(
        "criterion 7 (quantum DPI, 200 trials)", ok,
        f"violations = {violations}; max I_after - I_before = {worst_opt:.2e} (tol 1e-3); "
        f"max SLD excess = {worst_sld:.2e} (tol 1e-7)",
    )


def bcrb_configurations(target: int = 500, attempts: int = 5000):
    """Random qubit configurations whose information resolves the prior.

    The bound compares the risk with the inverse of the prior-averaged
    information, so it only has a chance when 1/J is well inside the prior
    variance; configurations are screened for J * variance >= 5 and the
    rest is left to the random draw.
    """
    rng = np.random.default_rng(17)
    configs = []
    for _ in range(attempts):
        if len(configs) == target:
            break
        g = random_hermitian(rng, 2)
        w = np.linalg.eigvalsh(g)
        spread = float(w[-1] - w[0])
        if spread < 0.2:
            continue
        g = g * (2.0 / spread)
        passes = int(rng.integers(6, 11))
        state = random_pure_state(rng, 2)
        povm = random_projective_povm(rng, 2)
        a = float(rng.uniform(0.0, 1.0))
        width = float(rng.uniform(0.8, 1.6))
        prior = uniform_prior(a, a + width, 41)
        model = UnitaryFamily(g, state, passes)
        quick = classical_fisher(model, povm, grid_mean(prior))
        if quick * grid_variance(prior) < 2.0:
            continue
        j = bayesian_information(model, povm, prior)
        if j * grid_variance(prior) < 5.0:
            continue
        configs.append((model, povm, prior))
    return configs


def test_criterion_08_bayesian_layer(acceptance_log, base_model, z_basis_povm):
    prior01 = uniform_prior(0.0, 1.0, 1001)
    flat_risk = check_bcrb(prior01, base_model, z_basis_povm).risk
    var_dev = abs(flat_risk - grid_variance(prior01))
    twelfth_dev = abs(flat_risk - 1.0 / 12.0)

    configs = bcrb_configurations()
    route_dev = 0.0
    min_margin = np.inf
    min_j = np.inf
    holds = 0
    for model, povm, prior in configs:
        report = check_bcrb(prior, model, povm)
        route_dev = max(route_dev, abs(report.risk - estimator_mse(prior, model, povm)))
        min_j = min(min_j, report.j)
        min_margin = min(min_margin, report.risk - 1.0 / report.j)
        if report.satisfied and not report.vacuous and report.j > 1e-6:
            holds += 1

    ok = (len(configs) == 500 and holds == 500 and route_dev < 1e-10
          and var_dev < 1e-12 and twelfth_dev < 1e-6 and min_j > 1e-6)
    assert acceptance_log(
        "criterion 8 (Bayesian layer)", ok,
        f"route max |diff| = {route_dev:.2e} (tol 1e-10); flat risk vs prior "
        f"variance = {var_dev:.2e}, vs 1/12 = {twelfth_dev:.2e} (tol 1e-6); "
        f"BCRB held on {holds}/{len(configs)} configs, min margin = "
        f"{min_margin:.3f}, min J = {min_j:.1f}",
    )


def test_criterion_09_derivative_hygiene(acceptance_log, base_model, multipass_model, plus_state):
    builtins = [
        base_model,
        multipass_model,
        base_model.with_channel(unitary_channel(unitary_exp(PAULI_X, np.pi / 4.0)), "post"),
        base_model.with_channel(depolarizing_channel(0.3), "post"),
        base_model.with_channel(unitary_channel(unitary_exp(PAULI_X, np.pi / 4.0)), "pre"),
        KrausFamily(lambda t: KrausChannel([unitary_exp(PAULI_Z, t)]), plus_state),
    ]
    worst_builtin = 0.0
    for model in builtins:
        for theta in (0.0, 0.3, 1.1):
            dev = np.max(np.abs(model.trajectory([theta])[1][0] - fd_state_derivative(model, theta)))
            worst_builtin = max(worst_builtin, float(dev))

    rng = np.random.default_rng(127)
    worst_random = 0.0
    for k in range(200):
        dim = int(rng.integers(2, 5))
        state = (random_pure_state(rng, dim) if k % 2 else random_full_rank_state(rng, dim))
        model = UnitaryFamily(random_hermitian(rng, dim), state, int(rng.integers(1, 4)))
        if k % 4 == 0:
            model = model.with_channel(random_channel(rng, dim, 8 // dim), "post")
        theta = float(rng.uniform(-1.0, 1.0))
        dev = np.max(np.abs(model.trajectory([theta])[1][0] - fd_state_derivative(model, theta)))
        worst_random = max(worst_random, float(dev))

    ok = worst_builtin < 1e-6 and worst_random < 1e-6
    assert acceptance_log(
        "criterion 9 (analytic vs finite-difference derivatives)", ok,
        f"max deviation: builtins = {worst_builtin:.2e}, 200 random draws = "
        f"{worst_random:.2e} (tol 1e-6, h = 1e-5)",
    )


def _strip_runtime(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"runtime_ms"' not in line)


def test_criterion_10_deterministic_outputs(acceptance_log, capsys, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "dim": 2,
        "kind": "unitary",
        "generator": pairs_from_matrix(PAULI_Z),
        "initial_state": [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]],
    }))

    def run(argv):
        code = main(argv)
        assert code == 0
        return _strip_runtime(capsys.readouterr().out)

    dpi_args = ["dpi", "--mode", "classical", "--trials", "15", "--seed", "5"]
    opt_args = ["optimize", "--model", str(model_path), "--theta", "0.4",
                "--restarts", "6", "--seed", "9"]
    dpi_same = run(dpi_args) == run(dpi_args)
    opt_same = run(opt_args) == run(opt_args)
    ok = dpi_same and opt_same
    assert acceptance_log(
        "criterion 10 (deterministic CLI output)", ok,
        f"byte-identical apart from runtime_ms: dpi = {dpi_same}, optimize = {opt_same}",
    )
