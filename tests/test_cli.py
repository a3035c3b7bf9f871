import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fisherinfo.cli import main
from fisherinfo.documents import pairs_from_matrix, povm_to_document
from fisherinfo.errors import _cut
from fisherinfo.linalg import PAULI_X, PAULI_Z
from fisherinfo.quantum import projective_povm


@pytest.fixture()
def model_file(tmp_path):
    doc = {
        "dim": 2,
        "kind": "unitary",
        "generator": pairs_from_matrix(PAULI_Z),
        "initial_state": [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def x_povm_file(tmp_path):
    basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    path = tmp_path / "x_povm.json"
    path.write_text(json.dumps(povm_to_document(projective_povm(basis))))
    return str(path)


@pytest.fixture()
def z_povm_file(tmp_path):
    path = tmp_path / "z_povm.json"
    path.write_text(json.dumps(povm_to_document(projective_povm(np.eye(2)))))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fisher_command(capsys, model_file, x_povm_file):
    code, out, err = run_cli(capsys, [
        "fisher", "--model", model_file, "--povm", x_povm_file, "--theta", "0.3",
    ])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "fisher"
    assert report["value"] == pytest.approx(4.0, abs=1e-8)
    assert report["inputs"]["theta"] == 0.3
    assert report["tolerances"] == {}
    assert list(report)[-1] == "runtime_ms"


def test_fisher_command_with_a_blind_measurement(capsys, model_file, z_povm_file):
    code, out, _ = run_cli(capsys, [
        "fisher", "--model", model_file, "--povm", z_povm_file, "--theta", "0.3",
    ])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-12)


def test_qfi_command(capsys, model_file):
    code, out, _ = run_cli(capsys, ["qfi", "--model", model_file, "--theta", "0.3"])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(4.0, abs=1e-8)
    assert report["support_rank"] == 1


def test_bayes_command_reports_the_bound(capsys, model_file, x_povm_file):
    code, out, _ = run_cli(capsys, [
        "bayes", "--model", model_file, "--povm", x_povm_file,
        "--prior", f"uniform:0,{np.pi}", "--grid", "201",
    ])
    assert code == 0
    values = json.loads(out)["values"]
    assert values["bayesian_information"] == pytest.approx(4.0, abs=1e-8)
    assert values["bcrb_satisfied"] is True
    assert values["bcrb_vacuous"] is False


def test_bayes_command_on_an_uninformative_measurement(capsys, model_file, z_povm_file):
    code, out, _ = run_cli(capsys, [
        "bayes", "--model", model_file, "--povm", z_povm_file,
        "--prior", "uniform:0,1", "--grid", "1001",
    ])
    assert code == 0
    values = json.loads(out)["values"]
    assert abs(values["risk"] - 1.0 / 12.0) < 1e-6
    assert values["bcrb_vacuous"] is True


def test_optimize_command(capsys, model_file):
    code, out, _ = run_cli(capsys, [
        "optimize", "--model", model_file, "--theta", "0.3",
        "--restarts", "4", "--seed", "0",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(4.0, abs=1e-8)
    assert report["context"]["label"] == "unrestricted"
    assert report["context"]["povm"]["dim"] == 2
    assert len(report["context"]["state"]) == 2


def test_optimize_command_with_frozen_context(capsys, model_file, z_povm_file):
    code, out, _ = run_cli(capsys, [
        "optimize", "--model", model_file, "--theta", "0.3",
        "--restarts", "2", "--fix-state", "--fix-povm", z_povm_file,
    ])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(0.0, abs=1e-12)
    assert report["context"]["label"] == "fixed state, fixed povm"


def test_dpi_command_classical(capsys):
    code, out, _ = run_cli(capsys, [
        "dpi", "--mode", "classical", "--trials", "20", "--seed", "5",
    ])
    assert code == 0
    lines = out.splitlines()
    trial_reports = [json.loads(line) for line in lines[:20]]
    assert [r["trial"] for r in trial_reports] == list(range(20))
    assert all(not r["violated"] for r in trial_reports)
    summary = json.loads("\n".join(lines[20:]))
    assert summary["command"] == "dpi"
    assert summary["violations"] == 0
    assert summary["trials"] == 20


def test_dpi_command_quantum(capsys):
    code, out, _ = run_cli(capsys, [
        "dpi", "--mode", "quantum", "--trials", "3", "--seed", "11",
    ])
    assert code == 0
    lines = out.splitlines()
    for line in lines[:3]:
        report = json.loads(line)
        assert report["kind"] == "quantum"
        assert not report["violated"]
    assert json.loads("\n".join(lines[3:]))["violations"] == 0


def test_paper_example_command(capsys):
    code, out, _ = run_cli(capsys, ["paper-example", "--theta", "0.4"])
    assert code == 0
    report = json.loads(out)
    values = report["values"]
    assert values["base"] == pytest.approx(4.0, abs=1e-8)
    assert values["multipass"] == pytest.approx(16.0, abs=1e-8)
    assert values["restricted"] == pytest.approx(0.0, abs=1e-8)
    assert values["restricted_plus_rotation"] == pytest.approx(4.0, abs=1e-8)
    assert set(report["statements"]) == set(values)


def test_malformed_document_exits_2(capsys, tmp_path, x_povm_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run_cli(capsys, [
        "fisher", "--model", str(bad), "--povm", x_povm_file, "--theta", "0.3",
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error:2:")


_PAIRS_1 = "[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]"
_POSITIONS = {
    # (model document or None, POVM document or None) with {c} where the
    # number goes; each reads as a valid document with 0.0 in place of {c}
    "generator": ('{{"dim": 2, "kind": "unitary", '
                  '"generator": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [{c}, 0.0]]], '
                  '"initial_state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]}}',
                  None),
    "initial_state": ('{{"dim": 2, "kind": "unitary", '
                      f'"generator": [{_PAIRS_1}], '
                      '"initial_state": [[0.7071067811865476, 0.0], [0.7071067811865476, {c}]]}}',
                      None),
    "kraus": ('{{"dim": 2, "kind": "unitary", '
              f'"generator": [{_PAIRS_1}], '
              '"initial_state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]], '
              '"compose": [{{"kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, {c}]]]], '
              '"placement": "pre"}}]}}',
              None),
    "effect": (None,
               '{{"dim": 2, "effects": [[[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]], '
               '[[[0.5, 0.0], [-0.5, {c}]], [[-0.5, 0.0], [0.5, 0.0]]]]}}'),
}


@pytest.mark.parametrize("constant, position", [
    pytest.param("NaN", "generator", id="NaN"),
    pytest.param("Infinity", "generator", id="Infinity"),
    pytest.param("-Infinity", "generator", id="-Infinity"),
    pytest.param("1e999", "generator", id="1e999"),
    pytest.param("1e999", "initial_state", id="1e999-initial_state"),
    pytest.param("1e999", "kraus", id="1e999-kraus"),
    pytest.param("-1e999", "effect", id="-1e999-effect"),
    pytest.param("1e999", "effect", id="1e999-effect"),
])
def test_non_finite_number_in_a_document_exits_2(capsys, tmp_path, model_file, x_povm_file,
                                                  constant, position):
    model_text, povm_text = _POSITIONS[position]

    def runs(number):
        if model_text is None:
            povm = tmp_path / "povm.json"
            povm.write_text(povm_text.format(c=number))
            return [["fisher", "--model", model_file, "--povm", str(povm)]]
        model = tmp_path / "model.json"
        model.write_text(model_text.format(c=number))
        return [["fisher", "--povm", x_povm_file, "--model", str(model)],
                ["qfi", "--model", str(model)]]

    for argv in runs("0.0"):
        assert run_cli(capsys, argv + ["--theta", "0.3"])[0] == 0
    for argv in runs(constant):
        code, out, err = run_cli(capsys, argv + ["--theta", "0.3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:2:")


def test_integer_too_large_for_a_float_exits_2(capsys, tmp_path, model_file):
    huge = "1" + "0" * 400
    model = tmp_path / "huge_model.json"
    model.write_text(
        '{"dim": 2, "kind": "unitary", '
        f'"generator": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [{huge}, 0]]], '
        '"initial_state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]}'
    )
    povm = tmp_path / "huge_povm.json"
    povm.write_text(
        '{"dim": 2, "effects": ['
        f'[[[{huge}, 0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], '
        '[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}'
    )
    for argv in (["qfi", "--model", str(model)],
                 ["fisher", "--model", model_file, "--povm", str(povm)]):
        code, out, err = run_cli(capsys, argv + ["--theta", "0.3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:2:")


@pytest.mark.parametrize("theta", ["-5.4e-05", "-1E-3", "-2.5e+00", "-0.5"])
def test_negative_theta_in_exponent_form(capsys, model_file, x_povm_file, theta):
    for argv in (["fisher", "--model", model_file, "--povm", x_povm_file],
                 ["qfi", "--model", model_file],
                 ["optimize", "--model", model_file, "--restarts", "1"],
                 ["paper-example"]):
        code, out, _ = run_cli(capsys, argv + ["--theta", theta])
        assert code == 0
        assert json.loads(out)["inputs"]["theta"] == float(theta)


def test_non_integer_povm_labels_exit_2(capsys, tmp_path, model_file):
    doc = povm_to_document(projective_povm(np.eye(2)))
    doc["labels"] = ["a", "b"]
    path = tmp_path / "labelled_povm.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, [
        "fisher", "--model", model_file, "--povm", str(path), "--theta", "0.3",
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error:2:")


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_importing_the_cli_leaves_scipy_optimize_unloaded(model_file):
    # the searches are the package's own: neither importing the CLI nor
    # running a quantum DPI trial or an optimize command loads scipy
    probe = (
        "import contextlib, io, sys, fisherinfo.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    fisherinfo.cli.main(['dpi', '--mode', 'quantum', '--trials', '1'])\n"
        f"    fisherinfo.cli.main(['optimize', '--model', {model_file!r}, '--theta', '0.3',\n"
        "                         '--restarts', '2'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = run_python(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("generator, code", [
    (PAULI_Z, 0),
    (1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]), 4),
], ids=["finite", "overflowing-generator"])
def test_stderr_holds_only_the_error_line(tmp_path, x_povm_file, generator, code):
    # numpy's overflow warnings stay off stderr; a failure prints one error line
    model = _write_model(tmp_path / "model.json", generator)
    result = run_python(
        "import sys, fisherinfo.cli\n"
        f"sys.exit(fisherinfo.cli.main(['fisher', '--model', {model!r}, '--povm', "
        f"{x_povm_file!r}, '--theta', '0.3']))\n")
    assert result.returncode == code
    if code:
        assert result.stdout == ""
        assert result.stderr.startswith(f"error:{code}:") and result.stderr.count("\n") == 1
    else:
        assert result.stderr == ""


@pytest.mark.parametrize("passes", [True, False])
def test_boolean_pass_count_exits_2(capsys, tmp_path, passes):
    doc = {"dim": 2, "kind": "unitary", "generator": pairs_from_matrix(PAULI_Z),
           "initial_state": [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]], "passes": passes}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["qfi", "--model", str(path), "--theta", "0.3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:2:")


def test_bad_prior_spec_exits_2(capsys, model_file, x_povm_file):
    # a long spec is shown cut short, in one line of at most 200 bytes
    for spec in ("tri:0,1", "uniform:0," + "x" * 50_000, "uniform:0," + "1" * 50_000):
        code, _, err = run_cli(capsys, [
            "bayes", "--model", model_file, "--povm", x_povm_file, "--prior", spec,
        ])
        assert code == 2
        assert err.startswith("error:2:bad prior spec")
        assert err.count("\n") == 1 and len(err.encode()) <= 200


@pytest.mark.parametrize("spec", ["uniform:-1e308,1e308", "gauss:0,1e308,-1e308,1e308"])
def test_a_prior_window_wider_than_a_float_exits_2(capsys, model_file, x_povm_file, spec):
    # b - a overflows, so the grid's nodes could not be spaced; the error
    # names the width rather than the non-finite nodes it would give
    code, out, err = run_cli(capsys, [
        "bayes", "--model", model_file, "--povm", x_povm_file, "--prior", spec,
    ])
    assert (code, out) == (2, "")
    assert err == f"error:2:bad prior spec '{spec}': the width of [-1e+308, 1e+308] overflows a float\n"


@pytest.mark.parametrize("command", ["fisher", "qfi"])
@pytest.mark.parametrize("excess, code", [(0.9e-10, 2), (0.4e-10, 2), (0.2e-10, 0)],
                         ids=["trace-off-by-1.8e-10", "trace-off-by-0.8e-10",
                              "trace-off-by-0.4e-10"])
def test_state_normalization_is_checked_on_the_trace(capsys, tmp_path, x_povm_file,
                                                     command, excess, code):
    # an initial state of norm 1 + excess has trace 1 + 2 excess, against a
    # bound of 5e-11
    amplitude = (1.0 + excess) / np.sqrt(2.0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dim": 2, "kind": "unitary",
                                "generator": pairs_from_matrix(PAULI_Z),
                                "initial_state": [[amplitude, 0.0], [amplitude, 0.0]]}))
    argv = [command, "--model", str(path), "--theta", "0.4"]
    if command == "fisher":
        argv += ["--povm", x_povm_file]
    exit_code, out, err = run_cli(capsys, argv)
    assert exit_code == code
    if code:
        assert out == ""
        assert err.startswith(f"error:2:{_cut(str(path))}: state vector has norm ")
        assert float(err.rsplit(" ", 1)[1]) == pytest.approx(1.0 + excess, abs=1e-15)
        assert err.count("\n") == 1
    else:
        assert err == "" and json.loads(out)["value"] == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["optimize", "--model", "{model}", "--theta", "nan"],
    ["qfi", "--model", "{model}", "--theta", "-inf"],
    ["optimize", "--model", "{model}", "--theta", "0.3", "--restarts", "-2"],
    ["bayes", "--model", "{model}", "--povm", "{povm}", "--prior", "uniform:1,0"],
    ["bayes", "--model", "{model}", "--povm", "{povm}", "--prior", "uniform:0,1", "--grid", "2"],
    ["dpi", "--mode", "classical", "--trials", "-1"],
    ["dpi", "--mode", "quantum", "--trials", "1", "--kraus", "0"],
    ["dpi", "--mode", "classical", "--trials", "1", "--seed", "-1"],
    [],
    ["fisher", "--model", "{model}", "--theta", "0.3"],
], ids=["theta-nan", "theta-negative-inf", "negative-restarts", "empty-prior-interval", "grid-2",
        "negative-trials", "kraus-0", "negative-seed", "no-command", "missing-option"])
def test_bad_arguments_exit_2(capsys, model_file, x_povm_file, argv):
    # argparse's own rejections too: one error line, no usage text, no SystemExit
    code, out, err = run_cli(capsys, [a.format(model=model_file, povm=x_povm_file)
                                      for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:2:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, keys", [
    (["fisher", "--model", "{model}", "--povm", "{povm}", "--theta", "0.3"],
     ["model", "povm", "theta"]),
    (["qfi", "--model", "{model}", "--theta", "0.3"], ["model", "theta"]),
    (["bayes", "--model", "{model}", "--povm", "{povm}", "--prior", "uniform:0,1"],
     ["model", "povm", "prior", "grid"]),
    (["optimize", "--model", "{model}", "--theta", "0.3", "--restarts", "1"],
     ["model", "theta", "restarts", "seed", "fix_state", "fix_povm"]),
    (["dpi", "--mode", "classical", "--trials", "0"], ["mode", "trials", "dim", "kraus", "seed"]),
    (["paper-example", "--theta", "0.3"], ["theta"]),
], ids=["fisher", "qfi", "bayes", "optimize", "dpi", "paper-example"])
def test_each_report_echoes_its_inputs_in_parser_order(capsys, model_file, x_povm_file,
                                                       argv, keys):
    code, out, err = run_cli(capsys, [a.format(model=model_file, povm=x_povm_file)
                                      for a in argv])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert list(report)[:2] == ["command", "inputs"] and report["command"] == argv[0]
    assert list(report["inputs"]) == keys


def _write_model(path, generator, passes=1):
    dim = len(generator)
    amplitudes = [[dim ** -0.5, 0.0]] * dim
    # json writes Python integers exactly, however large
    path.write_text(json.dumps({"dim": dim, "kind": "unitary", "passes": passes,
                                "generator": pairs_from_matrix(generator),
                                "initial_state": amplitudes}))
    return str(path)


def _write_loose_povm(path):
    # each of 8 basis projectors gains 0.99e-10 J / 8, so the Born sum on the
    # uniform state would be 1 + 7.9e-10; the POVM is refused at load
    dim = 8
    extra = np.full((dim, dim), 0.99e-10 / dim)
    path.write_text(json.dumps({"dim": dim, "effects": [
        pairs_from_matrix(np.diag(np.eye(dim)[k]) + extra) for k in range(dim)]}))
    return str(path)


@pytest.mark.parametrize("command, generator, passes, code", [
    ("fisher", np.diag(np.arange(8.0)), 1, 2),
    ("bayes", np.diag(np.arange(8.0)), 1, 2),
    ("fisher", 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]), 1, 4),
    ("fisher", PAULI_Z, 10 ** 154, 4),
    ("qfi", PAULI_Z, 10 ** 160, 2),
    ("qfi", PAULI_Z, 10 ** 400, 2),
], ids=["fisher-born-sum", "bayes-born-sum", "fisher-inf-generator", "fisher-inf-passes",
        "qfi-passes-1e160", "qfi-passes-1e400"])
def test_runtime_failures_exit_with_one_error_line(capsys, tmp_path, x_povm_file,
                                                    command, generator, passes, code):
    # the dim-8 models are read with the loose POVM, the qubit ones with the x basis
    povm = _write_loose_povm(tmp_path / "povm.json") if len(generator) == 8 else x_povm_file
    argv = [command, "--model", _write_model(tmp_path / "model.json", generator, passes)]
    if command != "qfi":
        argv += ["--povm", povm]
    argv += ["--prior", "uniform:0,1", "--grid", "21"] if command == "bayes" else ["--theta", "0.3"]
    exit_code, out, err = run_cli(capsys, argv)
    assert exit_code == code
    assert out == ""
    assert err.startswith(f"error:{code}:") and err.count("\n") == 1


def _sqrt_psd(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(w)) @ v.conj().T


@pytest.mark.parametrize("argv, amplitude, generator, channels, effects, bad, message", [
    (["optimize", "--theta", "0.4", "--restarts", "4"], 1.0, PAULI_Z,
     [(_sqrt_psd(np.eye(2) + 6e-11 * np.ones((2, 2))), "pre"), (PAULI_X, "post")], None,
     "model", "Kraus completeness violated by 1.200e-10"),
    (["fisher", "--theta", "0"], np.sqrt(1.0 + 0.9e-10), PAULI_Z, [],
     [np.diag([1.0 + 0.9e-10, 0.0]), np.diag([0.0, 1.0 + 0.9e-10])],
     "model", "state vector has norm 1.000000000045"),
    (["fisher", "--theta", "0"], 1.0, PAULI_X, [],
     [np.diag([1.0 + 0.9e-10, -0.9e-10]), np.diag([-0.9e-10, 1.0 + 0.9e-10])],
     "povm", "effect 0 has negative eigenvalue -9.000e-11"),
], ids=["pre-channel", "state-and-povm", "effect-floor"])
def test_inputs_that_would_fail_a_later_check_exit_2_at_load(capsys, tmp_path, x_povm_file,
                                                             argv, amplitude, generator,
                                                             channels, effects, bad, message):
    # each loaded once and then failed mid-computation, naming a search
    # candidate or the wrong document
    paths = {"model": tmp_path / "model.json", "povm": x_povm_file}
    paths["model"].write_text(json.dumps({
        "dim": 2, "kind": "unitary", "generator": pairs_from_matrix(generator),
        "initial_state": [[amplitude, 0.0], [0.0, 0.0]],
        "compose": [{"kraus": [pairs_from_matrix(k)], "placement": p} for k, p in channels]}))
    argv = argv + ["--model", str(paths["model"])]
    if effects is not None:
        paths["povm"] = tmp_path / "povm.json"
        paths["povm"].write_text(json.dumps({"dim": 2, "effects": [pairs_from_matrix(e)
                                                                   for e in effects]}))
        argv += ["--povm", str(paths["povm"])]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error:2:{_cut(str(paths[bad]))}: {message}\n"


@pytest.mark.parametrize("argv, refused", [
    (["bayes", "--model", "{model}", "--povm", "{povm}", "--prior", "uniform:0,1",
      "--grid", "1000000000000000"], None),
    (["dpi", "--mode", "classical", "--trials", "1000000000000000"], None),
    (["dpi", "--mode", "classical", "--trials", str(2 ** 61)], "--trials"),
    (["optimize", "--model", "{model}", "--theta", "0.3", "--fix-povm", "{povm}",
      "--restarts", str(2 ** 59)], "--restarts"),
    (["bayes", "--model", "{model}", "--povm", "{povm}", "--prior", "uniform:0,1",
      "--grid", str(2 ** 63 - 1)], "--grid"),
    (["dpi", "--mode", "quantum", "--trials", "9" * 300], "--trials"),
], ids=["bayes-grid", "dpi-trials", "dpi-trials-2^61", "optimize-restarts-2^59",
        "bayes-grid-2^63-1", "dpi-trials-300-nines"])
def test_a_size_too_large_to_allocate_exits_2(capsys, model_file, x_povm_file, argv, refused):
    # up to 2**53 each array would take petabytes, more than any address
    # space, so the allocation fails at once; a larger count is refused as
    # it is parsed, naming its argument
    argv = [a.format(model=model_file, povm=x_povm_file) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) <= 200
    if refused is None:
        assert err.startswith("error:2:Unable to allocate")
    else:
        assert err.startswith(f"error:2:argument {refused}: expected an integer <= {2 ** 53},")


def test_a_restart_count_too_large_to_allocate_exits_2_at_once(model_file, x_povm_file):
    # the starts are drawn as one array, so its allocation fails before any search
    result = subprocess.run(
        [sys.executable, "-m", "fisherinfo", "optimize", "--model", model_file, "--theta", "0.3",
         "--fix-povm", x_povm_file, "--restarts", "1000000000000000"],
        capture_output=True, text=True, timeout=5,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error:2:Unable to allocate") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["qfi", "--model", "{model}", "--theta", "x" * 5000], 2),
    (["qfi", "--model", "{model}", "--theta", "1 " * 3000], 2),
    (["c" * 5000], 2),
    (["qfi", "--model", "{model}", "--theta", "0.3", "--" + "o" * 3000], 2),
    (["optimize", "--model", "{model}", "--theta", "0.3", "--restarts", "-" + "9" * 4000], 2),
    (["dpi", "--mode", "quantum", "--dim", "9" * 5000], 2),
    (["dpi", "--mode", "quantum", "--dim", "9" * 300], 3),
    (["dpi", "--mode", "quantum", "--trials", "1", "--kraus", "9" * 4000], 3),
    (["qfi", "--model", "{tmp}/" + "m" * 3000, "--theta", "0.3"], 2),
    (["qfi", "--model", "{tmp}/{brace}", "--theta", "0.3"], 2),
    (["qfi", "--model", "{long}kind.json", "--theta", "0.3"], 2),
    (["fisher", "--model", "{model}", "--povm", "{long}effects.json", "--theta", "0.3"], 2),
], ids=["theta-letters", "theta-words", "command", "option", "restarts", "dim-digits",
        "dim-value", "kraus-value", "missing-path", "invalid-json-path", "schema-error-model-path",
        "schema-error-povm-path"])
def test_a_long_value_is_cut_in_its_one_error_line(capsys, tmp_path, model_file, argv, code):
    brace = "b" * (200 - len(str(tmp_path)))
    (tmp_path / brace).write_text("{")
    # documents that read as JSON, so the schema error names the path it was given
    (tmp_path / "kind.json").write_text(json.dumps({"dim": 2, "kind": "nope"}))
    (tmp_path / "effects.json").write_text(json.dumps({"dim": 2, "effects": 3}))
    long = f"{tmp_path}/" + "./" * 1500
    exit_code, out, err = run_cli(capsys, [a.format(model=model_file, tmp=tmp_path, brace=brace,
                                                    long=long) for a in argv])
    assert exit_code == code and out == ""
    assert err.startswith(f"error:{code}:") and err.count("\n") == 1
    assert len(err.encode()) <= 200


def test_dimension_mismatch_exits_3(capsys, model_file, tmp_path):
    path = tmp_path / "big_povm.json"
    path.write_text(json.dumps(povm_to_document(projective_povm(np.eye(3)))))
    code, _, err = run_cli(capsys, [
        "fisher", "--model", model_file, "--povm", str(path), "--theta", "0.3",
    ])
    assert code == 3
    assert err.startswith("error:3:")


@pytest.mark.parametrize("theta", ["1e-7", repr(np.pi / 2 + 1e-9), repr(np.pi / 2 + 5e-7),
                                   repr(np.pi / 2 + 1e-6)])
def test_a_vanishing_probability_is_scored_exactly_on_the_command_line(capsys, model_file,
                                                                      x_povm_file, theta):
    # one outcome's p is below fisher.NEAR_NULL; the information is 4 at every theta
    code, out, err = run_cli(capsys, [
        "fisher", "--model", model_file, "--povm", x_povm_file, "--theta", theta,
    ])
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == pytest.approx(4.0, rel=1e-13)


def test_a_non_finite_result_exits_4(capsys, tmp_path):
    # a generator of norm 1e200 gives a QFI of about 1e400, which overflows
    doc = {"dim": 2, "kind": "unitary", "generator": pairs_from_matrix(1e200 * PAULI_X),
           "initial_state": [[1.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["qfi", "--model", str(path), "--theta", "0.3"])
    assert code == 4 and out == ""
    assert err.startswith("error:4:the result is not finite") and err.count("\n") == 1


@pytest.mark.parametrize("command,generator,passes,theta", [
    (["paper-example"], None, 1, "1e308"),
    (["qfi"], PAULI_Z, 3, "1e308"),
    (["optimize"], PAULI_Z, 3, "1e308"),
    (["qfi"], np.diag([1e200, -1e200]), 1, "1e109"),
])
def test_an_overflowing_phase_exits_4(capsys, tmp_path, command, generator, passes, theta):
    # theta passes w overflows to infinity, which leaves the propagator's
    # phases undefined; the paper example's multipass variant doubles theta
    if generator is not None:
        doc = {"dim": 2, "kind": "unitary", "generator": pairs_from_matrix(generator),
               "initial_state": [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]], "passes": passes}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        command = command + ["--model", str(path)]
    code, out, err = run_cli(capsys, command + ["--theta", theta])
    assert code == 4 and out == ""
    assert err == f"error:4:the phases overflow at theta = {float(theta)!r}\n"


def strip_runtime(text: str) -> list:
    docs = []
    lines = text.splitlines()
    plain = [line for line in lines if line.startswith("{") and line.endswith("}")]
    for line in plain:
        docs.append(json.loads(line))
    rest = [line for line in lines if line not in plain]
    if rest:
        summary = json.loads("\n".join(rest))
        summary.pop("runtime_ms", None)
        docs.append(summary)
    return docs


def test_reports_are_deterministic_modulo_runtime(capsys, model_file):
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, [
            "optimize", "--model", model_file, "--theta", "0.5",
            "--restarts", "4", "--seed", "7",
        ])
        outputs.append(strip_runtime(out))
    assert outputs[0] == outputs[1]

    dpi_outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, [
            "dpi", "--mode", "classical", "--trials", "10", "--seed", "5",
        ])
        dpi_outputs.append(strip_runtime(out))
    assert dpi_outputs[0] == dpi_outputs[1]
