"""Compare the CLI outputs of two source trees on a fixed command set.

    python tools/compare_outputs.py PARENT_SRC
    python tools/compare_outputs.py REVISION

PARENT_SRC is a directory holding the ``fisherinfo`` package; it is
compared with the ``src`` of the tree this script lives in (to compare two
other trees, run the script from one of them).  An argument that is not a
directory is read as a git revision of this repository, such as ``HEAD~1``
or ``origin/main``: its ``src/`` is extracted with ``git archive`` into the
temporary directory and compared.  The documents are written
once to a temporary directory; then each tree runs every command in one
fresh interpreter (``PYTHONPATH=<tree>``, ``PYTHONDONTWRITEBYTECODE=1``) through
``fisherinfo.cli.main``.  Exit codes, stderr and stdout with the
``runtime_ms`` line removed must agree.  The script prints the counts; then
one line per command kind (the command name, ``dpi`` split by ``--mode``)
with its number of differing commands and the largest relative gap between
the numbers of the two outputs over all of them (``relative_gap``); then
the first differences, each with its own gap.  It exits 1 on any
difference.

The command set, 1,295 commands: every ``cli-light`` op and defect-probe
op of seeds 1-3 and the first 540 ``dpi`` ops of seed 1
(``perfbench/workloads.py``, read only); three long qubit and one long
classical DPI suite; quantum DPI suites at dimensions 3 and 4 with 2 and 3
Kraus operators, where the state search takes the singular-value form;
``paper-example`` at three thetas;
``optimize`` with each of its fixings on six documents with channels; a
dozen corrupted documents; ten bad arguments; four counts above 2**53;
twelve long values that an error line must cut, two of them paths of 3,000
characters to a model and a POVM document with a schema error; five
documents that fail the load-time bounds by little; and six computations at
or near a vanishing probability or a pure output, or with a result that is
not finite.  Numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

DPI_OPS = 540
SHOWN = 10      # differences printed
EXCERPT = 160   # characters printed of a command and of each side
KIND = 40       # characters printed of a command kind
GAP_FLOOR = 1.0  # a gap is relative above this magnitude, absolute below it

# Runs inside each tree's interpreter: argv[1] is the command list, argv[2]
# the result file.
RUNNER = r"""
import contextlib, io, json, re, sys
import fisherinfo.cli

RUNTIME = re.compile(r'^\s*"runtime_ms": .*$', re.M)
with open(sys.argv[1]) as fh:
    commands = json.load(fh)
results = []
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fisherinfo.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
    results.append([code, RUNTIME.sub("", out.getvalue()), err.getvalue()])
with open(sys.argv[2], "w") as fh:
    json.dump(results, fh)
"""

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _model(out, generator, amplitudes, channels=()) -> str:
    """A one-pass unitary family document, written by the benchmark's writer."""
    generator = np.asarray(generator, dtype=complex)
    rho0 = np.outer(amplitudes, np.conj(amplitudes))
    return out.model(workloads.ModelSpec(generator, rho0, 1, list(channels)), amplitudes)


def _optimize_commands(directory: Path) -> list:
    """optimize, plain and with each fixing, on six models with channels."""
    rng = np.random.default_rng(2026)
    out = workloads.DocumentWriter(str(directory / "optimize"))
    commands = []
    for k in range(6):
        d = 2 + k % 3
        generator, psi = workloads._hermitian(rng, d), workloads._unit_vector(rng, d)
        channels = [(workloads._kraus(rng, d, 1 + k % 2), "post")]
        if k % 2:
            channels.insert(0, (workloads._kraus(rng, d, 2), "pre"))
        model = _model(out, generator, psi, channels)
        povm = out.povm(workloads._povm(rng, d, True))
        base = ["optimize", "--model", model, f"--theta={0.3 + 0.2 * k!r}", "--restarts", "8"]
        commands += [base, base + ["--fix-state"], base + ["--fix-povm", povm],
                     base + ["--fix-state", "--fix-povm", povm]]
    return commands


def _corrupted_commands(directory: Path) -> list:
    """Documents and arguments that must fail with one stderr line."""
    out = workloads.DocumentWriter(str(directory / "corrupted"))
    z = np.diag([1.0, -1.0])
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    x_basis = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]], dtype=complex)
    povm = out.povm(x_basis)
    good_model = _model(out, z, plus)
    good = json.loads(Path(good_model).read_text(encoding="utf-8"))
    not_json = directory / "corrupted" / "not_json.json"
    not_json.write_text("{", encoding="utf-8")
    nan_entry = directory / "corrupted" / "nan_entry.json"
    nan_entry.write_text(json.dumps(good).replace("-1.0", "NaN", 1), encoding="utf-8")
    models = [
        str(not_json),
        str(nan_entry),
        out.write([1, 2]),
        out.write({k: v for k, v in good.items() if k != "dim"}),
        out.write({**good, "generator": [[[True, 0], [0, 0]], [[0, 0], [-1, 0]]]}),
        _model(out, [[1, 1], [0, -1]], plus),
        out.write({**good, "compose": {"kraus": []}}),
        _model(out, z, plus, [(np.eye(3, dtype=complex)[None], "post")]),
        out.write({**good, "generator": [[json.loads("[" * 900 + "]" * 900), [0, 0]],
                                         [[0, 0], [-1, 0]]]}),
        out.write({**good, "kind": ["x"] * 20000}),
        _model(out, z, plus, [(np.eye(2, dtype=complex)[None], "p" * 50000)]),
        _model(out, z, plus * math.sqrt(1 + 1.8e-10)),
    ]
    commands = []
    for model in models:
        commands.append(["fisher", "--model", model, "--povm", povm, "--theta", "0.4"])
        commands.append(["qfi", "--model", model, "--theta", "0.4"])
    incomplete = out.povm(x_basis[:1])
    commands.append(["fisher", "--model", good_model, "--povm", incomplete, "--theta", "0.4"])
    commands += [["bayes", "--model", good_model, "--povm", povm, "--prior", f"uniform:0,{bad}"]
                 for bad in ("1" * 5000, "x" * 5000)]
    return (commands + _bad_arguments(good_model, povm) + _huge_counts(good_model, povm)
            + _long_values(directory / "corrupted", good_model)
            + _beyond_the_load_bounds(out, z, x_basis, povm)
            + _near_null(out, z, plus, povm))


def _bad_arguments(model, povm) -> list:
    """Argument values the parser or the prior refuses, no command, and a
    missing option: ``tests/test_cli.py::test_bad_arguments_exit_2``'s cases."""
    bayes = ["bayes", "--model", model, "--povm", povm, "--prior"]
    return [["optimize", "--model", model, "--theta", "nan"],
            ["qfi", "--model", model, "--theta", "-inf"],
            ["optimize", "--model", model, "--theta", "0.3", "--restarts", "-2"],
            bayes + ["uniform:1,0"],
            bayes + ["uniform:0,1", "--grid", "2"],
            ["dpi", "--mode", "classical", "--trials", "-1"],
            ["dpi", "--mode", "quantum", "--trials", "1", "--kraus", "0"],
            ["dpi", "--mode", "classical", "--trials", "1", "--seed", "-1"],
            [],
            ["fisher", "--model", model, "--theta", "0.3"]]


def _huge_counts(model, povm) -> list:
    """Counts above 2**53, which the parser refuses:
    ``tests/test_cli.py::test_a_size_too_large_to_allocate_exits_2``'s cases
    past the bound."""
    return [["dpi", "--mode", "classical", "--trials", str(2 ** 61)],
            ["optimize", "--model", model, "--theta", "0.3", "--fix-povm", povm,
             "--restarts", str(2 ** 59)],
            ["bayes", "--model", model, "--povm", povm, "--prior", "uniform:0,1",
             "--grid", str(2 ** 63 - 1)],
            ["dpi", "--mode", "quantum", "--trials", "9" * 300]]


def _long_values(directory: Path, model) -> list:
    """Values of thousands of characters, each shown cut in a one-line error:
    ``tests/test_cli.py::test_a_long_value_is_cut_in_its_one_error_line``'s
    cases.  (``optimize --restarts 1000000000000000`` is left out: before
    its starts were drawn as one array, it ran without end.)"""
    brace = directory / ("b" * (200 - len(str(directory))))
    brace.write_text("{", encoding="utf-8")
    (directory / "kind.json").write_text(json.dumps({"dim": 2, "kind": "nope"}), encoding="utf-8")
    (directory / "effects.json").write_text(json.dumps({"dim": 2, "effects": 3}), encoding="utf-8")
    long_path = f"{directory}/" + "./" * 1500
    return [["qfi", "--model", model, "--theta", "x" * 5000],
            ["qfi", "--model", model, "--theta", "1 " * 3000],
            ["c" * 5000],
            ["qfi", "--model", model, "--theta", "0.3", "--" + "o" * 3000],
            ["optimize", "--model", model, "--theta", "0.3", "--restarts", "-" + "9" * 4000],
            ["dpi", "--mode", "quantum", "--dim", "9" * 5000],
            ["dpi", "--mode", "quantum", "--dim", "9" * 300],
            ["dpi", "--mode", "quantum", "--trials", "1", "--kraus", "9" * 4000],
            ["qfi", "--model", str(directory / ("m" * 3000)), "--theta", "0.3"],
            ["qfi", "--model", str(brace), "--theta", "0.3"],
            ["qfi", "--model", long_path + "kind.json", "--theta", "0.3"],
            ["fisher", "--model", model, "--povm", long_path + "effects.json", "--theta", "0.3"]]


def _beyond_the_load_bounds(out, z, x_basis, povm) -> list:
    """Documents that fail the load-time bounds by little: a pre channel, a
    POVM and a state with a completeness or trace defect each, and a POVM
    with a negative effect eigenvalue.  Each once loaded and could then fail
    a later check."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    zero = np.array([1.0, 0.0], dtype=complex)
    excess = 0.9e-10
    w, v = np.linalg.eigh(np.eye(2) + 6e-11 * np.ones((2, 2)))
    models = [_model(out, z, zero, [(((v * np.sqrt(w)) @ v.T)[None], "pre"), (x[None], "post")]),
              _model(out, z, zero * math.sqrt(1.0 + excess))]
    povms = [out.povm(x_basis + 3e-11),
             out.povm(np.array([np.diag([1.0 + excess, 0.0]), np.diag([0.0, 1.0 + excess])])),
             out.povm(np.array([np.diag([1.0 + excess, -excess]),
                                np.diag([-excess, 1.0 + excess])]))]
    x_model = _model(out, x, zero)
    commands = [["fisher", "--model", models[1], "--povm", povms[1], "--theta", "0"]]
    for model in models:
        commands += [["fisher", "--model", model, "--povm", povm, "--theta", "0.4"],
                     ["qfi", "--model", model, "--theta", "0.4"],
                     ["optimize", "--model", model, "--theta", "0.4", "--restarts", "4"]]
    for bad in povms:
        commands += [["fisher", "--model", x_model, "--povm", bad, "--theta", "0"],
                     ["optimize", "--model", x_model, "--theta", "0", "--restarts", "4",
                      "--fix-povm", bad]]
    return commands


def _near_null(out, z, plus, povm) -> list:
    """fisher where one outcome's probability is below fisher.NEAR_NULL (the
    information is 4 at each theta), a qubit DPI trial whose SLD measurement
    has an outcome of probability 1e-12, and a qfi of about 1e400."""
    model = _model(out, z, plus)
    huge = _model(out, 1e200 * np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
    return ([["fisher", "--model", model, "--povm", povm, f"--theta={t!r}"]
             for t in (1e-7, math.pi / 2 + 1e-9, math.pi / 2 + 5e-7, math.pi / 2 + 1e-6)]
            + [["dpi", "--mode", "quantum", "--trials", "1", "--dim", "2", "--kraus", "2",
                "--seed", "57096725"],
               ["qfi", "--model", huge, "--theta", "0.3"]])


def command_set(directory: Path) -> list:
    commands = []
    for seed in (1, 2, 3):
        for ops in (workloads.build("cli-light", seed, str(directory / f"cli{seed}")),
                    workloads.defect_probe(seed, str(directory / f"probe{seed}"))):
            commands += [op.argv for op in ops]
    commands += [op.argv for op in workloads.build("dpi", 1, str(directory))[:DPI_OPS]]
    commands += [["dpi", "--mode", "quantum", "--trials", "200", "--seed", "11",
                  "--kraus", str(k)] for k in (1, 2, 3)]
    commands += [["dpi", "--mode", "quantum", "--trials", "50", "--seed", "11",
                  "--dim", str(d), "--kraus", str(k)] for d in (3, 4) for k in (2, 3)]
    commands.append(["dpi", "--mode", "classical", "--trials", "1000", "--seed", "7"])
    commands += [["paper-example", f"--theta={t!r}"] for t in (0.4, math.pi / 2, 0.0)]
    return commands + _optimize_commands(directory) + _corrupted_commands(directory)


def parent_source(parent: str, directory: Path) -> Path:
    """The parent's package directory: ``parent`` itself if it is a
    directory, else the ``src/`` of the git revision ``parent``, extracted
    under ``directory``."""
    if Path(parent).is_dir():
        return Path(parent).resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent, "src"],
                             capture_output=True, check=True).stdout
    tree = directory / "revision"
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, capture_output=True, check=True)
    return tree / "src"


def run_tree(src: Path, commands_file: Path, out: Path) -> list:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-c", RUNNER, str(commands_file), str(out)],
                   env=env, check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def relative_gap(a: str, b: str) -> float | None:
    """The largest gap |x - y| / max(|x|, |y|, GAP_FLOOR) between the
    numbers of two texts, in order; None if they hold different counts of
    numbers.  The floor keeps a near-zero number, such as a DPI trial's
    ``gap`` (a difference of nearly equal values), that flips its sign by
    rounding from reading as large as a real move."""
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    gap = 0.0
    for x, y in zip(xs, ys):
        x, y = float(x), float(y)
        if x != y:
            gap = max(gap, abs(x - y) / max(abs(x), abs(y), GAP_FLOOR))
    return gap


def largest_gap(a: str, b: str) -> str:
    gap = relative_gap(a, b)
    if gap is None:
        return f"{len(NUMBER.findall(a))} against {len(NUMBER.findall(b))} numbers"
    return f"largest relative gap {gap:.3e}"


def command_kind(argv: list) -> str:
    """The command name, with ``dpi`` split by its ``--mode``."""
    if not argv:
        return "(no command)"
    if argv[0] == "dpi":
        for option, value in zip(argv, argv[1:] + [None]):
            if option == "--mode" and value is not None:
                return f"dpi --mode {value}"[:KIND]
            if option.startswith("--mode="):
                return f"dpi --mode {option[len('--mode='):]}"[:KIND]
    return argv[0][:KIND]


def kind_summary(commands: list, differing: list) -> list:
    """One line per command kind, in order of first appearance: how many of
    its commands differ and the largest relative gap over all of them."""
    totals = Counter(command_kind(argv) for argv in commands)
    differ, uneven, gaps = Counter(), Counter(), Counter()
    for argv, bad in differing:
        kind = command_kind(argv)
        differ[kind] += 1
        for _, x, y in bad:
            gap = relative_gap(str(x), str(y))
            if gap is None:
                uneven[kind] += 1
            else:
                gaps[kind] = max(gaps[kind], gap)
    lines = []
    for kind, total in totals.items():
        line = f"  {kind}: {differ[kind]} of {total} differ"
        if differ[kind]:
            line += f", largest relative gap {gaps[kind]:.3e}"
        if uneven[kind]:
            line += f", {uneven[kind]} outputs with unequal counts of numbers"
        lines.append(line)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_SRC|REVISION")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            parent_src = parent_source(args.parent, tmp)
        except subprocess.CalledProcessError as exc:
            parser.error(f"{args.parent} is neither a directory nor a git revision: "
                         f"{exc.stderr.decode(errors='replace').strip()}")
        commands = command_set(tmp)
        commands_file = tmp / "commands.json"
        commands_file.write_text(json.dumps(commands), encoding="utf-8")
        parent = run_tree(parent_src, commands_file, tmp / "parent.json")
        change = run_tree(ROOT / "src", commands_file, tmp / "change.json")
    fields = ("exit code", "stdout", "stderr")
    differing = []
    for argv, before, after in zip(commands, parent, change):
        bad = [(name, x, y) for name, x, y in zip(fields, before, after) if x != y]
        if bad:
            differing.append((argv, bad))
    print(f"{len(commands)} commands, {len(commands) - len(differing)} identical, "
          f"{len(differing)} differ")
    for line in kind_summary(commands, differing):
        print(line)
    for argv, bad in differing[:SHOWN]:
        print(" ".join(argv)[:EXCERPT])
        for name, x, y in bad:
            print(f"  {name}: {largest_gap(str(x), str(y))}")
            print(f"    parent: {str(x)[:EXCERPT]!r}")
            print(f"    change: {str(y)[:EXCERPT]!r}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
