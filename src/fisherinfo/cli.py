"""Command-line interface.

Every command reads JSON documents, computes, and writes one JSON report
to stdout (the dpi command writes one JSON line per trial followed by a
summary).  Outputs are deterministic for fixed inputs and seed, except the
runtime_ms field.  Each call builds the parser of its command only; an
argv that names no command first builds the full parser, for its help text
or its error line.  argparse reads argv as given: a '-' followed by
anything float() reads ('-5e-05', '-inf') is a value, after any option or
prefix of one, and that option's own check judges it.

Exit codes: 0 success or a help text, 2 parse/schema error or any other
invalid input, a size too large to allocate included, 3 dimension
mismatch, 4 a non-finite result, 5 data-processing violation found.  A
closed stdout or stderr loses what would go to it, never the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import bayes as bayes_mod
from . import dpi as dpi_mod
from .bayes import check_bcrb, parse_prior_spec
from .documents import (
    load_model_document,
    load_povm_document,
    povm_to_document,
    state_to_pairs,
)
from .errors import DimensionMismatch, DocumentError, FisherinfoError, SingularOutcome, _cut
from .fisher import classical_fisher, sld_solve
from .optimize import ASCENT_TOL, DEFAULT_RESTARTS, circumvention_report, maximize_fisher

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_SINGULAR = 4
EXIT_VIOLATION = 5

# The largest count --trials, --restarts and --grid, and the largest
# --seed, accept: 2**53, up to which a float64, and so a JSON reader of a
# report's inputs, holds every integer exactly.  A count up to it that is
# too large fails its allocation with a MemoryError (exit 2); a larger one
# could fail otherwise, and a larger seed could be read back as another.
MAX_COUNT = 2 ** 53


def _dumps(report: dict, **kwargs) -> str:
    """JSON text of a report; a NaN or infinite value is a singular computation."""
    try:
        return json.dumps(report, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise SingularOutcome(f"the result is not finite ({exc})") from None


def cmd_fisher(args):
    model = load_model_document(args.model)
    povm = load_povm_document(args.povm)
    value = classical_fisher(model, povm, args.theta)
    return {
        "value": value,
        "seed": None,
        "tolerances": {},
    }, EXIT_OK


def cmd_qfi(args):
    result = sld_solve(load_model_document(args.model), args.theta)
    return {
        "value": result.qfi,
        "support_rank": result.support_rank,
        "seed": None,
        "tolerances": {},
    }, EXIT_OK


def cmd_bayes(args):
    model = load_model_document(args.model)
    povm = load_povm_document(args.povm)
    prior = parse_prior_spec(args.prior, args.grid)
    report = check_bcrb(prior, model, povm)
    return {
        "values": {
            "risk": report.risk,
            "bayesian_information": report.j,
            "bcrb_satisfied": report.satisfied,
            "bcrb_vacuous": report.vacuous,
        },
        "seed": None,
        "tolerances": {"weight_sum": bayes_mod.WEIGHT_SUM_ATOL,
                       "bcrb_slack": bayes_mod.BCRB_SLACK},
    }, EXIT_OK


def cmd_optimize(args):
    model = load_model_document(args.model)
    fixed_state = model.rho0 if args.fix_state else None
    fixed_povm = load_povm_document(args.fix_povm) if args.fix_povm else None
    label_bits = []
    if fixed_state is not None:
        label_bits.append("fixed state")
    if fixed_povm is not None:
        label_bits.append("fixed povm")
    result = maximize_fisher(model, args.theta, state=fixed_state, povm=fixed_povm,
                             restarts=args.restarts, seed=args.seed)
    return {
        "value": result.best_value,
        "context": {
            "label": ", ".join(label_bits) or "unrestricted",
            "state": state_to_pairs(result.best_state),
            "povm": povm_to_document(result.best_povm),
        },
        "seed": args.seed,
        "tolerances": {"relative_step": ASCENT_TOL},
    }, EXIT_OK


def cmd_dpi(args):
    if args.mode == "classical":
        reports = dpi_mod.classical_dpi_suite(args.trials, args.seed)
    else:
        reports = dpi_mod.quantum_dpi_suite(args.trials, args.seed,
                                            dim=args.dim, kraus_count=args.kraus)
    violations = sum(report.violated for report in reports)
    summary = {
        "trials": args.trials,
        "violations": violations,
        "seed": args.seed,
        "tolerances": {"classical": dpi_mod.CLASSICAL_TOL, "quantum": dpi_mod.QUANTUM_TOL,
                       "sld": dpi_mod.SLD_TOL, "dual": dpi_mod.DUAL_TOL},
    }
    return (*(report.to_dict() for report in reports), summary,
            EXIT_VIOLATION if violations else EXIT_OK)


def cmd_paper_example(args):
    values = circumvention_report(args.theta)
    return {
        "values": values,
        "statements": {
            "base": "unrestricted context maximum; parameter-independent "
                    "post-processing can only stay at or below this",
            "multipass": "the processing itself depends on the parameter, so "
                         "the monotonicity statement does not apply",
            "restricted": "the restricted context never sees the parameter; "
                          "restriction, not processing, loses the information",
            "restricted_plus_rotation": "a fixed rotation lifts the restriction "
                                        "without raising the unrestricted maximum",
        },
        "seed": 0,
        "tolerances": {"relative_step": ASCENT_TOL},
    }, EXIT_OK


def _no_command(args):
    raise DocumentError("the following arguments are required: command (choose from "
                        + ", ".join(map(repr, COMMANDS)) + ")")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_at_least(low: int, high: int | None = None):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"expected an integer <= {high}, got {text!r}")
        return value
    return integer


# A '-' and anything float() reads: any decimal digits, underscores between
# them, exponent form, inf, infinity or nan in any ASCII case, and trailing
# whitespace other than the four separators \x1c-\x1f that float() refuses
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?"
    r"|(?ai:inf(?:inity)?|nan))[^\S\x1c-\x1f]*$")


class _Parser(argparse.ArgumentParser):
    """Raises an argument error as a DocumentError: one error:2: line, no
    usage text, and every value it echoes cut by ``errors._cut``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's test of a value that looks like an option, by default
        # a plain negative decimal only
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        # a value is echoed as a repr, or bare when unrecognized: cut each one
        parts = message.split("'")
        parts[::2] = [" ".join(map(_cut, part.split(" "))) for part in parts[::2]]
        parts[1::2] = [_cut(part) for part in parts[1::2]]
        raise DocumentError("'".join(parts))


# Each command's function, help line and options, in the order a report's
# inputs echo them: the one list that the parser and main read the commands from
COMMANDS = {
    "fisher": (cmd_fisher, "classical Fisher information of a model and POVM", (
        ("--model", {"required": True}),
        ("--povm", {"required": True}),
        ("--theta", {"type": _finite_float, "required": True}),
    )),
    "qfi": (cmd_qfi, "quantum Fisher information via the SLD", (
        ("--model", {"required": True}),
        ("--theta", {"type": _finite_float, "required": True}),
    )),
    "bayes": (cmd_bayes, "Bayes risk and the Bayesian bound", (
        ("--model", {"required": True}),
        ("--povm", {"required": True}),
        ("--prior", {"required": True, "help": "uniform:a,b or gauss:mu,sigma,a,b"}),
        ("--grid", {"type": _int_at_least(bayes_mod.MIN_GRID, MAX_COUNT),
                    "default": bayes_mod.DEFAULT_GRID}),
    )),
    "optimize": (cmd_optimize, "maximize Fisher information over contexts", (
        ("--model", {"required": True}),
        ("--theta", {"type": _finite_float, "required": True}),
        ("--restarts", {"type": _int_at_least(0, MAX_COUNT), "default": DEFAULT_RESTARTS}),
        ("--seed", {"type": _int_at_least(0, MAX_COUNT), "default": 0}),
        ("--fix-state", {"action": "store_true",
                         "help": "freeze the state to the model document's initial state"}),
        ("--fix-povm", {"default": None, "metavar": "FILE",
                        "help": "freeze the measurement to the POVM in FILE"}),
    )),
    "dpi": (cmd_dpi, "randomized data-processing inequality suites", (
        ("--mode", {"choices": ("classical", "quantum"), "required": True}),
        ("--trials", {"type": _int_at_least(0, MAX_COUNT), "default": 100}),
        ("--dim", {"type": int, "default": 2}),
        ("--kraus", {"type": _int_at_least(1), "default": 2}),
        ("--seed", {"type": _int_at_least(0, MAX_COUNT), "default": 0}),
    )),
    "paper-example": (cmd_paper_example, "the built-in qubit scenario: base, multipass, "
                                         "restricted, restricted plus rotation", (
        ("--theta", {"type": _finite_float, "required": True}),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone: the same help
    text, namespace and error line for that command's arguments."""
    parser = _Parser(
        prog="fisherinfo",
        description="Fisher information of small quantum models, with "
                    "data-processing checks",
    )
    # no command parses, and runs _no_command, whose error names them all
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(run=_no_command)
    for name in COMMANDS if command is None else (command,):
        run, help_line, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first token that names a command builds that command's parser only;
    # any other argv builds the full one, whose help and errors name them all
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
        started = time.perf_counter()
        # numpy's overflow and invalid-value warnings stay off stderr: a
        # non-finite result is reported once, by the report's finiteness check
        with np.errstate(all="ignore"):
            # dpi returns its trial lines before its fields and exit code
            *lines, fields, code = args.run(args)
            for line in lines:
                print(_dumps(line))
            # the inputs are the parsed arguments, in the parser's order
            inputs = {k: v for k, v in vars(args).items() if k not in ("command", "run")}
            report = {"command": args.command, "inputs": inputs, **fields,
                      "runtime_ms": (time.perf_counter() - started) * 1000.0}
            print(_dumps(report, indent=2))
            if sys.stdout is not None:  # None: descriptor 1 was closed at start
                sys.stdout.flush()
            return code
    except SystemExit as stop:  # a help request, its text printed
        return stop.code
    except BrokenPipeError:
        # the reader closed stdout: the rest of the report, and the
        # interpreter's flush at exit, go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except DimensionMismatch as exc:
        return _error(EXIT_DIMENSION, exc)
    except SingularOutcome as exc:
        return _error(EXIT_SINGULAR, exc)
    except (FisherinfoError, MemoryError) as exc:  # a bad document, or a size too large
        return _error(EXIT_PARSE, exc)


def _error(code: int, exc: Exception) -> int:
    """Write the error line of ``exc`` to stderr and return ``code``; a closed
    stderr loses the line, not the code."""
    try:
        if sys.stderr is not None:  # None: descriptor 2 was closed at start
            print(f"error:{code}:{exc}", file=sys.stderr, flush=True)
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
