"""Command-line interface.

Every command reads JSON documents, computes, and writes one JSON report
to stdout (the dpi command writes one JSON line per trial followed by a
summary).  Outputs are deterministic for fixed inputs and seed, except the
runtime_ms field.

Exit codes: 0 success, 2 parse/schema error or any other invalid input,
a size too large to allocate included, 3 dimension mismatch, 4 a
non-finite result, 5 data-processing violation found.
"""

from __future__ import annotations

import argparse
import json
import math
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

# The largest count --trials, --restarts and --grid accept: 2**53, up to
# which a float64, and so a JSON reader of a report's inputs, holds every
# integer exactly.  A count up to it that is too large fails its allocation
# with a MemoryError (exit 2); a larger one could fail otherwise.
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


def _finite_float(text: str) -> float:
    value = float(text)
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


class _Parser(argparse.ArgumentParser):
    """Raises an argument error as a DocumentError: one error:2: line, no
    usage text, and every value it echoes cut by ``errors._cut``."""

    def error(self, message):
        # a value is echoed as a repr, or bare when unrecognized: cut each one
        parts = message.split("'")
        parts[::2] = [" ".join(map(_cut, part.split(" "))) for part in parts[::2]]
        parts[1::2] = [_cut(part) for part in parts[1::2]]
        raise DocumentError("'".join(parts))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fisherinfo",
        description="Fisher information of small quantum models, with "
                    "data-processing checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fisher", help="classical Fisher information of a model and POVM")
    p.add_argument("--model", required=True)
    p.add_argument("--povm", required=True)
    p.add_argument("--theta", type=_finite_float, required=True)
    p.set_defaults(run=cmd_fisher)

    p = sub.add_parser("qfi", help="quantum Fisher information via the SLD")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", type=_finite_float, required=True)
    p.set_defaults(run=cmd_qfi)

    p = sub.add_parser("bayes", help="Bayes risk and the Bayesian bound")
    p.add_argument("--model", required=True)
    p.add_argument("--povm", required=True)
    p.add_argument("--prior", required=True,
                   help="uniform:a,b or gauss:mu,sigma,a,b")
    p.add_argument("--grid", type=_int_at_least(bayes_mod.MIN_GRID, MAX_COUNT),
                   default=bayes_mod.DEFAULT_GRID)
    p.set_defaults(run=cmd_bayes)

    p = sub.add_parser("optimize", help="maximize Fisher information over contexts")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("--restarts", type=_int_at_least(0, MAX_COUNT), default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--fix-state", action="store_true",
                   help="freeze the state to the model document's initial state")
    p.add_argument("--fix-povm", default=None, metavar="FILE",
                   help="freeze the measurement to the POVM in FILE")
    p.set_defaults(run=cmd_optimize)

    p = sub.add_parser("dpi", help="randomized data-processing inequality suites")
    p.add_argument("--mode", choices=("classical", "quantum"), required=True)
    p.add_argument("--trials", type=_int_at_least(0, MAX_COUNT), default=100)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--kraus", type=_int_at_least(1), default=2)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(run=cmd_dpi)

    p = sub.add_parser("paper-example",
                       help="the built-in qubit scenario: base, multipass, "
                            "restricted, restricted plus rotation")
    p.add_argument("--theta", type=_finite_float, required=True)
    p.set_defaults(run=cmd_paper_example)

    return parser


def _attach_negative_values(argv: list) -> list:
    """Write '--theta -5e-05' as '--theta=-5e-05'.

    argparse takes a token that starts with '-' for an option name unless it
    is a plain negative decimal, so a negative value in exponent form would
    leave --theta without its argument.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--theta" and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"--theta={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_negative_values(argv))
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
            return code
    except DimensionMismatch as exc:
        print(f"error:{EXIT_DIMENSION}:{exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except SingularOutcome as exc:
        print(f"error:{EXIT_SINGULAR}:{exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (FisherinfoError, MemoryError) as exc:  # a bad document, or a size too large
        print(f"error:{EXIT_PARSE}:{exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
