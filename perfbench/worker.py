"""One benchmark process: import the package, build inputs, run ops.

Started by run.py, which times it from launch to the ``ready`` line (the
set-up).  With ``--setup-only`` it exits there.  Otherwise it calls the CLI
entry point ``fisherinfo.cli.main`` in-process, one op at a time (a closed
loop, one client, one thread), checks each op's output as soon as it
returns, and prints one JSON line of raw results.  With ``--trace`` it
runs a fixed number of ops twice, untraced and then traced, so the trace
counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from array import array
from collections import Counter
from importlib.metadata import version

import fisherinfo.cli
import numpy as np

import reference
import workloads
from tracing import Tracer

MIN_OPS = 100
TRACE_OPS = {"cli-light": 63, "dpi": 72}


def call_cli(argv: list) -> tuple:
    """(exit code, stdout, exception type or None) of one in-process CLI call."""
    out = io.StringIO()
    exc_name = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = fisherinfo.cli.main(argv)
        except SystemExit as exc:
            code, exc_name = exc.code if isinstance(exc.code, int) else 1, "SystemExit"
        except Exception as exc:  # an uncaught error is a failed op, as for a user
            code, exc_name = 1, type(exc).__name__
    return code, out.getvalue(), exc_name


def probe_ms() -> float:
    """Wall time of fixed numpy-only work, recorded to show host speed drift."""
    a = np.random.default_rng(0).standard_normal((24, 24))
    h = a + a.T
    start = time.perf_counter()
    for _ in range(400):
        np.linalg.eigh(h)
        h = h @ h / np.linalg.norm(h)
    return (time.perf_counter() - start) * 1e3


class Tally:
    """Running totals of the ops run so far.

    Each op is checked as soon as it returns, outside its timed span, and
    only its latency is kept, so memory does not grow with its output.
    """

    MAX_ERRORS = 10

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.error_count = 0
        self.errors = []            # the first MAX_ERRORS check errors
        self.latencies = array("d")  # seconds, completed ops only

    def add(self, index: int, op, code: int, out: str, exc_name, seconds: float) -> None:
        self.attempted += 1
        if code == 0:
            self.latencies.append(seconds)
            error = reference.check(op, out)
        else:
            self.failures[failure_class(code, exc_name)] += 1
            error = f"exit {code} ({exc_name or 'handled'})"
        if error:
            self.note_error(f"op {index} ({op.argv[0]}): {error}")

    def note_error(self, error: str) -> None:
        self.error_count += 1
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(error)


def failure_class(code: int, exc_name) -> str:
    return f"exit{code}:{exc_name or 'handled'}"


def known_defect(ops, tally: Tally) -> dict:
    """Outcome of each defect-probe op, run once and untimed.

    The probe's documents put a "pre" channel after another channel.  At
    this commit they exit 1 with AttributeError; once that is fixed their
    output is checked like any other.  Any other outcome is a check error.
    """
    outcome = {}
    for op in ops:
        code, out, exc_name = call_cli(op.argv)
        name = ",".join(p for _, p in op.model.channels) + "/" + op.kind
        if code == 0:
            outcome[name] = "ok"
            error = reference.check(op, out)
        else:
            outcome[name] = failure_class(code, exc_name)
            error = None if reference.known_failure(op, code, exc_name) else (
                f"exit {code} ({exc_name or 'handled'}), not the known channel-order failure")
        if error:
            tally.note_error(f"defect probe {name}: {error}")
    return outcome


def run_ops(ops, tally: Tally, stop) -> float:
    """Closed loop over the op sequence until ``stop(ops run, elapsed s)``;
    returns the time spent inside ops."""
    start = time.perf_counter()
    busy = 0.0
    n = 0
    while not stop(n, time.perf_counter() - start):
        i = n % len(ops)
        t0 = time.perf_counter()
        code, out, exc_name = call_cli(ops[i].argv)
        seconds = time.perf_counter() - t0
        busy += seconds
        tally.add(i, ops[i], code, out, exc_name, seconds)
        n += 1
    return busy


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="SPANS_FILE")
    args = parser.parse_args()

    try:
        ops = workloads.build(args.workload, args.seed, args.workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = {"probe_start_ms": probe_ms()}
        tally = Tally()
        if args.trace:
            count = TRACE_OPS[args.workload]
            wall = run_ops(ops, tally, lambda n, _: n >= count)
            tracer = Tracer()
            tracer.install()
            traced_wall = run_ops(ops, tally, lambda n, _: n >= count)
            result["layers"] = tracer.metrics()
            result["layers"]["trace.overhead_ratio"] = traced_wall / wall
            result["missing_spans"] = tracer.missing
            tracer.write(args.trace)
        else:
            wall = run_ops(ops, tally,
                           lambda n, elapsed: elapsed >= args.seconds and n >= MIN_OPS)
            if args.workload == "cli-light":
                result["known_defect"] = known_defect(
                    workloads.defect_probe(args.seed, os.path.join(args.workdir, "defect")),
                    tally)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["probe_end_ms"] = probe_ms()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    result.update({
        "attempted": tally.attempted, "failed": sum(tally.failures.values()),
        "failures": dict(tally.failures), "check_errors": tally.error_count,
        "check_error_samples": tally.errors, "wall_s": wall,
        "latencies_s": tally.latencies.tolist(),
        "versions": {"python": sys.version.split()[0], "numpy": version("numpy"),
                     "scipy": version("scipy")},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
