"""Benchmark of the fisherinfo command line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Every run starts fresh interpreters (perfbench/worker.py) with
BLAS and OpenMP pinned to one thread.  Set-up, the time from launching an
interpreter to its first op (``import fisherinfo`` plus input
generation), is measured SETUP_REPEATS times and reported as the median.
The last interpreter then calls ``fisherinfo.cli.main`` in-process for
``--seconds`` seconds, one op at a time, and every op's output is checked.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  Earlier stdout lines hold the run
environment and details; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
SETUP_REPEATS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(BENCH))
from tracing import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def run_worker(argv: list, env: dict, deadline: float) -> tuple[float, str]:
    """Launch a worker; returns (seconds to its ready line, the rest of its stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=remaining(deadline))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode} before finishing")
    return setup, out


def import_times(env: dict, deadline: float) -> dict:
    """Cumulative import times from ``python -X importtime -c 'import fisherinfo'``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fisherinfo"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"import fisherinfo failed: {proc.stderr.strip()[-500:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e3
    return {"import.fisherinfo_ms": cumulative.get("fisherinfo", 0.0),
            "import.scipy_optimize_ms": cumulative.get("scipy.optimize", 0.0)}


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(result: dict, setups: list) -> dict:
    lat_ms = [t * 1e3 for t in result["latencies_s"]]
    if not lat_ms:
        raise BenchError("no op completed")
    attempted = result["attempted"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat_ms) / result["wall_s"], "1/s"),  # wall_s: time in ops
        "latency_p50_ms": (percentile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 0.9), "ms"),
        "ok_ratio": ((attempted - result["failed"]) / attempted, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fisherinfo" / "__init__.py").is_file():
        print(f"error: no fisherinfo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"docs-{os.getpid()}"
    try:
        if args.trace:
            layers = import_times(env, deadline)
            spans_file = WORK / f"spans-{args.workload}.jsonl"
            setups = []
            setup, out = run_worker(base + ["--workdir", str(workdir), "--trace",
                                            str(spans_file)], env, deadline)
        else:
            setups = [run_worker(base + ["--workdir", str(workdir), "--setup-only"],
                                 env, deadline)[0] for _ in range(SETUP_REPEATS - 1)]
            setup, out = run_worker(base + ["--workdir", str(workdir)], env, deadline)
        setups.append(setup)
        result = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            layers.update(result["layers"])
            units = metric_units()
            metrics = {name: (layers[name], unit) for name, unit in units.items()}
        else:
            metrics = end_to_end(result, setups)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in result["check_error_samples"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": {**environment(), **result["versions"],
                                      "probe_ms": [result["probe_start_ms"],
                                                   result["probe_end_ms"]]}}))
    print(json.dumps({"details": {"workload": args.workload, "seed": args.seed,
                                  "setup_runs_s": setups,
                                  "latency_samples": len(result["latencies_s"]),
                                  "failed_ratio": result["failed"] / result["attempted"],
                                  "failures": result["failures"],
                                  "check_errors": result["check_errors"],
                                  **({"known_defect": result["known_defect"]}
                                     if "known_defect" in result else {}),
                                  **({"missing_spans": result["missing_spans"]}
                                     if args.trace else {})}}))
    print(json.dumps({
        "correct": result["check_errors"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
