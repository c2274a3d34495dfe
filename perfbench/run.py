#!/usr/bin/env python3
"""Orion ledger benchmark: one end-to-end and per-layer run of one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload mf_rotation --seed 1 --seconds 10 --trace 0

Builds perfbench/orion_ledger from source (Release) under .bench_build/,
runs the workload in its own process and prints a readable report followed
by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an untraced
run. --trace 1 runs the workload twice, untraced and then traced, and
reports the per-layer metrics of the traced run plus trace.overhead_frac,
the throughput the tracer costs. The MF workloads' schedules are
deterministic, so the two runs must also agree on final_loss to the bit.

Exits non-zero when an output check fails (after printing the result) or
when the program cannot be built or run (without printing a result).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
LEDGER = os.path.join(BUILD_DIR, "orion_ledger")

WORKLOADS = ("mf_rotation", "slr_server", "mf_wavefront_serve")
DETERMINISTIC_LOSS = ("mf_rotation", "mf_wavefront_serve")
# Derived in this script from the untraced and traced runs together.
OVERHEAD_METRIC = "trace.overhead_frac"

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 85  # per ledger process; --trace 1 starts two


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def declared_metrics():
    """(end_to_end, per_layer) lists of (name, unit) from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    pick = lambda key: [(m["name"], m["unit"]) for m in spec[key]]
    return pick("end_to_end"), pick("per_layer")


def run_quiet(cmd, timeout):
    """Runs a build step with its output sent to stderr."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (" ".join(cmd), e))
    if done.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), done.returncode))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the Orion sources (src/) are not beside perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "orion_ledger", "-j", jobs],
              BUILD_TIMEOUT_S)


def run_ledger(workload, seed, seconds, trace):
    """Runs one ledger process and returns its parsed result object."""
    scratch = os.path.join(SCRATCH_DIR, "%s-%d-%d" % (workload, os.getpid(), trace))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [LEDGER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", scratch]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (" ".join(cmd), e))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("ledger run (trace=%d) exited with %d and printed no result"
             % (trace, done.returncode))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    end_to_end, per_layer = declared_metrics()
    build()

    runs = [run_ledger(args.workload, args.seed, args.seconds, 0)]
    if args.trace:
        runs.append(run_ledger(args.workload, args.seed, args.seconds, 1))
    plain = runs[0]
    report = runs[-1]

    checks = {}
    for r in runs:
        tag = "traced" if r["env"]["trace"] else "untraced"
        for name, ok in r["checks"].items():
            checks["%s.%s" % (tag, name)] = ok
    if args.trace:
        base = plain["per_layer"]["train_items_per_s"]
        traced = report["per_layer"]["train_items_per_s"]
        report["per_layer"][OVERHEAD_METRIC] = 1.0 - traced / base if base > 0 else 0.0
        if args.workload in DETERMINISTIC_LOSS:
            checks["final_loss_identical_traced_untraced"] = (
                plain["end_to_end"]["final_loss"] == report["end_to_end"]["final_loss"])
    correct = all(checks.values())

    source = report["per_layer"] if args.trace else report["end_to_end"]
    declared = per_layer if args.trace else end_to_end
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in declared}

    print("env: " + json.dumps(report["env"], sort_keys=True))
    print("detail: " + json.dumps(report["detail"], sort_keys=True))
    for name, ok in sorted(checks.items()):
        print("check %-48s %s" % (name, "ok" if ok else "FAILED"))
    for section, values, units in (("end_to_end", plain["end_to_end"], dict(end_to_end)),
                                   ("per_layer", report["per_layer"], dict(per_layer))):
        for name, value in values.items():
            print("%-11s %-32s %18.6f %s" % (section, name, value, units.get(name, "")))

    print(json.dumps({
        "correct": correct,
        "attempted": sum(int(r["attempted"]) for r in runs),
        "failed": sum(int(r["failed"]) for r in runs),
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
