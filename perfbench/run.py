#!/usr/bin/env python3
"""Run one perfbench workload against the pipeopt serving stack.

    python3 perfbench/run.py --workload solve_heavy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds the programs and the driver from the checkout's sources (Release,
into .bench_build/perfbench), runs the driver, and passes its output
through: one flat JSON record per metric, then the one-line summary
{"correct", "attempted", "failed", "metrics"} as the last line. The
summary is checked against BENCHMARK.json before it is printed. A run
with wrong answers prints its summary ("correct": false) and exits 1;
missing sources, a failed build or a failed run exit 2 with no summary.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the pipeopt sources are not next to perfbench/; nothing to build")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_summary(line, trace):
    """Parses the driver's last line and checks it against BENCHMARK.json."""
    summary = json.loads(line)
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("summary keys %s" % sorted(summary))
    names = set(summary["metrics"])
    bad = [n for n in names if not NAME.match(n)]
    if bad:
        raise ValueError("malformed metric names %s" % bad)
    want = expected_metrics(trace)
    if names != want:
        raise ValueError(
            "metrics differ from BENCHMARK.json: extra %s, missing %s"
            % (sorted(names - want), sorted(want - names))
        )
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    build(["perfbench_driver", "pipeopt_cli"])
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--pipeopt", os.path.join(BUILD, "pipeopt", "pipeopt"),
        "--work-dir", work,
        "--git-sha", git_sha(),
    ]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    # 0: a correct run; 1: a complete run with wrong answers (its summary
    # says "correct": false); anything else: no result.
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write("".join(line + "\n" for line in lines))
        fail("driver exited with %d" % run.returncode)
    try:
        check_summary(lines[-1], args.trace)
    except (ValueError, KeyError) as e:
        fail("bad summary line: %s" % e)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
