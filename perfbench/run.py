#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the library and the benchmark from source (CMake, into
.bench_build/perfbench under the repository root), runs one workload and
prints its output; the last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload serial_mlfma --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

A traced run (--trace 1) also writes a chrome://tracing file next to the
build, named in the fingerprint line.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds; returns False when either step fails."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                return False
    return True


def result_line_ok(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1

    if args.self_test:
        cmd = [os.path.join(BUILD, "perfbench_test"),
               os.path.join(ROOT, "BENCHMARK.json")]
        try:
            return subprocess.run(cmd, cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: self-test timed out\n")
            return 1

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not result_line_ok(lines[-1]):
        sys.stdout.write(proc.stdout)
        sys.stderr.write("perfbench: run failed (exit %d)\n" % proc.returncode)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
