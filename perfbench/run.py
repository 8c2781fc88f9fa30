#!/usr/bin/env python3
"""Builds and runs the ERMES repository benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload <mpeg2_dse|synth_flow|serve_mix> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest      # build and run the stats tests

The benchmark is a C++ program (perfbench/*.cpp) compiled together with the
ERMES sources in src/ into .bench_build/perfbench (override the directory
with CARGO_TARGET_DIR, which the build otherwise ignores). The first run
builds it; later runs only re-check that the build is up to date.

The program prints human-readable lines and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. This wrapper passes
that output through and exits with the program's status; a failed build
exits non-zero without printing a result.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(target):
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs(), "--target", target]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write("perfbench: build failed: %s\n" % exc)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def selftest():
    if not build("perfbench_stats_test"):
        return 1
    test = os.path.join(build_dir(), "perfbench_stats_test")
    return subprocess.run([test], timeout=RUN_TIMEOUT_S).returncode


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: run from the repository root "
                         "(src/ not found)\n")
        return 1
    if not build("ermes_perfbench"):
        return 1
    binary = os.path.join(build_dir(), "ermes_perfbench")
    try:
        proc = subprocess.run([binary, *argv], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: no result line\n")
        return 1
    problem = check_result(result, flag(argv, "--trace") == "1")
    if problem:
        sys.stderr.write("perfbench: %s\n" % problem)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


def flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def check_result(result, traced):
    """Checks the result line against the contract and BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "malformed result line"
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items()))
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
