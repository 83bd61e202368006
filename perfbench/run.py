#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload variant_sweep --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the root).
Build output goes to stderr, so the last line on stdout is the result
object the binary prints.

`--workload all` runs every workload, untraced and traced, each in a
process of its own (peak RSS is per process), and prints every report;
it exits non-zero if any run fails or reports an incorrect result.
"""

import json
import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
# The simulator crates the benchmark builds against; without them there
# is nothing to measure.
REQUIRED = [MANIFEST, os.path.join("crates", "bench", "Cargo.toml")]
WORKLOADS = ["variant_sweep", "contended_8task", "checker_stream"]
BUILD_TIMEOUT_S = 880
# A run measures for --seconds, then checks every timed cell again.
RUN_TIMEOUT_S = 170


def run(binary, argv):
    """Runs the binary once; returns (exit code, stdout)."""
    try:
        done = subprocess.run([binary, *argv], stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode, done.stdout


def without(argv, flags):
    """`argv` less each of `flags` and its value."""
    out, it = [], iter(argv)
    for arg in it:
        if arg in flags:
            next(it, None)
        else:
            out.append(arg)
    return out


def run_all(binary, argv):
    """Every workload at --trace 0 and 1; the other flags pass through."""
    rest = without(argv, ("--workload", "--trace"))
    worst = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            print(f"== {workload} --trace {trace}", flush=True)
            code, out = run(binary, ["--workload", workload, "--trace", trace, *rest])
            lines = out.strip().splitlines()
            try:
                correct = json.loads(lines[-1])["correct"] is True
            except (IndexError, ValueError, KeyError, TypeError):
                correct = False
            if code != 0 or not correct:
                worst = max(worst, code, 1)
    return worst


def main(argv):
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST, "--target-dir", target,
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    if "--workload" in argv[:-1] and argv[argv.index("--workload") + 1] == "all":
        return run_all(binary, argv)
    code, _ = run(binary, argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
