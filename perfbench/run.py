#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package in release
mode (into $CARGO_TARGET_DIR, or perfbench/target), runs the workload, and
prints the benchmark's JSON result as the last line of stdout. With
--trace 1 the spans of the traced run are written to
perfbench/out/<workload>-seed<N>.trace.jsonl. Exits non-zero, printing no
result, when the build fails, the run fails or times out, or its result
line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; leave room to build and report.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def describe_host():
    """nproc, rustc version and commit, recorded with every run."""
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, timeout=10,
                                  cwd=HERE).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    return "nproc=%d rustc=%r commit=%s" % (
        os.cpu_count() or 0, out(["rustc", "--version"]),
        out(["git", "rev-parse", "--short", "HEAD"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "jetstream-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            HERE, "out", "%s-seed%d.trace.jsonl" % (args.workload, args.seed))]
    print("perfbench: %s" % describe_host(), file=sys.stderr)
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print("perfbench: run failed with code %d" % run.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stderr.write("".join(l + "\n" for l in lines[:-1]))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
