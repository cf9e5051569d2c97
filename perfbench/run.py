#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch-sharded-64k --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and compiles perfbench/ (which pulls in the
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. The benchmark's
standard output is passed through; its last line is the result JSON. The
metric names in that line are checked against BENCHMARK.json, so the two
cannot drift apart.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
# Transparent huge pages for the benchmark's heap. The 64k-member
# workloads walk trees and views far larger than the TLB covers; on a VM
# each TLB miss is a two-level page walk that slows down whenever other
# tenants fill the shared cache. With 4 KiB pages batch-sharded-64k ran
# 10-35% slower on a busy 4-vCPU Xeon VM, and its runs spread wider.
TUNABLES = "glibc.malloc.hugetlb=1"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build(out_dir):
    """Configure once, then build incrementally. Output goes to stderr."""
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j3"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    if args.selftest:
        return subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                              cwd=out_dir, timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        parser.error("--workload is required")

    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--run-dir", os.path.join(out_dir, "run")]
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), TUNABLES) if t)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    expected = expected_metrics(args.trace == "1")
    if proc.returncode == 0 and expected is not None:
        got = set(json.loads(lines[-1])["metrics"])
        if got != expected:
            print(f"perfbench: metrics {sorted(got ^ expected)} differ from "
                  "BENCHMARK.json", file=sys.stderr)
            print("\n".join(lines[:-1]))
            return 4
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
