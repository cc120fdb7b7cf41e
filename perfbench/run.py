#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload batch-tmy3 --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); a traced run writes its spans to
.bench_build/perfbench-trace/. The last line of standard output is the
result object; everything the build prints goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-tmy3", "batch-gauss2d", "batch-hep", "serve-read",
             "serve-write")


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(["which", "ninja"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", build_dir, "--target", target,
                            "-j", jobs], stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target_root, "perfbench"))
    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build(build_dir, target):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, target)
    if args.selftest:
        return subprocess.call([binary])

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.abspath(
                   os.path.join(target_root, "perfbench-scratch")),
               "--trace-out", os.path.abspath(os.path.join(
                   target_root, "perfbench-trace",
                   "%s-seed%d.json" % (args.workload, args.seed)))]
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
