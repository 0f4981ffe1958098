#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload xmark-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own determinism test

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and every file the run writes stays under it.
Build output goes to stderr, so the last line on stdout is the result
object the benchmark prints.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", build_dir, "-j", jobs, "--target", target],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 1
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    if argv[1:] == ["--test"]:
        if not build(build_dir, "replay_determinism_test"):
            return 1
        return subprocess.run(
            [os.path.join(build_dir, "replay_determinism_test")],
            cwd=build_dir).returncode
    if not build(build_dir, "perfbench"):
        return 1
    binary = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    return subprocess.run([binary] + argv[1:] +
                          ["--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
