#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_step --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build; later calls only check the build is current. The benchmark's
scratch files, the native compiler's temporaries included, stay under that
directory. The last stdout line is the result object; the exit code is 0
only when every output was checked correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_step", "serve_fleet", "compile_sat", "compile_native")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_step(cmd, what):
    if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode != 0:
        fail(f"{what} failed", 3)


def build(target):
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout", 2)
    build_dir = os.path.join(target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_step(["cmake", "-S", here, "-B", build_dir, *gen,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs], "build")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(target)

    work = os.path.relpath(os.path.join(target, f"work-{os.getpid()}"))
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--repo", "."]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode if proc.returncode > 0 else 1)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("the benchmark printed no result line", 1)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
