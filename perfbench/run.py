#!/usr/bin/env python3
"""Build and run the host benchmark of yafim_mine (see README.md).

    python3 perfbench/run.py --workload t10_lowsup --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench of the checkout, then runs one benchmark run. The
last line of standard output is the run's JSON result; the exit code is
nonzero when the build fails or any mine is wrong.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    """Configure and build; on failure print the log's tail and exit 1."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write(f"\n{e}\n")
                code = 1
            if code != 0:
                break
    if code != 0:
        with open(log_path) as log:
            tail = log.read().splitlines()[-30:]
        sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
        sys.exit(1)


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=18)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own tests instead")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    build()
    sys.stdout.flush()
    if args.selftest:
        return run([os.path.join(BUILD_DIR, "perfbench_selftest")])
    return run([os.path.join(BUILD_DIR, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", OUT_DIR])


if __name__ == "__main__":
    sys.exit(main())
