#!/usr/bin/env python3
"""Build the scheduler benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark (perfbench/CMakeLists.txt)
is configured and built in Release into $CARGO_TARGET_DIR (default
.bench_build), relative to the checkout root; later runs rebuild only what
changed. The workload runs in one single-threaded process whose standard
output ends with the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads: svc_easy, svc_cons_churn, batch_reservations, exact_staircase.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("svc_easy", "svc_cons_churn", "batch_reservations",
             "exact_staircase")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The workload process gets this long; the whole run must end within 180 s
# once the build is warm.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure (first time) and build perfbench_run; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", bdir, "--target", "perfbench_run",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(bdir, "perfbench_run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {ROOT}/src: run from a resched checkout",
             2)

    # A terminated run must not leave the workload process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bdir = build_dir()
    binary = build(bdir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-file", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    started = time.monotonic()
    try:
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"{args.workload} exited with code {code} after "
             f"{time.monotonic() - started:.1f} s", code if code > 0 else 1)


if __name__ == "__main__":
    main()
