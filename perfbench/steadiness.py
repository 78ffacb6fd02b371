#!/usr/bin/env python3
"""Steadiness check for the perfbench workloads.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 2]
                                    [--repeat]

Runs every workload --runs times per set, one process at a time, through
perfbench/run.py, for BENCHMARK.json's run_seconds each. Run i of every set
uses seed i (1, 2, ...), so a set mixes run-to-run noise with the spread
between inputs, as a comparison of two commits over distinct seeds does.
With --repeat every run uses the held-out seed 1001 instead, which leaves
only the run-to-run noise of one input.

For each end-to-end metric it prints the median, the spread (distance
between the first and third quartile of the runs, as
statistics.quantiles(values, n=4) gives them, as a share of the median) and
the metric's bound from BENCHMARK.json. A spread at or below a third of the
bound is steady. With two or more sets it also prints how far each later
set's median moved from the first set's in the metric's worse direction,
and whether the share of failed operations is the same in every set. The
exit code is 1 if any run failed or was incorrect, a spread exceeded its
bound, or a median moved by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HELD_OUT_SEED = 1001


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    """Median, and interquartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--repeat", action="store_true",
                        help=f"run every time on seed {HELD_OUT_SEED}")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seeds = ([HELD_OUT_SEED] * args.runs if args.repeat else
             list(range(1, args.runs + 1)))

    ok = True
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                r = run_once(workload, seed, seconds)
                if not r["correct"]:
                    ok = False
                    print(f"  {workload} seed {seed}: INCORRECT")
                runs.append(r)
            sets.append(runs)
        print(f"\n{workload}  ({args.runs} runs x {args.sets} sets, "
              f"{seconds} s each, "
              + (f"seed {HELD_OUT_SEED} repeated)" if args.repeat else
                 f"seeds 1..{args.runs})"))
        print(f"  {'metric':<18} {'median':>14} {'spread':>8} {'bound':>6}"
              f"  verdict   {'shift':>8}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first_med = None
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med, sp = spread(values)
                if sp <= bound / 3:
                    verdict = "steady"
                elif sp <= bound:
                    verdict = "within"
                else:
                    verdict, ok = "TOO WIDE", False
                shift = ""
                if first_med is None:
                    first_med = med
                else:
                    worse = ((med - first_med) if m["better"] == "lower"
                             else (first_med - med)) / first_med
                    shift = f"{worse:+.2%}"
                    if worse > bound:
                        shift += " MOVED"
                        ok = False
                print(f"  {name if s == 0 else '':<18} {med:>14.6g} "
                      f"{sp:>8.2%} {bound:>6.2f}  {verdict:<9} {shift:>8}")
        shares = {
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in sets}
        print(f"  failed share per set: {sorted(shares)}"
              + ("" if len(shares) == 1 else "  DIFFERS"))
        if len(shares) != 1:
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
