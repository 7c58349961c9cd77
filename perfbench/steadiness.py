#!/usr/bin/env python3
"""Run each workload N times with different seeds and report how steady
every end-to-end metric is.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--seconds S] [--workloads a,b]
                                    [--same-seed]

For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), and the spread: the distance
between the quartiles as a share of the median.  Each spread is compared with
a third of the metric's bound in BENCHMARK.json.  It also prints the share of
failed operations of each run, which must be the same in every run.  With
--same-seed every run uses the first seed: the simulated metrics must then be
identical.  Run from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit("%s seed %d exited %d" % (workload, seed, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: incorrect\n%s" % (workload, seed, out.stdout))
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            results.append(run_once(bench, workload, seed, seconds))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n%s: %d runs, %d s each, failed share %s" %
              (workload, args.runs, seconds, shares))
        if len(shares) != 1:
            steady = False
        print("  %-16s %14s %14s %14s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound/3"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bound / 3
            steady = steady and ok
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %8.4f %s" %
                  (name, statistics.median(values), q1, q3, spread, bound / 3,
                   "" if ok else "WIDE"))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
