#!/usr/bin/env python3
"""Steadiness mode: two interleaved sets of runs of every workload.

Runs the benchmark command from BENCHMARK.json (from the repository root)
as set A, set B, set A, ... with a distinct seed per run, then prints for
each workload and end-to-end metric each set's median and quartiles, the
interquartile spread as a share of the median, and flags

  DRIFT   when the two sets' medians differ by more than the metric's bound,
  SPREAD  when a set's spread exceeds a third of the bound (setup_s exempt),
  FAILED  when the sets' failed-operation shares differ, or a run is not
          correct or exits with an error.

Usage:
  python3 benchmark/steady.py [--runs N] [--seed S] [--workload NAME ...]

Set A uses seeds S, S+2, S+4, ...; set B uses S+1, S+3, ...; the A+B
rows pool both sets. Pass a seed
not used before to check a result on unseen inputs. Exits 1 if anything
is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    flagged = False
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(2 * args.runs):
            label = "AB"[i % 2]
            result = run_once(bench["command"], workload, args.seed + i, bench["run_seconds"])
            if result is None or not result["correct"]:
                print(f"{workload}: run with seed {args.seed + i} FAILED: {result}")
                flagged = True
                continue
            sets[label].append(result)
        if not sets["A"] or not sets["B"]:
            continue
        shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
        if len(shares["A"] | shares["B"]) != 1:
            print(f"{workload}: FAILED shares differ between runs: {shares}")
            flagged = True
        print(f"\n{workload}: {len(sets['A'])} + {len(sets['B'])} runs")
        print(f"  {'metric':<14} {'set':<3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = {}
            for label, runs in list(sets.items()) + [("A+B", sets["A"] + sets["B"])]:
                values = [r["metrics"][name]["value"] for r in runs]
                if len(values) < 2:
                    continue
                q1, q2, q3, spread = summary(values)
                if label != "A+B":
                    medians[label] = q2
                flag = ""
                if spread > bound / 3 and name != "setup_s":
                    flag = "  SPREAD"
                    flagged = True
                print(f"  {name:<14} {label:<3} {q1:>12.5g} {q2:>12.5g} {q3:>12.5g} {spread:>8.2%}{flag}")
            if len(medians) == 2:
                drift = abs(medians["B"] - medians["A"]) / medians["A"]
                if drift > bound:
                    print(f"  {name:<14} DRIFT {drift:.2%} > bound {bound:.0%}")
                    flagged = True
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
