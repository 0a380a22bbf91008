#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 e2ebench/steady.py [--runs 10]

For every workload of BENCHMARK.json, runs two sets of --runs runs
through e2ebench/run.py with BENCHMARK.json's run_seconds: set A with
seeds 1..runs, then set B with the same seeds again. For every metric it
prints the median of each set, set A's first and third quartile
(Python's statistics.quantiles(n=4)) and these shares of the median:

  spread A, spread B  (Q3 - Q1) / median over a set's runs, which mixes
                      seed-to-seed input differences with run-to-run
                      noise, as a gate over many seeds sees it;
  drift               (median B - median A) / median A, signed so that
                      a positive drift is a change for the worse;
  same-seed           the median over seeds of |B_i - A_i| / A_i: the
                      run-to-run noise alone, with the inputs fixed.

A spread above a third of the metric's bound, or a drift for the worse
above the bound, is flagged with "!" and makes the exit status 1.
setup_s is one cold set-up per run, so its spread is reported but not
checked; its drift is. The share of failed operations must be the same
in every run. A run that fails or reports incorrect outputs also makes
the exit status 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "e2ebench", "run.py")


def run_set(workload, seeds, seconds):
    """Run the workload once per seed; return the results and whether
    every run completed with correct outputs."""
    results, ok = [], True
    for seed in seeds:
        cmd = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            print("%s seed %d: run failed (exit %d)"
                  % (workload, seed, proc.returncode))
            return None, False
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            print("%s seed %d: INCORRECT outputs" % (workload, seed))
            ok = False
        results.append(res)
    return results, ok


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3, (q3 - q1) / statistics.median(vals)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        set_a, ok_a = run_set(workload, seeds, spec["run_seconds"])
        set_b, ok_b = run_set(workload, seeds, spec["run_seconds"])
        ok = ok and ok_a and ok_b
        if set_a is None or set_b is None:
            continue
        shares = {r["failed"] / r["attempted"] for r in set_a + set_b}
        print("\n%s: 2 x %d runs, failed share %s"
              % (workload, args.runs, sorted(shares)))
        if len(shares) != 1:
            ok = False
        print("  %-20s %12s %12s %12s %12s %8s %8s %8s %9s %6s"
              % ("metric", "median A", "median B", "q1 A", "q3 A",
                 "spread A", "spread B", "drift", "same-seed", "bound"))
        for name, m in metrics.items():
            a = [r["metrics"][name]["value"] for r in set_a]
            b = [r["metrics"][name]["value"] for r in set_b]
            med_a, med_b = statistics.median(a), statistics.median(b)
            q1, q3, spread_a = spread(a)
            spread_b = spread(b)[2]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (med_b - med_a) / med_a
            same = statistics.median(abs(y - x) / x for x, y in zip(a, b))
            flags = ""
            if name != "setup_s" and max(spread_a, spread_b) > m["bound"] / 3:
                flags += "!"
            if drift > m["bound"]:
                flags += "!"
            ok = ok and not flags
            print("  %-20s %12.6g %12.6g %12.6g %12.6g %8.4f %8.4f %8.4f "
                  "%9.4f %6.2f %s"
                  % (name, med_a, med_b, q1, q3, spread_a, spread_b, drift,
                     same, m["bound"], flags))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
