#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 rdfbench/spread.py --workload sp2b-serve --seeds 1-10 [--trace 1]
        [--seconds 25] [--json out.json]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median -- the spread the end-to-end bounds in BENCHMARK.json are checked
against. With --json, writes {metric: {median, q1, q3, spread, unit}} plus
the per-run results.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    runs = []
    for seed in seeds_of(args.seeds):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        if p.returncode != 0:
            print("seed %d failed:\n%s" % (seed, p.stderr[-2000:]))
            return 1
        result = json.loads(p.stdout.strip().split("\n")[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]),
              flush=True)
        runs.append({"seed": seed, "result": result})

    summary = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": metric["unit"]}
        print("%-34s median %14.6g  q1 %14.6g  q3 %14.6g  spread %.4f" %
              (name, median, q1, q3, spread))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "trace": args.trace, "metrics": summary,
                       "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
