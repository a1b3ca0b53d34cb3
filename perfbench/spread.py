#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

For every metric of the final JSON line and every "metric" line, prints
the median over the runs, the interquartile range as a share of the
median (statistics.quantiles(values, n=4)) and, for the end-to-end
metrics of BENCHMARK.json, whether the spread is within a third of the
metric's bound.

Usage, from the repository root:

    python3 perfbench/spread.py --workload fleet --seeds 1-10 [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, units, failed = {}, {}, 0
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            sys.exit(1)
        final = json.loads(lines[-1])
        if not final["correct"] or final["failed"]:
            failed += 1
            print(f"seed {seed}: correct={final['correct']} failed={final['failed']}", file=sys.stderr)
        for line in lines[:-1]:
            parts = line.split()
            if parts[:1] == ["metric"]:
                values.setdefault(parts[1], []).append(float(parts[2]))
                units[parts[1]] = parts[3]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(final["metrics"].items())), flush=True)

    print(f"\n{'metric':44} {'median':>14} {'spread':>8}  unit")
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        spread = float("nan")
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = abs(q3 - q1) / abs(med)
        verdict = ""
        if name in bounds:
            verdict = "ok" if spread < bounds[name] / 3 else f"WIDE (bound {bounds[name]})"
        print(f"{name:44} {med:14.6g} {spread:8.4f}  {units[name]} {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
