#!/usr/bin/env python3
"""Runs workloads repeatedly and reports each end-to-end metric's spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads w1,w2]

Each run uses the next seed. For every workload and metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, and the metric's bound from
BENCHMARK.json, in a Markdown table. Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(status {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()),
                file=sys.stderr, flush=True)
        values[workload] = {name: [r[name] for r in runs] for name in bounds}

    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        for name, bound in bounds.items():
            vals = values[workload][name]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bound / 3 else " *"
            print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {spread:.3f}{flag} | {bound} |")


if __name__ == "__main__":
    main()
