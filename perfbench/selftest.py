#!/usr/bin/env python3
"""Self-test of the benchmark: every workload once at a tiny size.

    python3 perfbench/selftest.py

Run it from the repository root. For each workload it checks that

  * an untraced run exits 0 and prints, as its last line, a JSON object
    with exactly correct/attempted/failed/metrics, and every end-to-end
    metric of BENCHMARK.json with its unit and a finite, nonzero value;
  * a traced run prints every per-layer metric with its unit, and every
    per-layer metric is nonzero on at least one workload (a metric the
    binary stopped measuring, or measures under another name, reads 0
    everywhere);
  * a run with one expected answer deliberately corrupted reports the
    failure (correct false, failed >= 1) and exits nonzero, so the answer
    check cannot pass silently.

It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
"""
import json
import math
import os
import shutil
import subprocess
import sys

SECONDS = "4"


def run(args, cwd=None, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(result, expected, what, nonzero):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys are {sorted(result)}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        problems.append(f"{what}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(names))}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{what}: {m['name']} unit {got.get('unit')} "
                            f"!= {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{what}: {m['name']} value {value!r}")
        elif nonzero and value == 0:
            problems.append(f"{what}: {m['name']} is 0")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{what}: attempted {result.get('attempted')!r}")
    return problems


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    layer_seen = set()
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "1", "--seconds", SECONDS,
                "--tiny"]
        status, result, err = run(base + ["--trace", "0"])
        if status != 0 or result is None or not result["correct"]:
            problems.append(f"{workload}: untraced run failed ({status}): "
                            f"{err[-400:]}")
        else:
            problems += check_metrics(result, spec["end_to_end"],
                                      f"{workload} trace 0", nonzero=True)
        status, result, err = run(base + ["--trace", "1"])
        if status != 0 or result is None or not result["correct"]:
            problems.append(f"{workload}: traced run failed ({status}): "
                            f"{err[-400:]}")
        else:
            problems += check_metrics(result, spec["per_layer"],
                                      f"{workload} trace 1", nonzero=False)
            layer_seen |= {name for name, m in result["metrics"].items()
                           if m.get("value")}
        status, result, _ = run(base + ["--trace", "0", "--inject-wrong"])
        if (status == 0 or result is None or result["correct"]
                or result["failed"] < 1):
            problems.append(f"{workload}: an injected wrong answer was not "
                            f"reported (status {status}, result {result})")
        print(f"{workload}: checked", flush=True)

    for m in spec["per_layer"]:
        if m["name"] not in layer_seen:
            problems.append(f"{m['name']} is 0 on every workload")

    # Only BENCHMARK.json and the benchmark's own files: must refuse.
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    alone = os.path.join(build_dir, "selftest-alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    shutil.copy("BENCHMARK.json", alone)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(alone, path))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    status, result, _ = run(["--workload", spec["workloads"][0]["name"],
                             "--seed", "1",
                             "--seconds", SECONDS, "--trace", "0"],
                            cwd=alone, env=env)
    shutil.rmtree(alone, ignore_errors=True)
    if status == 0 or result is not None:
        problems.append("ran without the library sources "
                        f"(status {status}, result {result})")
    print("benchmark-only directory: checked", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
