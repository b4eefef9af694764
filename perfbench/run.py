#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny] [--inject-wrong]

Run it from the repository root. The benchmark binary and the library are
built with CMake into $CARGO_TARGET_DIR (default .bench_build) on the first
run and reused afterwards. Model files for the run live in a scratch
directory under the build directory that is removed when the run ends; the
spans of a traced run are written to <build>/traces/<workload>.jsonl.

The binary prints progress lines starting with '#', passed through here,
and as its last line every metric it measured. This script prints, as the
last line, the result with exactly the metrics BENCHMARK.json names for the
mode: its end-to-end metrics with --trace 0, its per-layer metrics with
--trace 1 (0 for a layer that does not run in the workload). Exit status:
0 when every answer was correct, 1 when any operation failed, 2 or 3 when
the benchmark could not run or build.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

# Every run must end within 180 s; keep a margin for the build check and
# cleanup.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", bench_dir, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(
        ["cmake", "--build", cmake_dir, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if compiled.returncode != 0:
        return None
    return os.path.join(cmake_dir, "poetbin_perfbench")


def select_metrics(measured, wanted, missing_is_idle):
    """The metrics of `wanted` (BENCHMARK.json entries) out of `measured`."""
    out = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not missing_is_idle:
                raise ValueError(f"{m['name']} was not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} measured in {got['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = got
    return out


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(bench_dir, "..", "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smaller offline datasets, for the self-test")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one expected answer (self-test)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(bench_dir, build_dir)
    if binary is None or not os.path.exists(binary):
        log("build failed; the benchmark needs the full repository checkout")
        return 3

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--trace-out",
               os.path.join(trace_dir, f"{args.workload}.jsonl")]
    if args.tiny:
        command.append("--tiny")
    if args.inject_wrong:
        command.append("--inject-wrong")
    started = time.monotonic()
    last = ""
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                check=False, timeout=RUN_TIMEOUT_S)
        status = result.returncode
        lines = result.stdout.rstrip("\n").splitlines()
        for line in lines[:-1]:
            print(line)
        last = lines[-1] if lines else ""
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        status = 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    log(f"{args.workload} finished in {time.monotonic() - started:.1f} s "
        f"with status {status}")
    if status not in (0, 1):
        return 2
    try:
        measured = json.loads(last)
        metrics = select_metrics(
            measured["metrics"],
            spec["per_layer"] if args.trace else spec["end_to_end"],
            missing_is_idle=bool(args.trace))
    except (ValueError, KeyError) as error:
        log(f"malformed result: {error}")
        return 2
    print(json.dumps({"correct": measured["correct"],
                      "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}),
          flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
