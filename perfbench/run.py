#!/usr/bin/env python3
"""Runs one CATS benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload crawl_detect --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the benchmark
(perfbench/CMakeLists.txt, which compiles the repository's libraries from
src/) into .bench_build/perfbench and runs the benchmark's self-tests; later
runs only re-check the build. The workload binary writes the run's full
ledger (every metric it measured, end-to-end and per-layer) and, with
--trace 1, a span file under .bench_out/.

The last line of stdout is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end_to_end metrics of BENCHMARK.json with --trace 0 and its
per_layer metrics with --trace 1. The exit code is 0 only when the build,
the self-tests and every correctness check of the run passed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the CATS sources (src/) are not in this checkout")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(BENCH_DIR):
            subprocess.run(["rm", "-rf", BUILD_DIR], check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    if subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("the benchmark's self-tests failed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "cats_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} exited {proc.returncode} without a report")
    ledger = json.loads(lines[-1])
    ledger_path = os.path.join(
        OUT_DIR, f"ledger-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(ledger_path, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = ledger["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{args.workload} did not measure {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    for failure in ledger["check_failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": ledger["correct"],
                      "attempted": ledger["attempted"],
                      "failed": ledger["failed"],
                      "metrics": metrics}))
    sys.exit(0 if ledger["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
