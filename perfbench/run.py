#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

The first call configures and builds the library and the benchmark from
the checkout's sources into .bench_build/ (Release); later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. `--workload all` runs every
workload, each in its own process so peak memory stays per workload,
and ends with one JSON object whose metric names are prefixed with the
workload. The exit code is non-zero when the build fails or any
correctness, faithfulness or determinism check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["mrhs_exact", "original_exact", "mrhs_incremental",
             "ensemble_serve"]


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)


def run_one(workload, args):
    state_dir = os.path.join(BUILD, "perfbench-state")
    os.makedirs(state_dir, exist_ok=True)
    st = os.stat(BINARY)
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--state-dir", state_dir,
         "--record-key", f"{st.st_size}-{st.st_mtime_ns}"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.workload != "all":
        code, result = run_one(args.workload, args)
        if result:
            print(result)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(workload, args)
        worst = max(worst, code)
        print(f"{workload}: {result}")
        if not result:
            combined["correct"] = False
            continue
        parsed = json.loads(result)
        combined["correct"] = combined["correct"] and parsed["correct"]
        combined["attempted"] += parsed["attempted"]
        combined["failed"] += parsed["failed"]
        for name, metric in parsed["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
