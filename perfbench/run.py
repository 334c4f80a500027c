#!/usr/bin/env python3
"""Repository benchmark: FASTA text -> cluster labels, one workload per process.

Builds perfbench/ (the library sources in src/ plus the measuring process)
into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload amplicon-lsh --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (its spans go to .bench_build/spans/).  --workload all runs
every workload, one process each, and prints their metrics prefixed with the
workload name.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the exit status is 0 only when
every output check passed.  See perfbench/NOTES.md.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
BINARY = BUILD / "mrmc_perfbench"
WORKLOADS = ("amplicon-lsh", "shotgun-greedy", "16s-hier-mr")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "mrmc_perfbench"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def run_workload(args, workload, timeout_s):
    """Runs one workload in its own process; returns (exit code, result)."""
    SPANS.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", str(SPANS / f"{workload}-seed{args.seed}.json")]
    if args.reads:
        command += ["--reads", str(args.reads)]
    if args.corrupt_labels:
        command.append("--corrupt-labels")
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {timeout_s} s", file=sys.stderr)
        return 124, None
    lines = child.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            pass
    for line in lines:
        print(line)
    return child.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reads", type=int, default=0,
                        help="shrink every workload to this many reads (self-tests)")
    parser.add_argument("--corrupt-labels", action="store_true",
                        help="damage one label vector (self-tests)")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 3

    if args.workload != "all":
        code, result = run_workload(args, args.workload, RUN_TIMEOUT_S)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, result = run_workload(args, workload, RUN_TIMEOUT_S)
        if result is None:
            return code or 1
        status = status or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
