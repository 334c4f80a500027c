#!/usr/bin/env python3
"""Self-tests of the repository benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Checks, for every workload, that each metric BENCHMARK.json names is emitted
with its unit (end-to-end with --trace 0, per-layer with --trace 1); that a
deliberately corrupted label vector fails the output check in both modes;
that another seed changes the input but not the set of metric names; and
that a timed run refuses to start under an MRMC_* variable that changes
what the pipeline does.  Exits non-zero on the first failure.
"""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
TINY_READS = 400


def bench(workload, seed, trace, *extra, env=None):
    """Runs run.py; returns (exit code, result object or None, env record)."""
    child = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
               "--trace", str(trace), "--reads", str(TINY_READS), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT, env=env, timeout=170)
    lines = child.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    record = next((json.loads(line[len("# env "):]) for line in lines
                   if line.startswith("# env ")), None)
    return child.returncode, result, record


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in (w["name"] for w in spec["workloads"]):
        inputs = {}
        for trace in (0, 1):
            for seed in (1, 2):
                code, result, record = bench(workload, seed, trace)
                expect(code == 0 and result and result["correct"]
                       and result["failed"] == 0,
                       f"{workload} trace={trace} seed={seed} passes its checks")
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                expect(units == wanted[trace],
                       f"{workload} trace={trace} seed={seed} emits every metric "
                       "with its unit, and no other")
                inputs[seed] = record["input_fnv"]
            expect(inputs[1] != inputs[2],
                   f"{workload} trace={trace}: another seed changes the input")

        for trace in (0, 1):
            code, result, _ = bench(workload, 1, trace, "--corrupt-labels")
            expect(code != 0 and result and not result["correct"]
                   and result["failed"] >= 1,
                   f"{workload} trace={trace}: a corrupted label vector is caught")

    env = dict(os.environ, MRMC_CHECKPOINT_DIR="checkpoints")
    code, result, _ = bench(spec["workloads"][0]["name"], 1, 0, env=env)
    expect(code != 0 and result is None,
           "MRMC_CHECKPOINT_DIR makes a timed run refuse to start")
    env = dict(os.environ, MRMC_LOG="debug")
    code, result, _ = bench(spec["workloads"][0]["name"], 1, 0, env=env)
    expect(code != 0 and result is None,
           "a non-default MRMC_LOG makes a timed run refuse to start")
    return 0


if __name__ == "__main__":
    sys.exit(main())
