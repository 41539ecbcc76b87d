"""Smoke test of the benchmark itself; no timing gate.

    python3 bench/smoke.py

For each workload (the two BENCHMARK.json names, and cli-batch) it runs
one round of a tiny corpus in both modes, with every check on, and asserts
that the result line is well formed and lists exactly the metrics
BENCHMARK.json names.  It then flips one verdict in a
copy of the run's outputs and asserts that the checks catch it.  Last, it
runs the benchmark in a directory without the program and asserts that it
fails without printing a result.  Exits 1 on the first failure.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import checks
import run

SEED = 3


def fail(msg: str) -> None:
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def bench_run(workload: str, trace: int, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def flipped(verdicts: list, index: int) -> list:
    out = copy.deepcopy(verdicts)
    flag = out[index]["flag"]
    out[index]["flag"] = "impossible" if flag == "possible" else "possible"
    return out


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = bench_run(workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} --trace {trace}: {result} {proc.stderr[-2000:]}")
            if set(result["metrics"]) != names[trace]:
                fail(f"{workload} --trace {trace}: metrics {sorted(result['metrics'])}, expected {sorted(names[trace])}")

        learn, timed = run.script(workload, SEED, tiny=True)
        verdicts, kb = run.read_outputs(os.path.join(run.BENCH, "out", workload))
        if checks.check_verdicts(learn + timed, verdicts, kb):
            fail(f"{workload}: the checks reject the untouched outputs")
        for index in (len(learn), len(verdicts) - 1):
            problems = checks.check_verdicts(learn + timed, flipped(verdicts, index), kb)
            if not problems:
                fail(f"{workload}: flipping verdict {index} went unnoticed")
            print(f"smoke: {workload}: flipped verdict {index} caught: {problems[0]}")
        print(f"smoke: {workload}: ok")

    bare = os.path.join(run.BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = bench_run("stream", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without the program the benchmark exited {proc.returncode} and printed {proc.stdout!r}")
    print("smoke: without the program: exit", proc.returncode)
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
