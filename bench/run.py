"""Benchmark of the classify pipeline: one workload per run, one JSON line out.

    python3 bench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Workloads (see README.md): stream, crowded and cli-batch.  The run scripts
its inputs from --seed (scenario.py), writes them as trace files under
bench/out/<workload>/, runs the program on them, checks every output against
the script (checks.py) and prints, as its last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, measured in the workload's own
fresh processes; --trace 1 gives the per-layer metrics from spans recorded
around the program's functions (spans.py), in this process.
--size tiny runs one round of a small corpus, for the smoke test.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

import checks
import scenario

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("stream", "crowded", "cli-batch")

SETUP_SAMPLES = 7  # fresh set-ups per run, half before and half after the timed pass
IMPORT_SAMPLES = 5
MIN_ROUNDS = 3  # repeats of every operation; its time is the best of them
BATCH = 2  # trace files per cli-batch invocation


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def script(workload: str, seed: int, tiny: bool = False):
    """The workload's scripted events as (learn, timed): learn events are
    classified in set-up (crowded only), timed events make one round."""
    learn: list = []
    if workload == "stream":
        magic = [(scenario.VISIBLE, 4)] if tiny else [(scenario.VISIBLE, 4), (scenario.TELEPORT, 4)]
        timed = scenario.solo_corpus(f"stream/{seed}", variants=1 if tiny else 3, magic=magic)
    elif workload == "crowded":
        learn = scenario.learning_corpus(f"learn/{seed}", per_class=2 if tiny else 4)
        grid = (3, 3) if tiny else (scenario.COLS, scenario.ROWS)
        timed = scenario.crowded_corpus(f"crowded/{seed}", 2 if tiny else 20, *grid)
    else:
        magic = [(scenario.VISIBLE, 4)] if tiny else [(scenario.VISIBLE, 4), (scenario.TELEPORT, 1)]
        timed = scenario.solo_corpus(f"cli-batch/{seed}", variants=1, magic=magic)
    return learn, timed


def write_inputs(learn, timed, out_dir: str) -> dict:
    """Write every event as a trace file; returns event_id -> path."""
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir)
    paths = {}
    for i, event in enumerate(learn + timed):
        paths[event.event_id] = os.path.join(trace_dir, f"{i:03d}-{event.event_id}.jsonl")
        with open(paths[event.event_id], "w", encoding="utf-8") as fh:
            fh.write(event.text())
    corpus = {"learn": [paths[e.event_id] for e in learn], "timed": [paths[e.event_id] for e in timed]}
    with open(os.path.join(out_dir, "corpus.json"), "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
    return paths


# ---------------------------------------------------------------------------
# In-process workloads: stream, crowded
# ---------------------------------------------------------------------------

def spawn_worker(workload: str, out_dir: str, seconds: float, min_rounds: int, setup_only: bool):
    """Start a fresh worker; returns (seconds until READY, its result)."""
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
        "--dir", out_dir, "--seconds", str(seconds), "--min-rounds", str(min_rounds),
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True) as proc:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {workload} failed (exit {proc.returncode})")
    return setup, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def run_in_process_workload(workload, out_dir, seconds, min_rounds, traced):
    if traced:
        import worker

        return worker.run(workload, out_dir, seconds, min_rounds), []

    def setup_only():
        return spawn_worker(workload, out_dir, seconds, min_rounds, True)[0]

    # spread over the run, so that one slow spell does not set the median
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    setup, result = spawn_worker(workload, out_dir, seconds, min_rounds, False)
    setups += [setup] + [setup_only() for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
    return result, setups


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

def cli_subprocess(argv):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "curiophys.cli", *argv], env=_env(), stdout=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - t0


def cli_in_process(argv):
    from curiophys import cli

    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - t0


def run_cli_batch(invoke, timed, paths, out_dir, seconds, min_rounds):
    """Rounds of `kb reset` then one classify invocation per batch, all
    threading one kb.json, so exceptions learned in one invocation are
    promoted in a later one.  Each reset is one set-up sample."""
    work = os.path.join(out_dir, "cli")
    kb_path = os.path.join(work, "kb.json")
    batches = [timed[i:i + BATCH] for i in range(0, len(timed), BATCH)]
    setups, rounds_ms, problems = [], [], []
    attempted = failed = 0
    reference = None
    identical = True
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds_ms) < min_rounds:
        code, dt = invoke(["--kb", kb_path, "--out", work, "kb", "reset"])
        if code != 0:
            raise RuntimeError(f"kb reset exited {code}")
        setups.append(dt)
        lines, times = [], []
        for i, batch in enumerate(batches):
            report = os.path.join(work, f"b{i}", "verdicts.jsonl")
            if os.path.exists(report):
                os.remove(report)
            code, dt = invoke(["--kb", kb_path, "--out", os.path.dirname(report), "classify"] + [paths[e.event_id] for e in batch])
            times.append(dt * 1e3)
            attempted += 1
            if code != 0:
                failed += 1
                lines.extend(json.dumps({"event_id": e.event_id, "error": f"exit {code}"}) + "\n" for e in batch)
                continue
            with open(report, encoding="utf-8") as fh:
                got = fh.readlines()
            ids = [json.loads(line).get("event_id") for line in got]
            if ids != [e.event_id for e in batch]:
                problems.append(f"invocation {i}: verdicts.jsonl lists {ids}, inputs were {[e.event_id for e in batch]}")
            lines.extend(got)
        rounds_ms.append(times)
        with open(kb_path, "rb") as fh:
            outputs = ("".join(lines), fh.read())
        if reference is None:
            reference = outputs
            with open(os.path.join(out_dir, "verdicts.jsonl"), "w", encoding="utf-8") as fh:
                fh.write(outputs[0])
            shutil.copyfile(kb_path, os.path.join(out_dir, "kb.json"))
        else:
            identical &= outputs == reference
    return {
        "rounds_ms": rounds_ms,
        "events_per_round": len(timed),
        "attempted": attempted,
        "failed": failed,
        "identical": identical,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }, setups


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------

def read_outputs(out_dir):
    with open(os.path.join(out_dir, "verdicts.jsonl"), encoding="utf-8") as fh:
        verdicts = [json.loads(line) for line in fh if line.strip()]
    with open(os.path.join(out_dir, "kb.json"), encoding="utf-8") as fh:
        kb = json.load(fh)
    return verdicts, kb


def import_ms_samples() -> list[float]:
    code = "import time; t = time.perf_counter(); import curiophys.cli; print((time.perf_counter() - t) * 1e3)"
    return [
        float(subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]


def best_times(result) -> list[float]:
    """Each operation's time: the best of its repeats over the run's rounds
    (min-of-N), which keeps a shared machine's slow spells out of the figure."""
    return [min(repeats) for repeats in zip(*result["rounds_ms"])]


def events_per_s(result) -> float:
    """Events of one round per second of that round's best operation times."""
    return result["events_per_round"] / (sum(best_times(result)) / 1e3)


def end_to_end(result, setups) -> dict:
    best = best_times(result)
    return {
        "events_per_s": {"value": events_per_s(result), "unit": "1/s"},
        "latency_p50_ms": {"value": median(best), "unit": "ms"},
        "setup_s": {"value": median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the curiophys classify pipeline.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "curiophys", "__init__.py")):
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    min_rounds = 1 if tiny else MIN_ROUNDS
    out_dir = os.path.join(BENCH, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    learn, timed = script(args.workload, args.seed, tiny)
    paths = write_inputs(learn, timed, out_dir)

    rec = None
    if args.trace:
        import spans

        sys.path.insert(0, SRC)
        rec = spans.Recorder()
        spans.instrument(rec)
    if args.workload == "cli-batch":
        invoke = cli_in_process if args.trace else cli_subprocess
        result, setups = run_cli_batch(invoke, timed, paths, out_dir, args.seconds, min_rounds)
    else:
        result, setups = run_in_process_workload(args.workload, out_dir, args.seconds, min_rounds, bool(args.trace))

    verdicts, kb = read_outputs(out_dir)
    problems = result.get("problems", []) + checks.check_verdicts(learn + timed, verdicts, kb)
    if not result["identical"]:
        problems.append("a later round gave other verdicts or another knowledge base than the first")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    mode = "traced" if args.trace else "untraced"
    print(
        f"{args.workload} seed {args.seed}: {result['attempted']} operations in "
        f"{len(result['rounds_ms'])} rounds, {events_per_s(result):.3f} events/s ({mode})",
        file=sys.stderr,
    )

    if rec is not None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in spans.per_layer(rec).items()}
        metrics["cli.import_ms"] = {"value": median(import_ms_samples()), "unit": "ms"}
        rec.write(os.path.join(out_dir, "spans.csv"))
    else:
        metrics = end_to_end(result, setups)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
