"""In-process workloads (stream, crowded): set up, then time whole rounds.

Run as a script it is the workload's own fresh process: it imports the
program, sets up, prints READY (the driver times set-up up to that line),
runs the timed pass and prints one JSON line of raw results.  With
--setup-only it exits right after READY.  run.py also calls run() in its
own process for the traced run.

    PYTHONPATH=src python3 bench/worker.py --workload stream --dir bench/out/stream --seconds 30
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _read(paths):
    from curiophys import ingest

    return [ingest.read_trace_file(p) for p in paths]


def run(workload: str, out_dir: str, seconds: float, min_rounds: int, ready=lambda: None) -> dict:
    """Set up, call ready(), then classify whole rounds of the corpus until
    both `seconds` and `min_rounds` are reached.

    stream starts every round from an empty knowledge base, so each round
    repeats the same learning; crowded classifies unlabelled scenes
    against the knowledge base learned once in set-up.
    """
    from curiophys import curiosity, knowledge  # set-up includes the package import

    with open(os.path.join(out_dir, "corpus.json"), encoding="utf-8") as fh:
        corpus = json.load(fh)
    kb = knowledge.KnowledgeBase()
    learned = curiosity.process_stream(_read(corpus["learn"]), kb) if corpus["learn"] else []
    traces = _read(corpus["timed"])
    ready()

    kb_path = os.path.join(out_dir, "kb.json")
    rounds_ms = []
    attempted = failed = 0
    reference = None
    identical = True
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds_ms) < min_rounds:
        if workload == "stream":
            kb = knowledge.KnowledgeBase()
        results, times = [], []
        for trace in traces:
            t0 = time.perf_counter()
            out = curiosity.process_stream([trace], kb)
            times.append((time.perf_counter() - t0) * 1e3)
            results.extend(out)
        rounds_ms.append(times)
        attempted += len(traces)
        failed += sum(1 for r in results if isinstance(r, curiosity.EventError))
        # outside the timed calls: every round must give the same outputs
        text = curiosity.encode_verdicts(results)
        knowledge.save_kb_file(kb, kb_path)
        with open(kb_path, "rb") as fh:
            kb_bytes = fh.read()
        identical &= knowledge.save_kb(knowledge.load_kb_file(kb_path)) == kb_bytes
        if reference is None:
            reference = (text, kb_bytes)
            with open(os.path.join(out_dir, "verdicts.jsonl"), "w", encoding="utf-8") as fh:
                fh.write(curiosity.encode_verdicts(learned) + text)
        else:
            identical &= (text, kb_bytes) == reference
    return {
        "rounds_ms": rounds_ms,
        "events_per_round": len(traces),
        "attempted": attempted,
        "failed": failed,
        "identical": identical,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("stream", "crowded"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    def ready():
        print("READY", flush=True)
        if args.setup_only:
            sys.exit(0)

    result = run(args.workload, args.dir, args.seconds, args.min_rounds, ready)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
