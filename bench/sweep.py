"""Reference accuracy sweep: wrong verdicts as detector noise grows.

    python3 bench/sweep.py

Classifies the stream workload's script, unlabelled so each verdict is the
program's own judgement, at several noise levels and with random detector
misses, and prints the wrong verdicts per setting and scripted kind.  This
is a record, not a benchmark metric: the timed workloads stay at the light
noise at which every verdict is right.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter

import scenario
from run import SRC

SETTINGS = [(0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (4.0, 0.0), (0.5, 0.02)]
SEEDS = 7  # corpus seeds per setting, 45 events each


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    sys.path.insert(0, SRC)
    from curiophys import KnowledgeBase, classify_event, parse_trace

    print("sigma_px  miss_p  events  wrong  wrong by scripted kind")
    for sigma, miss_p in SETTINGS:
        wrong: Counter = Counter()
        total = 0
        for seed in range(SEEDS):
            for event in scenario.solo_corpus(f"sweep/{seed}", labelled=False, sigma=sigma, miss_p=miss_p):
                verdict = classify_event(parse_trace(event.text()), KnowledgeBase())
                total += 1
                if (verdict.flag.value == "possible") != event.physics_possible:
                    wrong[event.objects[0].kind] += 1
        detail = ", ".join(f"{k} {n}" for k, n in sorted(wrong.items())) or "-"
        print(f"{sigma:8.1f}  {miss_p:6.2f}  {total:6d}  {sum(wrong.values()):5d}  {detail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
