"""Spans around the program's public functions, recorded from outside it.

The traced run replaces each measured function, in the module namespace its
caller looks it up in, with a wrapper that records a span: name, start,
end and the enclosing span.  Spans stay in memory (flat arrays, so a long
run stays small) and are written out when the run ends.  Nothing in the
program's own source is changed.
"""
from __future__ import annotations

import os
import time
from array import array


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.last: dict[str, float] = {}

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span around owner.attr; count(args, result) may add to
        self.counts at the same boundary."""
        fn = getattr(owner, attr)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        stack, name_of, parent, start, end = self._stack, self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, summed duration and summed self time."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, total, self_time = {}, {}, {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            d = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + d
            self_time[name] = self_time.get(name, 0.0) + d - child[i]
        return calls, total, self_time

    def write(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_us,end_us,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{(self.start[i] - t0) * 1e6:.1f},"
                    f"{(self.end[i] - t0) * 1e6:.1f},{self.parent[i]}\n"
                )


def _count_tracks(rec, args, result):
    rec.add("frames", args[0].frame_count)
    rec.add("tracks", len(result))


def _count_breaks(rec, args, result):
    _, explanations = result
    rec.add("breaks", len(explanations))
    rec.add("explained", sum(1 for e in explanations if e.explained))


def _count_encoded(rec, args, result):
    rec.add("encoded", len(args[0]))


def _kb_size(rec, args, result):
    rec.last["kb_bytes"] = os.path.getsize(args[1])


def instrument(rec: Recorder) -> None:
    """Wrap every measured function where its caller looks it up:
    curiosity.classify_event's module globals, cli.main's, the tracker's
    filter class, the knowledge base class, and the ingest module."""
    from curiophys import body_budget, cli, curiosity, ingest, knowledge, tracker

    rec.wrap(ingest, "parse_trace", "parse_trace")
    rec.wrap(ingest, "validate_trace", "validate_trace")
    rec.wrap(curiosity, "classify_event", "classify_event")
    rec.wrap(curiosity, "track_event", "track_event", _count_tracks)
    rec.wrap(tracker.PointFilter, "predict", "filter")
    rec.wrap(tracker.PointFilter, "update", "filter")
    rec.wrap(curiosity, "trace_discontinuities", "trace_discontinuities")
    rec.wrap(curiosity, "explain_discontinuities", "explain_discontinuities", _count_breaks)
    rec.wrap(curiosity, "score_track", "score_track")
    rec.wrap(body_budget, "score_track", "score_track")
    rec.wrap(curiosity, "hypothesis_scores", "hypothesis_scores")
    rec.wrap(curiosity, "z_number", "infer")
    rec.wrap(curiosity, "raw_distances", "infer")
    rec.wrap(knowledge.KnowledgeBase, "update_stats", "learn")
    rec.wrap(knowledge.KnowledgeBase, "record_exception", "learn")
    for module in (curiosity, cli):
        rec.wrap(module, "encode_verdicts", "encode_verdicts", _count_encoded)
    for module in (knowledge, cli):
        rec.wrap(module, "save_kb_file", "save_kb_file", _kb_size)
        rec.wrap(module, "load_kb_file", "load_kb_file")


def per_layer(rec: Recorder) -> dict:
    """The per-layer metrics, per event unless the name says otherwise."""
    calls, total, self_time = rec.totals()

    def per(name: str, denom: float, scale: float = 1e6) -> float:
        return total.get(name, 0.0) * scale / denom if denom else 0.0

    events = calls.get("classify_event", 0)
    c = rec.counts
    persist = sum(per(name, calls.get(name, 0), 1e3) for name in ("save_kb_file", "load_kb_file"))
    return {
        "ingest.parse_us": (self_time.get("parse_trace", 0.0) * 1e6 / calls["parse_trace"], "us"),
        "trace_model.validate_us": (per("validate_trace", calls.get("validate_trace", 0)), "us"),
        "tracker.track_us": (per("track_event", events), "us"),
        "tracker.filter_call_us": (per("filter", calls.get("filter", 0)), "us"),
        "tracker.filter_calls": (calls.get("filter", 0) / events, "count"),
        "tracker.assoc_self_us": (self_time.get("track_event", 0.0) * 1e6 / c["frames"], "us"),
        "tracker.tracks": (c["tracks"] / events, "count"),
        "tracker.discontinuities_us": (per("trace_discontinuities", events), "us"),
        # hypothesis_scores' only children are score_track spans
        "body_budget.score_us": (
            (total.get("score_track", 0.0) + self_time.get("hypothesis_scores", 0.0)) * 1e6 / events, "us"
        ),
        "body_budget.score_calls": (calls.get("score_track", 0) / events, "count"),
        "curiosity.classify_self_us": (self_time.get("classify_event", 0.0) * 1e6 / events, "us"),
        "curiosity.explain_us": (per("explain_discontinuities", events), "us"),
        "curiosity.breaks": (c["breaks"] / events, "count"),
        "curiosity.explained_ratio": (c["explained"] / c["breaks"] if c["breaks"] else 0.0, "ratio"),
        "curiosity.encode_us": (per("encode_verdicts", c.get("encoded", 0)), "us"),
        "knowledge.learn_us": (per("learn", events), "us"),
        "knowledge.infer_us": (per("infer", events), "us"),
        "knowledge.persist_ms": (persist, "ms"),
        "knowledge.kb_bytes": (rec.last.get("kb_bytes", 0), "B"),
    }
