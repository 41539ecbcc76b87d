"""Correctness checks: the program's verdicts and knowledge base against the script.

Nothing here compares with stored output.  Every expectation comes from the
scenario script (kinds, labels, visible frames, confidences) or from a
property the method must have (the composite formula, the running class
means, the promotion sequence, normalized Z-number confidences).
"""
from __future__ import annotations

import math
from typing import Sequence

from scenario import BREAKS, CLASS_ORDER, IMPACT, ScriptedEvent

# The program's default composite weights (alpha, beta, gamma).
WEIGHTS = (0.33, 0.33, 0.33)
TOL = 1e-9


def _word(possible: bool) -> str:
    return "possible" if possible else "impossible"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def _expected_track_ids(event: ScriptedEvent) -> list[int]:
    """Track ids follow frame-0 detection content order (bbox first), with
    object tracks born before wall tracks."""
    order = sorted(
        range(len(event.objects)),
        key=lambda i: (event.objects[i].first_bbox, CLASS_ORDER.index(event.objects[i].cls), event.objects[i].confidence),
    )
    ids = [0] * len(order)
    for track_id, i in enumerate(order):
        ids[i] = track_id
    return ids


def check_verdicts(
    events: Sequence[ScriptedEvent],
    verdicts: Sequence[dict],
    kb: dict,
) -> list[str]:
    """Problems found in a run's verdicts (in event order) and final KB.

    Failed events (an "error" line) are skipped: they are counted as failed
    operations, not as wrong ones.
    """
    problems: list[str] = []
    if len(verdicts) != len(events):
        return [f"{len(verdicts)} verdicts for {len(events)} events"]
    threshold = kb["promotion_threshold"]
    alpha, beta, gamma = WEIGHTS
    seen: dict = {}  # exception signature -> occurrences so far
    learned: dict = {}  # class -> composite scores of matched labelled events
    for event, v in zip(events, verdicts):
        eid = event.event_id

        def bad(msg: str) -> None:
            problems.append(f"{eid}: {msg}")

        if v.get("event_id") != eid:
            bad(f"verdict for {v.get('event_id')!r} out of order")
            continue
        if "error" in v:
            continue
        scores = {t["track_id"]: t for t in v["track_scores"]}
        if len(scores) != len(event.objects):
            bad(f"{len(scores)} object tracks for {len(event.objects)} scripted objects")
            continue
        ids = _expected_track_ids(event)
        breaks: dict = {}
        for e in v["explanations"]:
            breaks.setdefault(e["track_id"], set()).add(e["kind"])
        for obj, tid in zip(event.objects, ids):
            t = scores.get(tid)
            if t is None:
                bad(f"no track {tid} for the scripted {obj.kind} {obj.cls}")
                continue
            where = f"track {tid} ({obj.kind} {obj.cls})"
            if t["class"] != obj.resolved_class:
                bad(f"{where}: class {t['class']}, scripted {obj.resolved_class}")
            if sorted(breaks.get(tid, ())) != sorted(BREAKS[obj.kind]):
                bad(f"{where}: breaks {sorted(breaks.get(tid, ()))}, scripted {list(BREAKS[obj.kind])}")
            n_vis = obj.visible_frames
            if not _close(t["s_stc"], n_vis / event.frames):
                bad(f"{where}: s_stc {t['s_stc']} != {n_vis}/{event.frames}")
            s_op = n_vis * obj.confidence * IMPACT[obj.resolved_class] / 1000.0
            if not _close(t["s_op"], s_op):
                bad(f"{where}: s_op {t['s_op']} != {s_op}")
            if not _close(t["a"], alpha * t["s_op"] + beta * t["s_sc"] + gamma * t["s_stc"]):
                bad(f"{where}: a {t['a']} is not alpha*s_op + beta*s_sc + gamma*s_stc")
        focus_obj = max(range(len(ids)), key=lambda i: (event.objects[i].visible_frames, -ids[i]))
        if v["focus_track_id"] != ids[focus_obj]:
            bad(f"focus track {v['focus_track_id']}, expected {ids[focus_obj]}")
            continue
        focus = scores[ids[focus_obj]]
        focus_resolved = event.objects[focus_obj].resolved_class

        def score_as(cls: str) -> float:
            s_op = focus["s_op"] * IMPACT[cls] / IMPACT[focus_resolved]
            return alpha * s_op + beta * focus["s_sc"] + gamma * focus["s_stc"]

        z = v["z_number"]
        # confidences are undefined only when the score sits on every class mean
        ambiguous = all(
            abs(sum(a) / len(a) - score_as(cls)) <= TOL * sum(a) / len(a) for cls, a in learned.items()
        )
        if learned and z is None and not ambiguous:
            bad("no z_number although the knowledge base holds class statistics")
        if z is not None:
            b = z["b"]
            if any(x < 0 for x in b.values()) or not _close(sum(b.values()), 1.0):
                bad(f"z_number.b {b} is not a normalized confidence vector")
            if min(b, key=lambda c: (b[c], CLASS_ORDER.index(c))) != z["x"]:
                bad(f"z_number.x {z['x']} is not at the minimum of b {b}")
            if not _close(z["a"], score_as(z["x"])):
                bad(f"z_number.a {z['a']} is not the focus score under class {z['x']}")

        physics = event.physics_possible
        if not event.magic and v["exception"] is not None:
            bad(f"exception record {v['exception']} on an event its label agrees with")
        if event.label is None:
            want_flag, match = _word(physics), None
        elif not event.magic:
            want_flag, match = _word(event.label), True
        else:
            kinds = sorted({k for o in event.objects for k in BREAKS[o.kind]})
            sig = (tuple(kinds), bool(event.walls), _word(physics), _word(event.label))
            count = seen.get(sig, 0)
            exc = v["exception"] or {}
            got_sig = (tuple(exc.get("violation_kinds", ())), exc.get("occluder_present"), exc.get("verdict_agent"), exc.get("verdict_ground_truth"))
            if got_sig != sig:
                bad(f"exception signature {got_sig}, expected {sig}")
            if count >= threshold:
                want_flag, match = _word(event.label), True
                want_exc = (threshold, True)
            else:
                seen[sig] = count = count + 1
                want_flag, match = "exception", False
                want_exc = (count, count >= threshold)
            if (exc.get("occurrences"), exc.get("promoted")) != want_exc:
                bad(f"exception (occurrences, promoted) = {(exc.get('occurrences'), exc.get('promoted'))}, expected {want_exc}")
        if v["flag"] != want_flag:
            bad(f"flag {v['flag']}, expected {want_flag}")
        if v["ground_truth_match"] is not match:
            bad(f"ground_truth_match {v['ground_truth_match']}, expected {match}")
        if match and focus["class"] in event.label_classes:
            learned.setdefault(focus["class"], []).append(focus["a"])

    stats = {s["class"]: s for s in kb["class_stats"]}
    if sorted(stats) != sorted(learned):
        problems.append(f"kb: classes {sorted(stats)}, expected {sorted(learned)}")
    for cls, values in learned.items():
        st = stats.get(cls)
        if st is None:
            continue
        if st["count"] != len(values) or not _close(st["mean"], sum(values) / len(values)):
            problems.append(
                f"kb: {cls} mean {st['mean']} over {st['count']}, "
                f"recomputed {sum(values) / len(values)} over {len(values)}"
            )
    got = sorted(
        (tuple(e["violation_kinds"]), e["occluder_present"], e["verdict_agent"], e["verdict_ground_truth"], e["occurrences"], e["promoted"])
        for e in kb["exceptions"]
    )
    want = sorted(sig + (n, n >= threshold) for sig, n in seen.items())
    if got != want:
        problems.append(f"kb: exceptions {got}, expected {want}")
    return problems

