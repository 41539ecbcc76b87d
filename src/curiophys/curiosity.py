"""Event-level reasoning: explain continuity breaks or flag the event.

The flow per event: track all detections, pull out continuity breaks,
try to explain each one away (an occluder covering the gap, or the object
entering/leaving the scene at a trace edge), and verdict the event
Possible or Impossible.  When ground truth is attached, a contradicted
verdict becomes an Exception and is remembered; a contradiction whose
signature was already promoted to a rule is instead resolved in favor of
the ground truth.  Matching verdicts feed the class-statistics side of
the knowledge base.

Jump and shape-switch breaks are never explainable: no external factor
makes teleportation or shape shifting acceptable.

A wall hides a gap frame when its bbox, grown by OCCLUDER_INFLATION pixels
on every side, contains the object's predicted center: the coasted center
is an estimate, not an observation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence, Tuple, Union

from .body_budget import (
    DEFAULT_SC_MODE,
    SC_MODES,
    BodyBudgetScores,
    WeightConfig,
    focus_track,
    hypothesis_scores,
    score_track,
)
from .knowledge import (
    AmbiguousScoreError,
    DegenerateStatsError,
    ExceptionSignature,
    KnowledgeBase,
    ZNumber,
    raw_distances,
    z_number,
)
from .trace_model import (
    DEFAULT_SCENE,
    SCOREABLE_CLASSES,
    EventTrace,
    ObjectClass,
    SceneBounds,
    default_profiles,
    is_finite_number,
)
from .tracker import (
    Discontinuity,
    DiscontinuityKind,
    Track,
    TrackerParams,
    trace_discontinuities,
    track_event,
)


class Flag(Enum):
    POSSIBLE = "possible"
    IMPOSSIBLE = "impossible"
    EXCEPTION = "exception"


class EventError(Exception):
    """Event that cannot be reasoned about at all (as opposed to one that
    gets an Impossible verdict)."""

    def __init__(self, event_id: str, message: str):
        super().__init__(f"{event_id}: {message}")
        self.event_id = event_id
        self.message = message


# Pixels added to every side of a wall's bbox when testing a coasted center.
OCCLUDER_INFLATION = 5.0


@dataclass(frozen=True)
class CuriosityParams:
    """Everything classify_event needs besides the trace and the KB.

    impact_values holds the impact value of exactly the scoreable classes
    (sphere, cone, cube), each a finite number > 0.  It is checked and
    copied here, once, so scoring can index it by any scoreable class.
    """

    weights: WeightConfig = WeightConfig()
    tracker: TrackerParams = TrackerParams()
    occlusion_coverage_min: float = 0.7
    sc_mode: str = DEFAULT_SC_MODE
    impact_values: Mapping[ObjectClass, float] = field(default_factory=default_profiles)
    scene: SceneBounds = DEFAULT_SCENE

    def __post_init__(self):
        if not (0.0 < self.occlusion_coverage_min <= 1.0):
            raise ValueError(
                f"occlusion_coverage_min must be in (0, 1], got {self.occlusion_coverage_min}"
            )
        if self.sc_mode not in SC_MODES:
            raise ValueError(f"sc_mode must be one of {SC_MODES}, got {self.sc_mode!r}")
        object.__setattr__(self, "impact_values", _checked_impact_values(self.impact_values))


def _checked_impact_values(values: Mapping[ObjectClass, float]) -> dict[ObjectClass, float]:
    for cls in values:
        if not isinstance(cls, ObjectClass):
            raise ValueError(f"impact_values: key {cls!r} is not an ObjectClass")
        if cls not in SCOREABLE_CLASSES:
            raise ValueError(f"impact_values: class {cls.value!r} cannot carry an impact value")
    missing = [cls.value for cls in SCOREABLE_CLASSES if cls not in values]
    if missing:
        raise ValueError(f"impact_values: missing a value for {', '.join(missing)}")
    for cls in SCOREABLE_CLASSES:
        impact = values[cls]
        if not (is_finite_number(impact) and impact > 0):
            raise ValueError(f"impact_values.{cls.value} must be a finite number > 0, got {impact!r}")
    return {cls: float(values[cls]) for cls in SCOREABLE_CLASSES}


@dataclass(frozen=True)
class CuriosityContext:
    """Occluder evidence gathered for one detection gap."""

    countwall: int
    gap_frames: int
    coverage: float

    def __post_init__(self):
        if self.gap_frames < 0 or self.countwall < 0 or self.countwall > max(self.gap_frames, 0):
            raise ValueError("countwall must lie in [0, gap_frames]")
        expected = self.countwall / self.gap_frames if self.gap_frames else 0.0
        if abs(self.coverage - expected) > 1e-12:
            raise ValueError(f"coverage {self.coverage} != countwall/gap_frames {expected}")


EXPLAIN_OCCLUDER = "occluder"
EXPLAIN_SCENE_BOUNDS = "scene-bounds"
EXPLAIN_NONE = "none"


@dataclass(frozen=True)
class Explanation:
    discontinuity: Discontinuity
    explained: bool
    method: str
    context: CuriosityContext


@dataclass(frozen=True)
class TrackScore:
    track_id: int
    object_class: ObjectClass
    scores: BodyBudgetScores


@dataclass(frozen=True)
class EventVerdict:
    event_id: str
    flag: Flag
    reason: str
    explanations: Tuple[Explanation, ...]
    track_scores: Tuple[TrackScore, ...]
    focus_track_id: int
    occluder_present: bool
    z: Optional[ZNumber]
    raw_distances: Optional[Mapping[ObjectClass, float]]
    ground_truth_match: Optional[bool]
    exception_signature: Optional[ExceptionSignature] = None
    exception_occurrences: Optional[int] = None
    exception_promoted: Optional[bool] = None

    def __post_init__(self):
        if self.flag is Flag.EXCEPTION and self.ground_truth_match is not False:
            raise ValueError("an exception verdict requires a contradicted ground truth")


StreamResult = Union[EventVerdict, EventError]


# ---------------------------------------------------------------------------
# Explanation
# ---------------------------------------------------------------------------

def _gap_centers(track: Track, start: int, end: int) -> list[Tuple[float, float]]:
    """Predicted centers over gap frames [start, end].

    Frames the track covers use the filter's coasted predictions.  Frames
    before the track existed (a gap at the trace start) are extrapolated
    backward from the first two observations.
    """
    if start >= track.first_frame:
        return [track.predicted_center_at(f) for f in range(start, end + 1)]
    observed = [(frame, det.center) for frame, det in track.observed()]
    (t0, c0) = observed[0]
    if len(observed) >= 2:
        (t1, c1) = observed[1]
        vx = (c1[0] - c0[0]) / (t1 - t0)
        vy = (c1[1] - c0[1]) / (t1 - t0)
    else:
        vx, vy = 0.0, 0.0
    return [(c0[0] - vx * (t0 - f), c0[1] - vy * (t0 - f)) for f in range(start, end + 1)]


def _wall_contains(walls: Sequence[Track], frame: int, center: Tuple[float, float]) -> bool:
    inflation = OCCLUDER_INFLATION
    for wall in walls:
        det = wall.detection_at(frame) if wall.covers(frame) else None
        if det is None:
            continue
        x, y, w, h = det.bbox
        if (
            x - inflation <= center[0] <= x + w + inflation
            and y - inflation <= center[1] <= y + h + inflation
        ):
            return True
    return False


def explain_discontinuities(
    discontinuities: Sequence[Discontinuity],
    tracks: Sequence[Track],
    frame_count: int,
    params: CuriosityParams = CuriosityParams(),
) -> Tuple[Flag, list[Explanation]]:
    """Attempt to explain every continuity break; Possible iff all are.

    For a detection gap, coverage is the fraction of gap frames in which
    some wall's bbox (inflated a little, since the coasted center is an
    estimate) contains the object's predicted center; the gap is explained
    when coverage reaches the configured minimum.  Gaps touching the trace
    edge are first checked as scene entry/exit: explained when the
    predicted center falls outside the scene bounds during the gap.
    """
    walls = [t for t in tracks if t.is_occluder]
    by_id = {t.track_id: t for t in tracks}
    explanations: list[Explanation] = []

    for disc in discontinuities:
        if disc.kind in (DiscontinuityKind.JUMP, DiscontinuityKind.SHAPE_SWITCH):
            explanations.append(
                Explanation(disc, False, EXPLAIN_NONE, CuriosityContext(0, 0, 0.0))
            )
            continue

        track = by_id[disc.track_id]
        centers = _gap_centers(track, disc.start_frame, disc.end_frame)
        gap_frames = len(centers)
        countwall = sum(
            1
            for frame, center in zip(range(disc.start_frame, disc.end_frame + 1), centers)
            if _wall_contains(walls, frame, center)
        )
        coverage = countwall / gap_frames
        context = CuriosityContext(countwall, gap_frames, coverage)

        at_edge = (disc.kind is DiscontinuityKind.APPEAR and disc.start_frame == 0) or (
            disc.kind is DiscontinuityKind.VANISH and disc.end_frame == frame_count - 1
        )
        out_of_scene = any(not params.scene.contains(c) for c in centers)

        if at_edge and out_of_scene:
            explanations.append(Explanation(disc, True, EXPLAIN_SCENE_BOUNDS, context))
        elif coverage >= params.occlusion_coverage_min:
            explanations.append(Explanation(disc, True, EXPLAIN_OCCLUDER, context))
        else:
            explanations.append(Explanation(disc, False, EXPLAIN_NONE, context))

    flag = Flag.POSSIBLE if all(e.explained for e in explanations) else Flag.IMPOSSIBLE
    return flag, explanations


def _verdict_reason(flag: Flag, explanations: Sequence[Explanation]) -> str:
    if not explanations:
        return "no continuity breaks detected"
    if flag is Flag.POSSIBLE:
        parts = []
        for e in explanations:
            span = f"frames {e.discontinuity.start_frame}-{e.discontinuity.end_frame}"
            if e.method == EXPLAIN_OCCLUDER:
                parts.append(
                    f"{e.discontinuity.kind.value} over {span} covered by occluder "
                    f"({e.context.coverage:.0%})"
                )
            else:
                parts.append(f"{e.discontinuity.kind.value} over {span} at scene boundary")
        return "all continuity breaks explained: " + "; ".join(parts)
    unexplained = [e for e in explanations if not e.explained]
    parts = [
        f"{e.discontinuity.kind.value} at frames "
        f"{e.discontinuity.start_frame}-{e.discontinuity.end_frame}"
        + (f" ({e.discontinuity.detail})" if e.discontinuity.detail else "")
        for e in unexplained
    ]
    return "unexplained: " + "; ".join(parts)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _flag_word(possible: bool) -> str:
    return Flag.POSSIBLE.value if possible else Flag.IMPOSSIBLE.value


def classify_event(
    trace: EventTrace, kb: KnowledgeBase, params: CuriosityParams = CuriosityParams()
) -> EventVerdict:
    """Verdict one event, updating the knowledge base in place.

    KB effects: a verdict matching ground truth records the focus object's
    composite score under its class; a contradicted verdict records an
    exception (or, when its signature is already promoted, the verdict is
    overridden to the ground-truth label instead).  Without ground truth
    the KB is untouched.
    """
    tracks = track_event(trace, params.tracker)
    objects = [t for t in tracks if not t.is_occluder]
    if not objects:
        raise EventError(trace.event_id, "no non-wall objects detected; nothing to reason about")
    occluder_present = any(t.is_occluder for t in tracks)

    discontinuities = trace_discontinuities(tracks, trace.frame_count, params.tracker)
    flag, explanations = explain_discontinuities(
        discontinuities, tracks, trace.frame_count, params
    )
    reason = _verdict_reason(flag, explanations)

    focus = focus_track(tracks)
    assert focus is not None
    scores_by_class = hypothesis_scores(
        focus, trace.frame_count, params.impact_values, params.weights, params.sc_mode
    )
    focus_scores = scores_by_class[focus.resolved_class]
    track_scores = tuple(
        TrackScore(
            t.track_id,
            t.resolved_class,
            focus_scores if t is focus else score_track(
                t, trace.frame_count, params.impact_values[t.resolved_class],
                params.weights, params.sc_mode,
            ),
        )
        for t in objects
    )

    z: Optional[ZNumber] = None
    raw: Optional[dict[ObjectClass, float]] = None
    stats = kb.stats()
    if stats:
        a_map = {cls: s.a for cls, s in scores_by_class.items()}
        try:
            z = z_number(a_map, stats)
            raw = raw_distances(a_map, stats)
        except (AmbiguousScoreError, DegenerateStatsError):
            z = None
            raw = None

    ground_truth_match: Optional[bool] = None
    exception_signature = None
    exception_occurrences = None
    exception_promoted = None

    gt = trace.ground_truth
    if gt is not None:
        agent_possible = flag is Flag.POSSIBLE
        ground_truth_match = agent_possible == gt.possible
        if not ground_truth_match:
            signature = ExceptionSignature.build(
                sorted({d.kind.value for d in discontinuities}),
                occluder_present,
                _flag_word(agent_possible),
                _flag_word(gt.possible),
            )
            record = kb.exception_for(signature)
            if record is not None and record.promoted:
                flag = Flag.POSSIBLE if gt.possible else Flag.IMPOSSIBLE
                reason = (
                    f"verdict {_flag_word(agent_possible)} contradicts ground truth; "
                    f"overridden to {flag.value} by promoted rule "
                    f"(seen {record.occurrences} times)"
                )
                ground_truth_match = True
            else:
                record = kb.record_exception(signature)
                flag = Flag.EXCEPTION
                reason = (
                    f"verdict {_flag_word(agent_possible)} contradicts ground truth "
                    f"{_flag_word(gt.possible)}; exception recorded "
                    f"(occurrence {record.occurrences} of {kb.promotion_threshold} for promotion)"
                )
            exception_signature = signature
            exception_occurrences = record.occurrences
            exception_promoted = record.promoted
        if ground_truth_match and focus.resolved_class in gt.object_classes:
            kb.update_stats(focus.resolved_class, focus_scores.a)

    return EventVerdict(
        event_id=trace.event_id,
        flag=flag,
        reason=reason,
        explanations=tuple(explanations),
        track_scores=track_scores,
        focus_track_id=focus.track_id,
        occluder_present=occluder_present,
        z=z,
        raw_distances=raw,
        ground_truth_match=ground_truth_match,
        exception_signature=exception_signature,
        exception_occurrences=exception_occurrences,
        exception_promoted=exception_promoted,
    )


def process_stream(
    traces: Sequence[EventTrace],
    kb: KnowledgeBase,
    params: CuriosityParams = CuriosityParams(),
) -> list[StreamResult]:
    """Classify events in order, threading the KB through; an event that
    errors fills its slot with the error and the stream continues."""
    results: list[StreamResult] = []
    for trace in traces:
        try:
            results.append(classify_event(trace, kb, params))
        except EventError as exc:
            results.append(exc)
    return results


# ---------------------------------------------------------------------------
# Verdict reports (line-delimited, like traces)
# ---------------------------------------------------------------------------

def _explanation_to_json(e: Explanation) -> dict:
    return {
        "kind": e.discontinuity.kind.value,
        "track_id": e.discontinuity.track_id,
        "start_frame": e.discontinuity.start_frame,
        "end_frame": e.discontinuity.end_frame,
        "detail": e.discontinuity.detail,
        "explained": e.explained,
        "method": e.method,
        "countwall": e.context.countwall,
        "gap_frames": e.context.gap_frames,
        "coverage": e.context.coverage,
    }


def verdict_to_json(result: StreamResult) -> dict:
    if isinstance(result, EventError):
        return {"event_id": result.event_id, "error": result.message}
    doc = {
        "event_id": result.event_id,
        "flag": result.flag.value,
        "reason": result.reason,
        "explanations": [_explanation_to_json(e) for e in result.explanations],
        "track_scores": [
            {
                "track_id": ts.track_id,
                "class": ts.object_class.value,
                "s_op": ts.scores.s_op,
                "s_sc": ts.scores.s_sc,
                "s_stc": ts.scores.s_stc,
                "a": ts.scores.a,
            }
            for ts in result.track_scores
        ],
        "focus_track_id": result.focus_track_id,
        "occluder_present": result.occluder_present,
        "z_number": None,
        "raw_distances": None,
        "ground_truth_match": result.ground_truth_match,
        "exception": None,
    }
    if result.z is not None:
        doc["z_number"] = {
            "x": result.z.x.value,
            "a": result.z.a,
            "b": {cls.value: val for cls, val in result.z.b.items()},
        }
    if result.raw_distances is not None:
        doc["raw_distances"] = {cls.value: val for cls, val in result.raw_distances.items()}
    if result.exception_signature is not None:
        doc["exception"] = {
            "violation_kinds": list(result.exception_signature.violation_kinds),
            "occluder_present": result.exception_signature.occluder_present,
            "verdict_agent": result.exception_signature.verdict_agent,
            "verdict_ground_truth": result.exception_signature.verdict_ground_truth,
            "occurrences": result.exception_occurrences,
            "promoted": result.exception_promoted,
        }
    return doc


def encode_verdicts(results: Sequence[StreamResult]) -> str:
    return "".join(json.dumps(verdict_to_json(r), sort_keys=True) + "\n" for r in results)
