"""Body-budget scores for tracked objects.

Three per-track scores, each reflecting one solid-body property:

  object permanence    accumulated confident detections, weighted by a
                       class-specific impact value and scaled by 1/1000
  shape constancy      stability of the shape descriptor across frames
  spatial-temporal     fraction of event frames with a detection

and their weighted sum, the composite score.  The composite is the
object's signature: per-class running means of it drive classification of
unknown objects (see knowledge module).

All functions are pure.  Walls are scenery, not objects, and are rejected
everywhere here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .trace_model import SCOREABLE_CLASSES, ObjectClass
from .tracker import Track

# Fixed divisor anchoring the per-class score bands (impact 10 / 100 / 1000);
# deliberately not configurable.
IMPACT_SCALE = 1000.0

SC_MODES = ("descriptor", "confidence")
DEFAULT_SC_MODE = SC_MODES[0]


@dataclass(frozen=True)
class WeightConfig:
    """Weights for the composite score."""

    alpha: float = 0.33
    beta: float = 0.33
    gamma: float = 0.33

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class BodyBudgetScores:
    """Score bundle for one track; carries its weights so the composite is
    re-checkable from the stored parts."""

    s_op: float
    s_sc: float
    s_stc: float
    a: float
    weights: WeightConfig = WeightConfig()

    def __post_init__(self):
        if self.s_op < 0:
            raise ValueError(f"s_op must be >= 0, got {self.s_op}")
        for name in ("s_sc", "s_stc"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        expected = composite_score(self.s_op, self.s_sc, self.s_stc, self.weights)
        if abs(self.a - expected) > 1e-9:
            raise ValueError(f"composite {self.a} inconsistent with parts (expected {expected})")


def _reject_occluder(track: Track) -> None:
    if track.is_occluder:
        raise ValueError(f"track {track.track_id} is a wall; occluders are not scored")


def _confidence_total(track: Track) -> float:
    return sum(det.confidence for det in track.detections if det is not None)


def _object_permanence(total: float, impact: float) -> float:
    return total * impact / IMPACT_SCALE


def score_object_permanence(track: Track, impact: float) -> float:
    """Sum of (confidence x impact value) over detected frames, / 1000.

    The impact value is the class hypothesis's, so the same track can be
    scored under different class hypotheses.
    """
    _reject_occluder(track)
    return _object_permanence(_confidence_total(track), impact)


def score_spatial_temporal(track: Track, n: int) -> float:
    """Fraction of the event's n frames in which the track was detected."""
    _reject_occluder(track)
    if n < 1:
        raise ValueError(f"frame count must be >= 1, got {n}")
    detected = track.detected_frames
    if detected > n:
        raise ValueError(f"track detected in {detected} frames of a {n}-frame event")
    return detected / n


def _norm(v: Sequence[float]) -> float:
    return math.sqrt(sum(x * x for x in v))


def _normalized_distance(
    a: Sequence[float], b: Sequence[float], norm_a: float, norm_b: float
) -> float:
    if len(a) != len(b):
        raise ValueError(f"descriptor dimensions differ: {len(a)} vs {len(b)}")
    denom = norm_a + norm_b
    if denom == 0.0:
        return 0.0
    try:
        squares = sum((x - y) ** 2 for x, y in zip(a, b))
    except OverflowError:  # ** raises where * gives inf
        squares = math.inf
    if squares == math.inf or denom == math.inf:
        return _scaled_distance(a, b)
    return math.sqrt(squares) / denom


def _scaled_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """The normalized distance of descriptors whose squares overflow.

    math.dist and math.hypot scale internally; scaling every entry by the
    same power of two first is exact and keeps even norms of entries near
    the float limit finite.
    """
    scale = math.ldexp(1.0, -math.frexp(max(map(abs, (*a, *b))))[1])
    a = [x * scale for x in a]
    b = [y * scale for y in b]
    return math.dist(a, b) / (math.hypot(*a) + math.hypot(*b))


def normalized_euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """||a - b|| / (||a|| + ||b||), in [0, 1] by the triangle inequality.

    Two zero vectors are identical, distance 0.
    """
    return _normalized_distance(a, b, _norm(a), _norm(b))


def score_shape_constancy(track: Track, mode: str = DEFAULT_SC_MODE) -> float:
    """How constant the object's shape stayed, in [0, 1].

    descriptor mode: 1 minus the mean normalized Euclidean distance between
    shape descriptors of consecutive detected frames.  confidence mode:
    mean detection confidence, for comparability with detector-score-based
    reporting.  A single-detection track scores its one confidence either way.

    A descriptor equal to the previous one with a finite norm scores
    distance 0 without being recomputed, which is exactly what the distance
    gives for equal finite vectors; a NaN entry or a norm that overflows
    takes the full computation.
    """
    _reject_occluder(track)
    if mode not in SC_MODES:
        raise ValueError(f"unknown shape-constancy mode {mode!r}; expected one of {SC_MODES}")
    dets = [det for det in track.detections if det is not None]
    if not dets:
        raise ValueError(f"track {track.track_id} has no detections to score")
    if mode == "confidence":
        return min(1.0, max(0.0, sum(d.confidence for d in dets) / len(dets)))
    if len(dets) == 1:
        return dets[0].confidence
    # each descriptor's norm is computed once and shared by its two pairs
    prev = dets[0].shape_descriptor
    prev_norm = _norm(prev)
    distances = []
    for det in dets[1:]:
        cur = det.shape_descriptor
        if cur == prev and prev_norm < math.inf:
            distances.append(0.0)
            continue
        cur_norm = _norm(cur)
        distances.append(_normalized_distance(prev, cur, prev_norm, cur_norm))
        prev, prev_norm = cur, cur_norm
    return min(1.0, max(0.0, 1.0 - sum(distances) / len(distances)))


def composite_score(s_op: float, s_sc: float, s_stc: float, w: WeightConfig) -> float:
    return w.alpha * s_op + w.beta * s_sc + w.gamma * s_stc


def _bundle(s_op: float, s_sc: float, s_stc: float, weights: WeightConfig) -> BodyBudgetScores:
    return BodyBudgetScores(s_op, s_sc, s_stc, composite_score(s_op, s_sc, s_stc, weights), weights)


def score_track(
    track: Track,
    n: int,
    impact: float,
    weights: WeightConfig = WeightConfig(),
    sc_mode: str = DEFAULT_SC_MODE,
) -> BodyBudgetScores:
    """All body-budget scores of one track under one class's impact value."""
    return _bundle(
        score_object_permanence(track, impact),
        score_shape_constancy(track, sc_mode),
        score_spatial_temporal(track, n),
        weights,
    )


def hypothesis_scores(
    track: Track,
    n: int,
    impact_values: Mapping[ObjectClass, float],
    weights: WeightConfig = WeightConfig(),
    sc_mode: str = DEFAULT_SC_MODE,
) -> dict[ObjectClass, BodyBudgetScores]:
    """Score one track under every class hypothesis.

    Only the object-permanence term depends on the hypothesis (through the
    impact value); shape constancy and spatial-temporal continuity are
    intrinsic to the track.  This is how an unknown object gets a composite
    score per candidate class for Z-number inference.  impact_values holds
    one value per scoreable class, as CuriosityParams checks.
    """
    s_sc = score_shape_constancy(track, sc_mode)
    s_stc = score_spatial_temporal(track, n)
    total = _confidence_total(track)
    return {
        cls: _bundle(_object_permanence(total, impact_values[cls]), s_sc, s_stc, weights)
        for cls in SCOREABLE_CLASSES
    }


def focus_track(tracks: Sequence[Track]) -> Optional[Track]:
    """The non-wall track with the most detections (ties: lowest id); the
    event's verdict and knowledge-base update hang off this track."""
    candidates = [t for t in tracks if not t.is_occluder]
    if not candidates:
        return None
    return max(candidates, key=lambda t: (t.detected_frames, -t.track_id))
