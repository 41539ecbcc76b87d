"""Frame-to-frame tracking of detections with a constant-velocity filter.

One Track per physical object (or wall).  Objects and walls are associated
in separate pools so a box sliding behind a wall is never matched to the
wall's detection.  During detection gaps a track coasts: the filter keeps
predicting without measurement updates, which is what lets a track survive
occlusion and what gives the curiosity layer a predicted center to test
against occluder geometry.  The filter is a closed-form per-axis Kalman
filter: with isotropic noise both axes share one 2x2 covariance exactly.

With fixed P0, Q and R the covariance and the gains depend only on the
order of predicts and updates, never on the measurements (Kalman 1960).
So covariance states are shared: each TrackerParams interns the states its
filters reach by their exact floats, checks each once when it is first
reached, and links it to its successors, so a step taken before costs a
read.  Tracks with one history share one state, and an observed track
settles on a fixed point (after 30 steps with the defaults).  The table
holds at most SHARED_STATES states; past that a new state is computed and
checked on every reach.

gap_centers, the one gap model, says where an object was in a frame
without a detection; the curiosity layer reads gap positions only there.

Association is greedy nearest-neighbor over predicted centers and is
independent of detection order within a frame.  The in-gate pairs are
found first, by sweep and prune (the broad phase of I-COLLIDE, Cohen et
al. 1995): a pool's detections are sorted once by center x, and each track
tests the exact distance gate only against the detections in an x window
twice the gate wide on each side, found by bisection.  Sorting allocates
nothing per cell, so unlike a grid it already pays at twenty objects per
frame.  A non-finite center or prediction has no candidates.

Greedy needs an order only where pairs compete.  A pool is uncontested
when no track and no detection is in two in-gate pairs; greedy then takes
every pair whatever the order, so each pair is observed as found.  Only a
contested pool sorts its pairs, by (distance, class mismatch, track id,
detection content: bbox, class, confidence, descriptor), before
assignment.  Either way the unmatched detections are born in content
order, which is total for the NaN-free values the parser and
validate_trace admit; a box holding a NaN (only in a trace built in code)
is born after all of them.  A pool with no track has no pair, so its
detections are born without association.

A frame pays for what it holds.  A frame of at most one object detection
and at most one wall detection, facing at most one track per pool, is
never split into pools: each pool with a track takes the single-pair rule,
written once in _match_one, and a detection with no track is born.  One
track facing one detection has one candidate pair at most, so no order can
change its outcome, and the pair is matched exactly when it passes the
gate (a class mismatch included); a track with no detection coasts.  That
covers every frame of a lone object, with or without a wall: its birth,
its gaps and every frame after.  Any other frame is split into pools for
_step_pool.

Track.velocities is not stored per frame: it replays a fresh filter over
the track's detections, through the same shared states, which gives the
live filter's floats.

A shape switch needs SHAPE_SWITCH_MIN_RUN consecutive observations of a
new class, so a single misclassified frame is not a break.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Iterator, Optional, Sequence, Tuple

from .trace_model import CLASS_ORDER, Detection, EventTrace, ObjectClass, class_order_index

# Tolerance for the covariance positive semi-definiteness contract.
COVARIANCE_TOL = 1e-9

# Consecutive observations of a new class that make a shape switch.
SHAPE_SWITCH_MIN_RUN = 3

# Filter covariance states kept per TrackerParams: about 0.63 MB, at the
# 307 B a state tracemalloc reads on 64-bit CPython 3.11.  Past it a new
# state is built and checked but neither stored nor linked.
SHARED_STATES = 2048


class CovarianceError(RuntimeError):
    """Filter covariance lost positive semi-definiteness."""


@dataclass(frozen=True)
class TrackerParams:
    """Tuning knobs for association and the per-track filter.

    assoc_gate: max center distance (px) for matching a detection to a track.
    jump_gate: innovation norm (px) above which a matched detection counts
        as a positional discontinuity rather than ordinary noise.
    """

    assoc_gate: float = 50.0
    jump_gate: float = 25.0
    process_noise: float = 1.0
    measurement_noise: float = 2.0
    initial_variance: float = 100.0

    def __post_init__(self):
        for name in ("assoc_gate", "jump_gate", "process_noise", "measurement_noise", "initial_variance"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @cached_property
    def _covariances(self) -> _CovarianceTable:
        """The filter covariance states these parameters reach, shared by
        every filter built with them."""
        return _CovarianceTable(self)


def _check_covariance(a: float, b: float, d: float) -> None:
    """Raise unless [[a, b], [b, d]] is PSD within tolerance; NaN fails."""
    if not (a >= -COVARIANCE_TOL and d >= -COVARIANCE_TOL and a * d - b * b >= -COVARIANCE_TOL):
        raise CovarianceError(
            f"covariance [[{a:.3e}, {b:.3e}], [{b:.3e}, {d:.3e}]] is not positive "
            f"semi-definite (tolerance {COVARIANCE_TOL})"
        )


class _Covariance:
    """One filter covariance [[a, b], [b, d]], shared by every filter that
    reaches it and never changed.  predicted links the state after a
    predict and updated the gains and state after an update, each filled
    on first use and only with a state the table keeps."""

    __slots__ = ("a", "b", "d", "table", "predicted", "updated")

    def __init__(self, a: float, b: float, d: float, table: _CovarianceTable):
        _check_covariance(a, b, d)
        self.a, self.b, self.d = a, b, d
        self.table = table
        self.predicted: Optional[_Covariance] = None
        self.updated: Optional[Tuple[float, float, _Covariance]] = None

    def predict(self) -> _Covariance:
        """The state after a predict."""
        a, b, d = self.a, self.b, self.d
        q = self.table.q
        state, kept = self.table.intern(a + 2.0 * b + d + q, b + d, d + q)
        if kept:
            self.predicted = state
        return state

    def update(self) -> Tuple[float, float, _Covariance]:
        """The position and velocity gains and the state after an update."""
        a, b, r = self.a, self.b, self.table.r
        s = a + r
        kp, kv = a / s, b / s
        # Standard form (I - KH)P; with the optimal gain it equals the
        # Joseph form and stays PSD: a' = r*a/s and det' = (r/s)*det.
        state, kept = self.table.intern(r * kp, r * kv, self.d - b * kv)
        step = (kp, kv, state)
        if kept:
            self.updated = step
        return step


class _CovarianceTable:
    """The covariance states one TrackerParams reaches, interned by their
    exact (a, b, d), so histories that reach equal floats share a state
    and a fixed point closes into a loop.  Holds at most SHARED_STATES."""

    __slots__ = ("q", "r", "states", "initial")

    def __init__(self, params: TrackerParams):
        self.q = params.process_noise
        self.r = params.measurement_noise
        self.states: dict[Tuple[float, float, float], _Covariance] = {}
        p0 = params.initial_variance
        self.initial = self.intern(p0, 0.0, p0)[0]

    def intern(self, a: float, b: float, d: float) -> Tuple[_Covariance, bool]:
        """The state (a, b, d) and whether the table holds it.  A state
        that fails the check raises and is never stored, so every filter
        that reaches it raises at the same step."""
        key = (a, b, d)
        state = self.states.get(key)
        if state is not None:
            return state, True
        state = _Covariance(a, b, d, self)
        if len(self.states) >= SHARED_STATES:
            return state, False
        self.states[key] = state
        return state, True


class PointFilter:
    """Kalman filter over [x, y, vx, vy] with position measurements.

    Exact in closed form per axis: the transition acts per axis, only
    position is measured, and P0, Q and R are scalars times the identity,
    so x and y never correlate and both axes share one (position,
    velocity) covariance [[a, b], [b, d]].

    The covariance is a shared, immutable state from the params' table
    of at most SHARED_STATES, checked once when first reached; a step
    taken before reads the state's linked successor.  a, b and d read
    the state.

    Born from a single detection: position from the detection center,
    velocity zero, diagonal covariance.  No measurement update is applied
    at birth; the first update happens on the next matched frame.
    """

    def __init__(self, center: Tuple[float, float], params: TrackerParams):
        self.x, self.y = center
        self.vx = self.vy = 0.0
        self.covariance = params._covariances.initial

    def predict(self) -> Tuple[float, float]:
        self.x += self.vx
        self.y += self.vy
        cov = self.covariance
        self.covariance = cov.predicted or cov.predict()
        return (self.x, self.y)

    def update(self, z: Tuple[float, float]) -> float:
        """Fold in a position measurement; returns the innovation norm (px)."""
        ix = z[0] - self.x
        iy = z[1] - self.y
        cov = self.covariance
        kp, kv, self.covariance = cov.updated or cov.update()
        self.x += kp * ix
        self.y += kp * iy
        self.vx += kv * ix
        self.vy += kv * iy
        return math.hypot(ix, iy)

    @property
    def velocity(self) -> Tuple[float, float]:
        return (self.vx, self.vy)

    @property
    def a(self) -> float:
        return self.covariance.a

    @property
    def b(self) -> float:
        return self.covariance.b

    @property
    def d(self) -> float:
        return self.covariance.d


class Track:
    """State history of one tracked object across a trace.

    Per-frame lists are aligned and indexed by (frame - first_frame); they
    always extend to the final frame of the trace.  A frame's detection and
    residual are None exactly where the track coasted.  The classes are
    kept once, as runs: _class_runs holds [class, first frame, observations]
    for each maximal run of observations of one class, and a gap does not
    end a run.  last_class, detected_frames and resolved_class are read off
    the runs; a track has one or two in practice.
    """

    def __init__(self, track_id: int, first_frame: int, det: Detection, params: TrackerParams):
        self.track_id = track_id
        self.first_frame = first_frame
        self.is_occluder = det.object_class is ObjectClass.WALL
        center = det.center
        self.params = params
        self.filter = PointFilter(center, params)
        self.detections: list[Optional[Detection]] = [det]
        # at birth the prediction is the detection itself
        self.centers_predicted: list[Tuple[float, float]] = [center]
        self.residuals: list[Optional[float]] = [0.0]
        self._class_runs: list[list] = [[det.object_class, first_frame, 1]]

    def observe(
        self, det: Detection, predicted: Tuple[float, float], center: Tuple[float, float]
    ) -> None:
        """Fold in det, whose center the caller has already computed."""
        residual = self.filter.update(center)
        cls = det.object_class
        run = self._class_runs[-1]
        if run[0] is cls:
            run[2] += 1
        else:
            self._class_runs.append([cls, self.first_frame + len(self.detections), 1])
        self.detections.append(det)
        self.centers_predicted.append(predicted)
        self.residuals.append(residual)

    def coast(self, predicted: Tuple[float, float]) -> None:
        self.detections.append(None)
        self.centers_predicted.append(predicted)
        self.residuals.append(None)

    @property
    def velocities(self) -> list[Tuple[float, float]]:
        """The filter's velocity after each frame, replayed by a fresh
        filter over the detections: the same steps on the same numbers give
        the same floats, so nothing is stored per frame for it."""
        replay = PointFilter(self.detections[0].center, self.params)
        out = [replay.velocity]
        for det in self.detections[1:]:
            replay.predict()
            if det is not None:
                replay.update(det.center)
            out.append(replay.velocity)
        return out

    def observed(self) -> Iterator[Tuple[int, Detection]]:
        """(frame, detection) for every frame the track was detected in."""
        for i, det in enumerate(self.detections):
            if det is not None:
                yield (self.first_frame + i, det)

    # -- aggregates -----------------------------------------------------------

    @property
    def last_class(self) -> ObjectClass:
        """The class of the latest observed detection."""
        return self._class_runs[-1][0]

    @property
    def detected_frames(self) -> int:
        return sum(run[2] for run in self._class_runs)

    @property
    def resolved_class(self) -> ObjectClass:
        """Majority class over observed frames; ties go to the smaller class
        in canonical order, so an exact half-way switch resolves to the
        class the object started as."""
        counts = [0] * len(CLASS_ORDER)
        for cls, _, observations in self._class_runs:
            counts[class_order_index(cls)] += observations
        return CLASS_ORDER[counts.index(max(counts))]

    def __repr__(self) -> str:
        return (
            f"Track(id={self.track_id}, class={self.last_class.value}, "
            f"frames=[{self.first_frame}..{self.first_frame + len(self.detections) - 1}], "
            f"detected={self.detected_frames})"
        )


def _det_key(det: Detection) -> tuple:
    """Content-based ordering key; makes association independent of the
    order detections happen to be listed in a frame.  A NaN compares with
    nothing, so a box holding one is flagged to sort after every other."""
    x, y, w, h = bbox = det.bbox
    nan = x != x or y != y or w != w or h != h
    return (nan, bbox, class_order_index(det.object_class), det.confidence, det.shape_descriptor)


def _match_one(track: Track, det: Optional[Detection], gate: float) -> Optional[Detection]:
    """The single-pair rule, for a pool of one track facing at most one
    detection: one pair at most, and the greedy order has nothing to rank it
    against, so the pair is matched exactly when it passes the gate, whatever
    the classes.  A track with no detection, or one the gate turns away,
    coasts; returns the detection left to be born, if any."""
    predicted = px, py = track.filter.predict()
    if det is not None:
        center = cx, cy = det.center
        if math.hypot(px - cx, py - cy) <= gate:
            track.observe(det, predicted, center)
            return None
    track.coast(predicted)
    return det


def _step_pool(
    pool: list[Track],
    dets: Sequence[Detection],
    params: TrackerParams,
) -> list[Detection]:
    """Advance one association pool (objects or walls) by a single frame;
    returns the detections that matched no track and should start new ones.

    The in-gate pairs are found first, each naming its detection by its
    position in the frame; a pool with no track has none, so every
    detection is born.  When no track and no detection is in two pairs the
    pool is uncontested: greedy takes every pair, so they are all observed
    and only the births are sorted.  A contested pool sorts its pairs by
    (distance, class mismatch, track id, detection content) and runs greedy
    over them.
    """
    gate = params.assoc_gate
    predictions = [t.filter.predict() for t in pool]
    centers = [det.center for det in dets]
    candidates = []
    for dj, (cx, cy) in enumerate(centers):
        if cx == cx:  # a NaN x passes no gate and does not sort
            candidates.append((cx, cy, dj))
    candidates.sort(key=itemgetter(0))
    xs = [c[0] for c in candidates]
    # Sweep and prune: a track tests only the candidates whose x lies in
    # [px - reach, px + reach].  A pair within the gate has
    # |fl(px - cx)| <= hypot(...) <= gate, so the exact |px - cx| exceeds
    # the gate by at most half an ulp, and px - 2 * gate lies almost a gate
    # below cx (px + 2 * gate above it).  Rounding is monotone and cx is a
    # float, so the rounded bounds still hold cx.  reach = gate is not
    # enough: px 5.5, cx -27.8 and gate 33.3 pass the gate, yet
    # 5.5 - 33.3 rounds to -27.799999999999997.
    reach = 2.0 * gate

    # A detection or a track met in a second in-gate pair makes the pool
    # contested; until then every paired detection is a taken one.
    pairs = []
    det_taken = [False] * len(dets)
    contested = False
    hypot = math.hypot
    for ti, (px, py) in enumerate(predictions):
        found = len(pairs)
        for cx, cy, dj in candidates[bisect_left(xs, px - reach) : bisect_right(xs, px + reach)]:
            dist = hypot(px - cx, py - cy)
            if dist <= gate:  # NaN is never a candidate
                if det_taken[dj] or len(pairs) > found:
                    contested = True
                det_taken[dj] = True
                pairs.append((dist, ti, dj))

    if contested:
        # equal content is interchangeable, so dj only fixes which copy is
        # observed; (track id, dj) is unique and the sort never compares ti
        keyed = []
        for dist, ti, dj in pairs:
            track = pool[ti]
            det = dets[dj]
            mismatch = 0 if det.object_class is track.last_class else 1
            keyed.append((dist, mismatch, track.track_id, _det_key(det), dj, ti))
        keyed.sort()
        # greedy keeps the pairs whose track and detection are both free
        pairs = []
        det_taken = [False] * len(dets)
        track_taken = [False] * len(pool)
        for dist, _, _, _, dj, ti in keyed:
            if not (track_taken[ti] or det_taken[dj]):
                track_taken[ti] = det_taken[dj] = True
                pairs.append((dist, ti, dj))

    observed = [False] * len(pool)
    for _, ti, dj in pairs:
        observed[ti] = True
        pool[ti].observe(dets[dj], predictions[ti], centers[dj])
    for ti, track in enumerate(pool):
        if not observed[ti]:
            track.coast(predictions[ti])

    # unmatched detections start tracks in content order
    births = [det for det, taken in zip(dets, det_taken) if not taken]
    births.sort(key=_det_key)
    return births


def track_event(trace: EventTrace, params: TrackerParams = TrackerParams()) -> list[Track]:
    """Track every detection in the trace; returns tracks in id order.

    The trace is assumed valid; feed parser or generator output.  A frame
    of at most one detection per pool, facing at most one track per pool,
    takes the single-pair rule pool by pool; any other is split into pools
    for _step_pool.  Object births come before wall births either way.
    """
    tracks: list[Track] = []
    objects: list[Track] = []
    walls: list[Track] = []
    gate = params.assoc_gate
    wall = ObjectClass.WALL

    def born(det: Detection, pool: list[Track], frame_index: int) -> None:
        track = Track(len(tracks), frame_index, det, params)
        tracks.append(track)
        pool.append(track)

    for frame_index, detections in enumerate(trace.frames):
        if len(objects) < 2 and len(walls) < 2:
            # at most one detection per pool takes the single-pair rule
            obj_det = wall_det = None
            for det in detections:
                if det.object_class is wall:
                    if wall_det is not None:
                        break
                    wall_det = det
                elif obj_det is None:
                    obj_det = det
                else:
                    break
            else:
                if objects:
                    obj_det = _match_one(objects[0], obj_det, gate)
                if obj_det is not None:
                    born(obj_det, objects, frame_index)
                if walls:
                    wall_det = _match_one(walls[0], wall_det, gate)
                if wall_det is not None:
                    born(wall_det, walls, frame_index)
                continue
        obj_dets: list[Detection] = []
        wall_dets: list[Detection] = []
        for det in detections:
            (wall_dets if det.object_class is wall else obj_dets).append(det)
        for pool, dets in ((objects, obj_dets), (walls, wall_dets)):
            for det in _step_pool(pool, dets, params):
                born(det, pool, frame_index)
    return tracks


# ---------------------------------------------------------------------------
# Discontinuities
# ---------------------------------------------------------------------------

class DiscontinuityKind(Enum):
    """Break kinds, declared in the order breaks over one span sort in."""

    VANISH = "vanish"
    APPEAR = "appear"
    JUMP = "jump"
    SHAPE_SWITCH = "shape-switch"


_KIND_ORDER = {kind: i for i, kind in enumerate(DiscontinuityKind)}


@dataclass(frozen=True)
class Discontinuity:
    """One break in a track's continuity over frames [start_frame, end_frame]."""

    kind: DiscontinuityKind
    track_id: int
    start_frame: int
    end_frame: int
    detail: str = ""

    def __post_init__(self):
        if self.end_frame < self.start_frame:
            raise ValueError("end_frame must be >= start_frame")


def track_discontinuities(
    track: Track, frame_count: int, params: TrackerParams = TrackerParams()
) -> list[Discontinuity]:
    """Extract continuity breaks from one track.

    A detection gap sandwiched between observations yields both a vanish
    and an appear over the same span; a gap at the start of the trace only
    an appear, a gap running to the end only a vanish.  Walls are scenery:
    they get no discontinuities.

    One pass over the residuals finds both gaps and jumps: a residual is
    None exactly where the track coasted, and the birth residual 0.0 never
    passes the positive jump gate.  Shape switches come from the class
    runs, of which a one-class track has no second.
    """
    if track.is_occluder:
        return []
    out: list[Discontinuity] = []
    tid = track.track_id
    first = track.first_frame

    if first > 0:
        out.append(
            Discontinuity(
                DiscontinuityKind.APPEAR, tid, 0, first - 1, f"first detected at frame {first}"
            )
        )

    jump_gate = params.jump_gate
    gap_start: Optional[int] = None
    for frame, residual in enumerate(track.residuals, first):
        if residual is None:
            if gap_start is None:
                gap_start = frame
            continue
        if gap_start is not None:
            out.append(Discontinuity(DiscontinuityKind.VANISH, tid, gap_start, frame - 1))
            out.append(Discontinuity(DiscontinuityKind.APPEAR, tid, gap_start, frame - 1))
            gap_start = None
        # positional jump: a matched detection far from the coasting prediction
        if residual > jump_gate:
            out.append(
                Discontinuity(
                    DiscontinuityKind.JUMP, tid, frame, frame, f"residual {residual:.1f}px"
                )
            )
    if gap_start is not None:
        out.append(Discontinuity(DiscontinuityKind.VANISH, tid, gap_start, frame_count - 1))

    # class switches: a sustained run of a different class than established
    runs = track._class_runs
    established = runs[0][0]
    for cls, start, observations in runs[1:]:
        if cls is not established and observations >= SHAPE_SWITCH_MIN_RUN:
            out.append(
                Discontinuity(
                    DiscontinuityKind.SHAPE_SWITCH,
                    tid,
                    start,
                    start,
                    f"{established.value} -> {cls.value}",
                )
            )
            established = cls

    out.sort(key=lambda d: (d.start_frame, d.end_frame, _KIND_ORDER[d.kind]))
    return out


def gap_centers(track: Track, start: int, end: int) -> list[Tuple[float, float]]:
    """Where the track's object was in gap frames [start, end]: the filter's
    coasted predictions where the track exists, and before its birth a
    backward extrapolation from its first two observations (held at its
    only one).  A gap never starts on the birth frame, so >= and > agree."""
    first = track.first_frame
    if start >= first:
        return track.centers_predicted[start - first : end - first + 1]
    dets = track.detections
    x0, y0 = dets[0].center
    vx = vy = 0.0
    for i in range(1, len(dets)):
        det = dets[i]
        if det is not None:
            x1, y1 = det.center
            vx, vy = (x1 - x0) / i, (y1 - y0) / i
            break
    return [(x0 - vx * (first - f), y0 - vy * (first - f)) for f in range(start, end + 1)]


def trace_discontinuities(
    tracks: Sequence[Track], frame_count: int, params: TrackerParams = TrackerParams()
) -> list[Discontinuity]:
    out: list[Discontinuity] = []
    for track in tracks:
        out.extend(track_discontinuities(track, frame_count, params))
    out.sort(key=lambda d: (d.start_frame, d.end_frame, _KIND_ORDER[d.kind], d.track_id))
    return out

