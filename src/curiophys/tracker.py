"""Frame-to-frame tracking of detections with a constant-velocity filter.

One Track per physical object (or wall).  Objects and walls are associated
in separate pools so a box sliding behind a wall is never matched to the
wall's detection.  During detection gaps a track coasts: the filter keeps
predicting without measurement updates, which is what lets a track survive
occlusion and what gives the curiosity layer a predicted center to test
against occluder geometry.  The filter is a closed-form per-axis Kalman
filter: with isotropic noise both axes share one 2x2 covariance exactly.

Association is greedy nearest-neighbor over predicted centers and is
independent of detection order within a frame.  A frame's detections are
ranked by content (bbox, class, confidence, descriptor); candidate pairs
are sorted globally by (distance, class mismatch, track id, detection rank)
before assignment, and new tracks are born in rank order.  Ties between
detections are thus broken by canonical rank, which orders exactly as
their content does for the totally ordered (NaN-free) values the parser
and validate_trace admit.  Candidate pairs are found by sweep and prune
(the broad phase of I-COLLIDE, Cohen et al. 1995): a pool's detections
are sorted once by center x, and each track tests the exact distance gate
only against the detections in an x window twice the gate wide on each
side, found by bisection.  Sorting allocates nothing per cell, so unlike
a grid it already pays at twenty objects per frame; a pool with a single
detection skips the sort.  A non-finite center or prediction has no
candidates.

A shape switch needs SHAPE_SWITCH_MIN_RUN consecutive observations of a
new class, so a single misclassified frame is not a break.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import IO, Iterator, Optional, Sequence, Tuple

from .trace_model import CLASS_ORDER, Detection, EventTrace, ObjectClass, class_order_index

# Tolerance for the covariance positive semi-definiteness contract.
COVARIANCE_TOL = 1e-9

# Consecutive observations of a new class that make a shape switch.
SHAPE_SWITCH_MIN_RUN = 3


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


def _check_covariance(a: float, b: float, d: float) -> None:
    """Raise unless [[a, b], [b, d]] is PSD within tolerance; NaN fails."""
    if not (a >= -COVARIANCE_TOL and d >= -COVARIANCE_TOL and a * d - b * b >= -COVARIANCE_TOL):
        raise CovarianceError(
            f"covariance [[{a:.3e}, {b:.3e}], [{b:.3e}, {d:.3e}]] is not positive "
            f"semi-definite (tolerance {COVARIANCE_TOL})"
        )


class PointFilter:
    """Kalman filter over [x, y, vx, vy] with position measurements.

    Exact in closed form per axis: the transition acts per axis, only
    position is measured, and P0, Q and R are scalars times the identity,
    so x and y never correlate and both axes share one (position,
    velocity) covariance [[a, b], [b, d]].

    Born from a single detection: position from the detection center,
    velocity zero, diagonal covariance.  No measurement update is applied
    at birth; the first update happens on the next matched frame.
    """

    def __init__(self, center: Tuple[float, float], params: TrackerParams):
        self.x, self.y = center
        self.vx = self.vy = 0.0
        self.a = self.d = params.initial_variance
        self.b = 0.0
        self._q = params.process_noise
        self._r = params.measurement_noise

    def predict(self) -> Tuple[float, float]:
        self.x += self.vx
        self.y += self.vy
        a, b, d, q = self.a, self.b, self.d, self._q
        self.a, self.b, self.d = a + 2.0 * b + d + q, b + d, d + q
        _check_covariance(self.a, self.b, self.d)
        return (self.x, self.y)

    def update(self, z: Tuple[float, float]) -> float:
        """Fold in a position measurement; returns the innovation norm (px)."""
        ix = z[0] - self.x
        iy = z[1] - self.y
        a, b, r = self.a, self.b, self._r
        s = a + r
        kp, kv = a / s, b / s
        self.x += kp * ix
        self.y += kp * iy
        self.vx += kv * ix
        self.vy += kv * iy
        # Standard form (I - KH)P; with the optimal gain it equals the
        # Joseph form and stays PSD: a' = r*a/s and det' = (r/s)*det.
        self.a, self.b, self.d = r * kp, r * kv, self.d - b * kv
        _check_covariance(self.a, self.b, self.d)
        return math.hypot(ix, iy)

    @property
    def velocity(self) -> Tuple[float, float]:
        return (self.vx, self.vy)


class Track:
    """State history of one tracked object across a trace.

    Per-frame lists are aligned and indexed by (frame - first_frame); they
    always extend to the final frame of the trace.  A frame's detection is
    None where the track coasted.  last_class is the class of the latest
    observed detection; _class_counts counts observed detections per class,
    indexed by position in CLASS_ORDER.
    """

    def __init__(self, track_id: int, first_frame: int, det: Detection, params: TrackerParams):
        self.track_id = track_id
        self.first_frame = first_frame
        self.is_occluder = det.object_class is ObjectClass.WALL
        center = det.center
        self.filter = PointFilter(center, params)
        self.detections: list[Optional[Detection]] = [det]
        # at birth the prediction is the detection itself
        self.centers_predicted: list[Tuple[float, float]] = [center]
        self.residuals: list[Optional[float]] = [0.0]
        self.velocities: list[Tuple[float, float]] = [(0.0, 0.0)]
        self.last_class = det.object_class
        self._class_counts = [0] * len(CLASS_ORDER)
        self._class_counts[CLASS_ORDER.index(det.object_class)] = 1

    def observe(self, det: Detection, predicted: Tuple[float, float]) -> float:
        residual = self.filter.update(det.center)
        cls = det.object_class
        self.last_class = cls
        self._class_counts[CLASS_ORDER.index(cls)] += 1
        self.detections.append(det)
        self.centers_predicted.append(predicted)
        self.residuals.append(residual)
        self.velocities.append(self.filter.velocity)
        return residual

    def coast(self, predicted: Tuple[float, float]) -> None:
        self.detections.append(None)
        self.centers_predicted.append(predicted)
        self.residuals.append(None)
        self.velocities.append(self.filter.velocity)

    # -- frame-indexed access -------------------------------------------------

    def covers(self, frame: int) -> bool:
        return self.first_frame <= frame < self.first_frame + len(self.detections)

    def _idx(self, frame: int) -> int:
        if not self.covers(frame):
            raise IndexError(f"track {self.track_id} does not cover frame {frame}")
        return frame - self.first_frame

    def detection_at(self, frame: int) -> Optional[Detection]:
        return self.detections[self._idx(frame)]

    def predicted_center_at(self, frame: int) -> Tuple[float, float]:
        return self.centers_predicted[self._idx(frame)]

    def observed(self) -> Iterator[Tuple[int, Detection]]:
        """(frame, detection) for every frame the track was detected in."""
        for i, det in enumerate(self.detections):
            if det is not None:
                yield (self.first_frame + i, det)

    # -- aggregates -----------------------------------------------------------

    @property
    def detected_frames(self) -> int:
        return sum(self._class_counts)

    @property
    def resolved_class(self) -> ObjectClass:
        """Majority class over observed frames; ties go to the smaller class
        in canonical order, so an exact half-way switch resolves to the
        class the object started as."""
        counts = self._class_counts
        return CLASS_ORDER[counts.index(max(counts))]

    def __repr__(self) -> str:
        return (
            f"Track(id={self.track_id}, class={self.last_class.value}, "
            f"frames=[{self.first_frame}..{self.first_frame + len(self.detections) - 1}], "
            f"detected={self.detected_frames})"
        )


def _det_key(det: Detection) -> tuple:
    """Content-based ordering key; makes association independent of the
    order detections happen to be listed in a frame."""
    return (det.bbox, class_order_index(det.object_class), det.confidence, det.shape_descriptor)


def _step_pool(
    pool: list[Track],
    dets: Sequence[Detection],
    params: TrackerParams,
) -> list[Detection]:
    """Advance one association pool (objects or walls) by a single frame;
    returns the detections that matched no track and should start new ones."""
    predictions = [t.filter.predict() for t in pool]
    if not dets:
        for track, predicted in zip(pool, predictions):
            track.coast(predicted)
        return []

    gate = params.assoc_gate
    if len(dets) == 1:
        canon = [0]
        cx, cy = dets[0].center
        candidates = [(cx, cy, dets[0].object_class, 0, 0)]
        xs = None
    else:
        keys = [_det_key(d) for d in dets]
        canon = sorted(range(len(dets)), key=keys.__getitem__)
        candidates = []
        for rank, dj in enumerate(canon):
            cx, cy = dets[dj].center
            if cx == cx:  # a NaN x passes no gate and does not sort
                candidates.append((cx, cy, dets[dj].object_class, rank, dj))
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

    # A detection's rank, its position in canon, stands in for its content
    # key: ranks order as the keys do, and equal keys are equal content.
    # (track id, rank) is unique, so the sort never compares ti or dj, and
    # the order in which pairs are found does not matter.
    pairs = []
    hypot = math.hypot
    for ti, track in enumerate(pool):
        px, py = predictions[ti]
        cls, tid = track.last_class, track.track_id
        window = candidates
        if xs is not None:
            window = candidates[bisect_left(xs, px - reach) : bisect_right(xs, px + reach)]
        for cx, cy, det_cls, rank, dj in window:
            dist = hypot(px - cx, py - cy)
            if not dist <= gate:  # NaN is never a candidate
                continue
            pairs.append((dist, 0 if det_cls is cls else 1, tid, rank, ti, dj))
    pairs.sort()

    track_taken = [False] * len(pool)
    det_taken = [False] * len(dets)
    for _, _, _, _, ti, dj in pairs:
        if track_taken[ti] or det_taken[dj]:
            continue
        track_taken[ti] = True
        det_taken[dj] = True
        pool[ti].observe(dets[dj], predictions[ti])

    for ti, track in enumerate(pool):
        if not track_taken[ti]:
            track.coast(predictions[ti])

    return [dets[dj] for dj in canon if not det_taken[dj]]


def track_event(trace: EventTrace, params: TrackerParams = TrackerParams()) -> list[Track]:
    """Track every detection in the trace; returns tracks in id order.

    The trace is assumed valid (frames consecutive from 0); feed parser or
    generator output.
    """
    tracks: list[Track] = []
    objects: list[Track] = []
    walls: list[Track] = []
    for frame in trace.frames:
        obj_dets: list[Detection] = []
        wall_dets: list[Detection] = []
        for det in frame.detections:
            (wall_dets if det.object_class is ObjectClass.WALL else obj_dets).append(det)
        for pool, dets in ((objects, obj_dets), (walls, wall_dets)):
            if not pool and not dets:
                continue
            for det in _step_pool(pool, dets, params):
                track = Track(len(tracks), frame.frame_index, det, params)
                tracks.append(track)
                pool.append(track)
    return tracks


# ---------------------------------------------------------------------------
# Discontinuities
# ---------------------------------------------------------------------------

class DiscontinuityKind(Enum):
    VANISH = "vanish"
    APPEAR = "appear"
    JUMP = "jump"
    SHAPE_SWITCH = "shape-switch"


_KIND_ORDER = {
    DiscontinuityKind.VANISH: 0,
    DiscontinuityKind.APPEAR: 1,
    DiscontinuityKind.JUMP: 2,
    DiscontinuityKind.SHAPE_SWITCH: 3,
}


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

    Two scans run only where they can find something: the gap scan when the
    track has fewer detected frames than frames (some frame is None), the
    class-run scan when more than one class was observed (the largest class
    count is below the detected frames).
    """
    if track.is_occluder:
        return []
    out: list[Discontinuity] = []
    tid = track.track_id

    if track.first_frame > 0:
        out.append(
            Discontinuity(
                DiscontinuityKind.APPEAR,
                tid,
                0,
                track.first_frame - 1,
                f"first detected at frame {track.first_frame}",
            )
        )

    detected = track.detected_frames
    # maximal runs of absent frames within the track span
    if detected < len(track.detections):
        gap_start: Optional[int] = None
        for i, det in enumerate(track.detections):
            frame = track.first_frame + i
            if det is None and gap_start is None:
                gap_start = frame
            elif det is not None and gap_start is not None:
                out.append(Discontinuity(DiscontinuityKind.VANISH, tid, gap_start, frame - 1))
                out.append(Discontinuity(DiscontinuityKind.APPEAR, tid, gap_start, frame - 1))
                gap_start = None
        if gap_start is not None:
            out.append(Discontinuity(DiscontinuityKind.VANISH, tid, gap_start, frame_count - 1))

    # positional jumps: matched detections far from the coasting prediction
    for i, residual in enumerate(track.residuals):
        if i == 0 or residual is None:
            continue
        if residual > params.jump_gate:
            frame = track.first_frame + i
            out.append(
                Discontinuity(
                    DiscontinuityKind.JUMP, tid, frame, frame, f"residual {residual:.1f}px"
                )
            )

    # class switches: a sustained run of a different class than established
    if max(track._class_counts) < detected:
        runs: list[Tuple[ObjectClass, int, int]] = []  # (class, start_frame, count)
        for frame, det in track.observed():
            cls = det.object_class
            if runs and runs[-1][0] is cls:
                runs[-1] = (cls, runs[-1][1], runs[-1][2] + 1)
            else:
                runs.append((cls, frame, 1))
        established = runs[0][0]
        for cls, start, count in runs[1:]:
            if cls is not established and count >= SHAPE_SWITCH_MIN_RUN:
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


def trace_discontinuities(
    tracks: Sequence[Track], frame_count: int, params: TrackerParams = TrackerParams()
) -> list[Discontinuity]:
    out: list[Discontinuity] = []
    for track in tracks:
        out.extend(track_discontinuities(track, frame_count, params))
    out.sort(key=lambda d: (d.start_frame, d.end_frame, _KIND_ORDER[d.kind], d.track_id))
    return out


# ---------------------------------------------------------------------------
# CSV report
# ---------------------------------------------------------------------------

TRACK_CSV_FIELDS = (
    "frame",
    "observed_x",
    "observed_y",
    "predicted_x",
    "predicted_y",
    "residual",
    "present",
)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def track_csv_rows(track: Track) -> Iterator[tuple]:
    """Rows for one track in TRACK_CSV_FIELDS order; absent frames leave the
    observation and residual cells empty."""
    for i, det in enumerate(track.detections):
        frame = track.first_frame + i
        px, py = track.centers_predicted[i]
        if det is not None:
            ox, oy = det.center
            residual = track.residuals[i]
            assert residual is not None
            yield (frame, _fmt(ox), _fmt(oy), _fmt(px), _fmt(py), _fmt(residual), 1)
        else:
            yield (frame, "", "", _fmt(px), _fmt(py), "", 0)


def write_track_csv(track: Track, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(TRACK_CSV_FIELDS)
    writer.writerows(track_csv_rows(track))
