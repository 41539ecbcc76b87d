"""Trace file I/O and deterministic synthetic event generation.

Trace file format (UTF-8, line-delimited JSON):
  line 1     header {"event_id", "frame_count", "ground_truth"?}
  lines 2..  one frame per line {"frame_index", "detections": [...]}

Each detection is {"class", "confidence", "bbox": [x, y, w, h],
"shape_descriptor"?}.  Unknown fields are ignored on read and never
written, so any upstream detector can append metadata without breaking
consumers.

The generator scripts five event kinds over a fixed 640x360 scene so the
whole pipeline can be exercised without a neural detector.  Generation is
fully deterministic for a fixed spec (seed included).
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Optional, Tuple, Union

from .trace_model import (
    DEFAULT_SCENE,
    Detection,
    EventTrace,
    FrameRecord,
    GroundTruth,
    ObjectClass,
    SceneBounds,
    is_finite_number,
    is_integer,
    validate_trace,
)


class TraceParseError(ValueError):
    """Malformed trace file; message names the offending line."""


class TraceValidationError(ValueError):
    """Structurally parseable trace that violates model invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class ScenarioError(ValueError):
    """Contradictory or unsatisfiable scenario specification."""


class ScenarioKind(Enum):
    POSSIBLE_VISIBLE = "possible-visible"
    POSSIBLE_OCCLUDED = "possible-occluded"
    IMPOSSIBLE_DISAPPEAR = "impossible-disappear"
    IMPOSSIBLE_TELEPORT = "impossible-teleport"
    IMPOSSIBLE_SHAPE_CHANGE = "impossible-shape-change"

    @property
    def possible(self) -> bool:
        return self in (ScenarioKind.POSSIBLE_VISIBLE, ScenarioKind.POSSIBLE_OCCLUDED)


# Per-class bbox sizes (w, h); chosen so shape descriptors differ across classes.
OBJECT_SIZES = {
    ObjectClass.SPHERE: (24.0, 24.0),
    ObjectClass.CONE: (20.0, 34.0),
    ObjectClass.CUBE: (32.0, 32.0),
}

WALL_CONFIDENCE = 0.9
EDGE_MARGIN = 40.0
PATH_CLEARANCE = 10.0


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, top-left origin."""

    x: float
    y: float
    w: float
    h: float

    def contains(self, point: Tuple[float, float]) -> bool:
        px, py = point
        return self.x <= px <= self.x + self.w and self.y <= py <= self.y + self.h

    def as_bbox(self) -> Tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one synthetic event."""

    kind: ScenarioKind
    object_class: ObjectClass = ObjectClass.SPHERE
    frame_count: int = 90
    occluder: Optional[Rect] = None
    velocity: Tuple[float, float] = (3.0, 0.0)
    seed: int = 0
    noise_sigma: float = 0.0
    confidence: float = 0.6
    scene: SceneBounds = DEFAULT_SCENE

    def event_id(self) -> str:
        return f"{self.kind.value}-{self.object_class.value}-f{self.frame_count}-s{self.seed}"


def _check_spec(spec: ScenarioSpec) -> None:
    if spec.frame_count < 10:
        raise ScenarioError(f"frame_count must be >= 10, got {spec.frame_count}")
    if not (math.isfinite(spec.noise_sigma) and spec.noise_sigma >= 0):
        raise ScenarioError(f"noise_sigma must be a finite number >= 0, got {spec.noise_sigma}")
    if not (len(spec.velocity) == 2 and all(map(math.isfinite, spec.velocity))):
        raise ScenarioError(f"velocity must be two finite numbers, got {spec.velocity}")
    if not (0.0 <= spec.confidence <= 1.0):
        raise ScenarioError(f"confidence must be in [0, 1], got {spec.confidence}")
    if spec.object_class not in OBJECT_SIZES:
        raise ScenarioError(f"cannot generate events for class {spec.object_class.value}")
    if spec.kind is ScenarioKind.POSSIBLE_OCCLUDED and spec.occluder is None:
        raise ScenarioError("possible-occluded requires an occluder rectangle")
    if spec.kind is ScenarioKind.IMPOSSIBLE_DISAPPEAR and spec.occluder is not None:
        raise ScenarioError(
            "impossible-disappear must not carry an occluder along the disappearance"
        )


def scripted_violation_frame(spec: ScenarioSpec) -> int:
    """Frame at which the impossible kinds break physics."""
    return spec.frame_count // 2


def _start(spec: ScenarioSpec) -> Tuple[float, float]:
    def axis_start(v: float, extent: float) -> float:
        if v > 0:
            return EDGE_MARGIN
        if v < 0:
            return extent - EDGE_MARGIN
        return extent / 2.0

    return (
        axis_start(spec.velocity[0], spec.scene.width),
        axis_start(spec.velocity[1], spec.scene.height),
    )


def _teleport_offset(spec: ScenarioSpec) -> Tuple[float, float]:
    # Jump >= 10x the per-frame displacement, yet inside the default
    # association gate (50 px) so the break registers as a residual spike
    # on one track rather than a track split.
    vx, vy = spec.velocity
    speed = math.hypot(vx, vy)
    magnitude = max(10.5 * speed, 28.0)
    if speed == 0:
        return (magnitude, 0.0)
    return (magnitude * vx / speed, magnitude * vy / speed)


def _scripted_centers(spec: ScenarioSpec) -> list[Tuple[float, float]]:
    """Noise-free center positions for every frame, violations included."""
    start = _start(spec)
    vx, vy = spec.velocity
    jump = scripted_violation_frame(spec)
    offset = _teleport_offset(spec) if spec.kind is ScenarioKind.IMPOSSIBLE_TELEPORT else (0.0, 0.0)
    centers = []
    for t in range(spec.frame_count):
        ox, oy = offset if t >= jump else (0.0, 0.0)
        centers.append((start[0] + vx * t + ox, start[1] + vy * t + oy))
    return centers


def _check_path_in_bounds(spec: ScenarioSpec, centers: list[Tuple[float, float]]) -> None:
    w, h = spec.scene.width, spec.scene.height
    for t, (cx, cy) in enumerate(centers):
        if not (PATH_CLEARANCE <= cx <= w - PATH_CLEARANCE and PATH_CLEARANCE <= cy <= h - PATH_CLEARANCE):
            raise ScenarioError(
                f"scripted path leaves the scene at frame {t} ({cx:.1f}, {cy:.1f}); "
                "reduce velocity or frame_count"
            )


def default_occluder(spec: ScenarioSpec) -> Rect:
    """Wall rectangle covering the mid-path, sized to hide the object center
    for roughly frames [0.45N, 0.62N] and nothing outside that window."""
    centers = _scripted_centers(replace(spec, kind=ScenarioKind.POSSIBLE_VISIBLE, occluder=None))
    t1 = max(1, int(0.45 * spec.frame_count))
    t2 = min(spec.frame_count - 2, int(0.62 * spec.frame_count))
    xs = [centers[t][0] for t in range(t1, t2 + 1)]
    ys = [centers[t][1] for t in range(t1, t2 + 1)]
    vx, vy = spec.velocity
    # Expand by under half the per-frame step so neighboring frames stay outside.
    pad_x = 0.4 * abs(vx)
    pad_y = 0.4 * abs(vy)
    x0, x1 = min(xs) - pad_x, max(xs) + pad_x
    y0, y1 = min(ys) - pad_y, max(ys) + pad_y
    if vx == 0 and x1 - x0 < 30:
        x0, x1 = (x0 + x1) / 2 - 15, (x0 + x1) / 2 + 15
    if vy == 0 and y1 - y0 < 30:
        y0, y1 = (y0 + y1) / 2 - 30, (y0 + y1) / 2 + 30
    return Rect(round(x0, 3), round(y0, 3), round(x1 - x0, 3), round(y1 - y0, 3))


def build_spec(kind: ScenarioKind, **kwargs) -> ScenarioSpec:
    """ScenarioSpec factory that fills in a default occluder where one is required."""
    spec = ScenarioSpec(kind=kind, **kwargs)
    if kind is ScenarioKind.POSSIBLE_OCCLUDED and spec.occluder is None:
        spec = replace(spec, occluder=default_occluder(spec))
    return spec


def generate_event(spec: ScenarioSpec) -> EventTrace:
    """Produce a deterministic synthetic event for the given spec.

    Possible kinds satisfy "every detection gap is fully covered by an
    occluder"; each impossible kind violates exactly one body-budget
    property (disappearance, positional jump, or shape switch).
    """
    _check_spec(spec)
    centers = _scripted_centers(spec)
    _check_path_in_bounds(spec, centers)

    rng = random.Random(spec.seed)
    vanish_at = scripted_violation_frame(spec)
    switch_at = scripted_violation_frame(spec)
    size = OBJECT_SIZES[spec.object_class]

    object_classes: Tuple[ObjectClass, ...] = (spec.object_class,)
    if spec.kind is ScenarioKind.POSSIBLE_OCCLUDED:
        object_classes = (spec.object_class, ObjectClass.WALL)

    frames = []
    for t in range(spec.frame_count):
        detections = []

        cls = spec.object_class
        w, h = size
        if spec.kind is ScenarioKind.IMPOSSIBLE_SHAPE_CHANGE and t >= switch_at:
            cls = _next_class(spec.object_class)
            w, h = OBJECT_SIZES[cls]

        cx, cy = centers[t]
        if spec.noise_sigma > 0:
            cx += rng.gauss(0.0, spec.noise_sigma)
            cy += rng.gauss(0.0, spec.noise_sigma)

        visible = True
        if spec.kind is ScenarioKind.IMPOSSIBLE_DISAPPEAR and t >= vanish_at:
            visible = False
        if spec.occluder is not None and spec.occluder.contains((cx, cy)):
            visible = False

        if visible:
            bbox = (round(cx - w / 2, 4), round(cy - h / 2, 4), w, h)
            detections.append(
                Detection.build(cls, spec.confidence, bbox, scene=spec.scene)
            )

        if spec.occluder is not None:
            detections.append(
                Detection.build(
                    ObjectClass.WALL, WALL_CONFIDENCE, spec.occluder.as_bbox(), scene=spec.scene
                )
            )

        frames.append(FrameRecord(frame_index=t, detections=tuple(detections)))

    return EventTrace(
        event_id=spec.event_id(),
        frames=tuple(frames),
        ground_truth=GroundTruth(possible=spec.kind.possible, object_classes=object_classes),
    )


def _next_class(cls: ObjectClass) -> ObjectClass:
    cycle = (ObjectClass.SPHERE, ObjectClass.CONE, ObjectClass.CUBE)
    return cycle[(cycle.index(cls) + 1) % len(cycle)]


# ---------------------------------------------------------------------------
# Encoding / parsing
# ---------------------------------------------------------------------------

def _detection_to_json(det: Detection) -> dict:
    return {
        "class": det.object_class.value,
        "confidence": det.confidence,
        "bbox": list(det.bbox),
        "shape_descriptor": list(det.shape_descriptor),
    }


def encode_trace(trace: EventTrace) -> str:
    """Serialize to the line-delimited trace format (lossless round-trip)."""
    header: dict = {"event_id": trace.event_id, "frame_count": trace.frame_count}
    if trace.ground_truth is not None:
        header["ground_truth"] = {
            "possible": trace.ground_truth.possible,
            "object_classes": [c.value for c in trace.ground_truth.object_classes],
        }
    lines = [json.dumps(header, sort_keys=True)]
    for frame in trace.frames:
        lines.append(
            json.dumps(
                {
                    "frame_index": frame.frame_index,
                    "detections": [_detection_to_json(d) for d in frame.detections],
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def _require(record: dict, key: str, line_no: int):
    if key not in record:
        raise TraceParseError(f"line {line_no}: missing required field {key!r}")
    return record[key]


def _parse_detection(obj: dict, line_no: int, scene: SceneBounds) -> Detection:
    if not isinstance(obj, dict):
        raise TraceParseError(f"line {line_no}: detection must be an object")
    cls_name = _require(obj, "class", line_no)
    try:
        cls = ObjectClass.from_name(str(cls_name))
    except ValueError as exc:
        raise TraceParseError(f"line {line_no}: {exc}") from None
    confidence = _require(obj, "confidence", line_no)
    bbox = _require(obj, "bbox", line_no)
    if not (isinstance(bbox, list) and len(bbox) == 4):
        raise TraceParseError(f"line {line_no}: bbox must be a 4-element array")
    descriptor = obj.get("shape_descriptor")
    if descriptor is not None and not isinstance(descriptor, list):
        raise TraceParseError(f"line {line_no}: shape_descriptor must be an array")
    if not is_finite_number(confidence):
        raise TraceParseError(
            f"line {line_no}: confidence must be a finite number, got {confidence!r}"
        )
    box = _numbers(bbox, line_no, "bbox")
    if descriptor is not None:
        if not descriptor:
            # zero-length descriptors would score a perfect shape constancy
            raise TraceParseError(f"line {line_no}: shape_descriptor must not be empty")
        descriptor = _numbers(descriptor, line_no, "shape_descriptor")
    elif box[3] == 0:
        # the default descriptor divides by the height
        raise TraceParseError(f"line {line_no}: bbox[3] must be > 0, got {bbox[3]!r}")
    return Detection.build(cls, float(confidence), box, descriptor, scene=scene)


def _numbers(values: list, line_no: int, field: str) -> tuple:
    """The entries of a detection array field; each must be a finite JSON number."""
    for k, value in enumerate(values):
        if not is_finite_number(value):
            raise TraceParseError(
                f"line {line_no}: {field}[{k}] must be a finite number, got {value!r}"
            )
    return tuple(map(float, values))


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise TraceParseError(
            f"line {line_no}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def parse_trace(
    source: Union[str, bytes, IO[bytes], IO[str]], scene: SceneBounds = DEFAULT_SCENE
) -> EventTrace:
    """Parse one trace; the result always passes validate_trace cleanly.

    Raises TraceParseError for malformed records (message names the line)
    and TraceValidationError when the parsed trace violates invariants.
    """
    data = source if isinstance(source, (bytes, str)) else source.read()
    text = _decode(data) if isinstance(data, bytes) else data

    lines = [line for line in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise TraceParseError("line 1: empty trace file")

    def load_line(idx: int) -> dict:
        try:
            record = json.loads(lines[idx])
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"line {idx + 1}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise TraceParseError(f"line {idx + 1}: record must be a JSON object")
        return record

    header = load_line(0)
    event_id = _require(header, "event_id", 1)
    if not isinstance(event_id, str):
        raise TraceParseError(f"line 1: event_id must be a string, got {event_id!r}")
    frame_count = _require(header, "frame_count", 1)
    if not is_integer(frame_count) or frame_count < 0:
        raise TraceParseError("line 1: frame_count must be a non-negative integer")

    ground_truth = None
    gt_obj = header.get("ground_truth")
    if gt_obj is not None:
        if not isinstance(gt_obj, dict):
            raise TraceParseError("line 1: ground_truth must be an object")
        possible = _require(gt_obj, "possible", 1)
        if not isinstance(possible, bool):
            raise TraceParseError(
                f"line 1: ground_truth.possible must be a boolean, got {possible!r}"
            )
        classes = _require(gt_obj, "object_classes", 1)
        if not isinstance(classes, list):
            raise TraceParseError("line 1: ground_truth.object_classes must be an array")
        try:
            gt_classes = tuple(ObjectClass.from_name(str(c)) for c in classes)
        except ValueError as exc:
            raise TraceParseError(f"line 1: {exc}") from None
        ground_truth = GroundTruth(possible=possible, object_classes=gt_classes)

    frames = []
    for idx in range(1, len(lines)):
        record = load_line(idx)
        frame_index = _require(record, "frame_index", idx + 1)
        if not is_integer(frame_index):
            raise TraceParseError(f"line {idx + 1}: frame_index must be an integer")
        dets = record.get("detections", [])
        if not isinstance(dets, list):
            raise TraceParseError(f"line {idx + 1}: detections must be an array")
        detections = tuple(_parse_detection(d, idx + 1, scene) for d in dets)
        frames.append(FrameRecord(frame_index=frame_index, detections=detections))

    trace = EventTrace(event_id=event_id, frames=tuple(frames), ground_truth=ground_truth)

    violations = validate_trace(trace)
    if frame_count != trace.frame_count:
        violations.insert(
            0,
            f"header: frame_count {frame_count} != number of frame records {trace.frame_count}",
        )
    if violations:
        raise TraceValidationError(violations)
    return trace


def write_trace_file(trace: EventTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode_trace(trace))


def read_trace_file(path, scene: SceneBounds = DEFAULT_SCENE) -> EventTrace:
    with open(path, "rb") as fh:
        return parse_trace(fh, scene=scene)
