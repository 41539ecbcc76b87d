"""Trace file I/O, the trace contract, and deterministic synthetic event generation.

Trace file format (UTF-8, line-delimited JSON; a line ends at "\n" only,
and a CRLF file's "\r" is JSON whitespace):
  line 1     header {"event_id", "frame_count", "ground_truth"?}
  lines 2..  one frame per line {"frame_index", "detections": [...]};
             frame_index counts from 0 and equals the frame's position

Each detection is {"class", "confidence", "bbox": [x, y, w, h],
"shape_descriptor"?}.  Unknown fields are ignored on read and never
written, so any upstream detector can append metadata without breaking
consumers.

parse_trace accepts a plainly well-formed detection through one cheap
gate, and only a detection the gate refuses goes through the full rules,
which word any violation.  The gate accepts only what the full rules
accept and builds the same Detection, so the accepted files and every
message are those of the full rules alone.

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
    SCOREABLE_CLASSES,
    Detection,
    EventTrace,
    GroundTruth,
    ObjectClass,
    SceneBounds,
    is_finite_number,
    is_integer,
)


class TraceParseError(ValueError):
    """Malformed trace file; message names the offending line."""


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
class ScenarioSpec:
    """Recipe for one synthetic event; occluder is a wall bbox (x, y, w, h)."""

    kind: ScenarioKind
    object_class: ObjectClass = ObjectClass.SPHERE
    frame_count: int = 90
    occluder: Optional[Tuple[float, float, float, float]] = None
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


def default_occluder(spec: ScenarioSpec) -> Tuple[float, float, float, float]:
    """Wall bbox covering the mid-path, sized to hide the object center
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
    # a still axis has one position, which the wall covers at a fixed size
    if vx == 0:
        x0, x1 = (x0 + x1) / 2 - 15, (x0 + x1) / 2 + 15
    if vy == 0:
        y0, y1 = (y0 + y1) / 2 - 30, (y0 + y1) / 2 + 30
    return (round(x0, 3), round(y0, 3), round(x1 - x0, 3), round(y1 - y0, 3))


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
    violation_at = scripted_violation_frame(spec)
    size = OBJECT_SIZES[spec.object_class]

    object_classes: Tuple[ObjectClass, ...] = (spec.object_class,)
    if spec.kind is ScenarioKind.POSSIBLE_OCCLUDED:
        object_classes = (spec.object_class, ObjectClass.WALL)

    frames = []
    for t in range(spec.frame_count):
        detections = []

        cls = spec.object_class
        w, h = size
        if spec.kind is ScenarioKind.IMPOSSIBLE_SHAPE_CHANGE and t >= violation_at:
            cls = _next_class(spec.object_class)
            w, h = OBJECT_SIZES[cls]

        cx, cy = centers[t]
        if spec.noise_sigma > 0:
            cx += rng.gauss(0.0, spec.noise_sigma)
            cy += rng.gauss(0.0, spec.noise_sigma)

        visible = True
        if spec.kind is ScenarioKind.IMPOSSIBLE_DISAPPEAR and t >= violation_at:
            visible = False
        if spec.occluder is not None:
            ox, oy, ow, oh = spec.occluder
            if ox <= cx <= ox + ow and oy <= cy <= oy + oh:
                visible = False

        if visible:
            bbox = (round(cx - w / 2, 4), round(cy - h / 2, 4), w, h)
            detections.append(
                Detection.build(cls, spec.confidence, bbox, scene=spec.scene)
            )

        if spec.occluder is not None:
            detections.append(
                Detection.build(
                    ObjectClass.WALL, WALL_CONFIDENCE, spec.occluder, scene=spec.scene
                )
            )

        frames.append(tuple(detections))

    return EventTrace(
        event_id=spec.event_id(),
        frames=tuple(frames),
        ground_truth=GroundTruth(possible=spec.kind.possible, object_classes=object_classes),
    )


def _next_class(cls: ObjectClass) -> ObjectClass:
    return SCOREABLE_CLASSES[(SCOREABLE_CLASSES.index(cls) + 1) % len(SCOREABLE_CLASSES)]


# ---------------------------------------------------------------------------
# The trace contract, encoding and parsing
# ---------------------------------------------------------------------------

class _Contract:
    """Each value rule of a trace past the bbox shape (_BBOX_SHAPE) and the
    number rule (_number_violations), written once: validate_trace reports
    every violation, parse_trace raises the first with its line.  One
    instance checks one trace; its first non-empty descriptor fixes the
    length."""

    def __init__(self) -> None:
        self.descriptor: Optional[Tuple[int, int]] = None  # (length, frame)

    @property
    def length(self) -> Optional[int]:
        """The descriptor length this trace has fixed, if any."""
        return self.descriptor[0] if self.descriptor else None

    @staticmethod
    def header(frame_count: int, ground_truth: Optional[GroundTruth]) -> list[str]:
        violations = []
        if frame_count < 1:
            violations.append("trace: must contain at least one frame")
        if ground_truth is not None:
            if not ground_truth.object_classes:
                violations.append("ground_truth: object_classes must be non-empty")
            if ObjectClass.UNKNOWN in ground_truth.object_classes:
                violations.append("ground_truth: class 'unknown' not allowed")
        return violations

    def detection(self, det: Detection, frame_index: int) -> list[str]:
        violations = []
        if det.object_class is ObjectClass.UNKNOWN:
            violations.append("class 'unknown' not allowed in detections")
        if not 0.0 <= det.confidence <= 1.0:
            violations.append(f"confidence {det.confidence} outside [0, 1]")
        for name, value in zip(("width", "height"), det.bbox[2:]):
            if value <= 0:
                violations.append(f"bbox {name} must be > 0, got {value}")
        # finite entries near the float limit: x + width/2 overflows
        cx, cy = det.center
        if not math.isfinite(cx):
            violations.append(f"bbox center x {cx} is not finite")
        if not math.isfinite(cy):
            violations.append(f"bbox center y {cy} is not finite")
        descriptor = det.shape_descriptor
        # a descriptor derived from the box can overflow (area of 1e200 x 1e200)
        for k, value in enumerate(descriptor):
            if not math.isfinite(value):
                violations.append(f"shape_descriptor[{k}] {value} is not finite")
        if not descriptor:
            # zero-length descriptors would score a perfect shape constancy
            violations.append("shape_descriptor must not be empty")
        elif self.descriptor is None:
            self.descriptor = (len(descriptor), frame_index)
        elif len(descriptor) != self.descriptor[0]:
            violations.append(
                f"shape_descriptor dimension {len(descriptor)} != {self.descriptor[0]} "
                f"(established at frame {self.descriptor[1]})"
            )
        return violations


# The bbox shape rule, checked before the number rule by both callers.
_BBOX_SHAPE = "bbox must be a 4-element array"


def _number_violations(confidence, bbox, descriptor) -> list[str]:
    """The number rule of a detection: its confidence and every bbox and
    descriptor entry is a finite float or an int a float can hold, never a
    boolean.  One message per value that breaks it, in field order."""
    violations = []
    if not is_finite_number(confidence):
        violations.append(f"confidence must be a finite number, got {confidence!r}")
    for field, values in (("bbox", bbox), ("shape_descriptor", descriptor)):
        for k, value in enumerate(values):
            if not is_finite_number(value):
                violations.append(f"{field}[{k}] must be a finite number, got {value!r}")
    return violations


def validate_trace(trace: EventTrace) -> list[str]:
    """Check a trace built in code against the trace contract; return every
    violation, a detection's as `frame F, detection D: …` in parse_trace's
    words.  As in parse_trace, a detection's bbox shape is checked first,
    then the number rule, then the contract, and a detection is reported
    for the first of these it breaks only.  An empty list means the trace is
    well-formed and parse_trace reads its encoding."""
    contract = _Contract()
    violations = contract.header(trace.frame_count, trace.ground_truth)
    for frame_index, detections in enumerate(trace.frames):
        for d_idx, det in enumerate(detections):
            if len(det.bbox) != 4:
                found = [_BBOX_SHAPE]
            else:
                found = _number_violations(det.confidence, det.bbox, det.shape_descriptor)
            # the contract's arithmetic needs numbers, as the parser's does
            for v in found or contract.detection(det, frame_index):
                violations.append(f"frame {frame_index}, detection {d_idx}: {v}")
    return violations


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
    for frame_index, detections in enumerate(trace.frames):
        lines.append(
            json.dumps(
                {
                    "frame_index": frame_index,
                    "detections": [_detection_to_json(d) for d in detections],
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
        raise TraceParseError(f"line {line_no}: {_BBOX_SHAPE}")
    descriptor = obj.get("shape_descriptor")
    if descriptor is not None and not isinstance(descriptor, list):
        raise TraceParseError(f"line {line_no}: shape_descriptor must be an array")
    violations = _number_violations(confidence, bbox, () if descriptor is None else descriptor)
    if violations:
        raise TraceParseError(f"line {line_no}: {violations[0]}")
    if descriptor is not None:
        descriptor = tuple(map(float, descriptor))
    return Detection.build(cls, float(confidence), tuple(map(float, bbox)), descriptor, scene=scene)


# The classes a detection may name, spelled exactly as encode_trace writes
# them; "unknown" breaks the contract.
_DETECTION_CLASSES = {c.value: c for c in ObjectClass if c is not ObjectClass.UNKNOWN}
_INF = math.inf


def _accept_detection(obj, length: Optional[int], area: float) -> Optional[Detection]:
    """The gate: the Detection a plainly well-formed detection record
    decodes to, or None.  It accepts only what _parse_detection and
    _Contract.detection accept and builds an equal Detection, so None just
    sends the record down that full path, which words any violation.

    length is the descriptor length the trace has fixed (None before its
    first descriptor) and area the scene's.  Exact types and chained
    comparisons do the checking; NaN fails every comparison.  Anything
    unusual is left to the full path: an int or a capitalised class name
    (accepted there), the first descriptor of a trace (fixed there).
    """
    if type(obj) is not dict:
        return None
    name = obj.get("class")
    cls = _DETECTION_CLASSES.get(name) if type(name) is str else None
    confidence = obj.get("confidence")
    bbox = obj.get("bbox")
    if not (
        cls is not None
        and type(confidence) is float
        and 0.0 <= confidence <= 1.0
        and type(bbox) is list
        and len(bbox) == 4
    ):
        return None
    x, y, w, h = bbox
    # a finite center x + w/2 needs a finite x and w (and so for y)
    if not (
        type(x) is float
        and type(y) is float
        and type(w) is float
        and type(h) is float
        and 0.0 < w
        and 0.0 < h
        and -_INF < x + w / 2.0 < _INF
        and -_INF < y + h / 2.0 < _INF
    ):
        return None
    descriptor = obj.get("shape_descriptor")
    if descriptor is None:
        # Detection.build's derived descriptor, which overflows for extreme
        # boxes; with w and h finite and > 0 it is never -inf or NaN
        aspect, share = w / h, (w * h) / area
        if not (length == 2 and aspect < _INF and share < _INF):
            return None
        return Detection(cls, confidence, (x, y, w, h), (aspect, share))
    if type(descriptor) is not list or len(descriptor) != length:
        return None
    for value in descriptor:
        if not (type(value) is float and -_INF < value < _INF):
            return None
    return Detection(cls, confidence, (x, y, w, h), tuple(descriptor))


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

    Raises TraceParseError `line N: …` at the first malformed record or
    contract violation (`line N: detection D: …` for a detection's).  Within
    a line every malformed detection record is named before any contract
    violation.  A line ends at "\n" alone."""
    data = source if isinstance(source, (bytes, str)) else source.read()
    text = _decode(data) if isinstance(data, bytes) else data

    # a line ends at "\n" alone, as _decode counts; json.loads takes a CRLF
    # file's "\r" as whitespace
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise TraceParseError("line 1: empty trace file")

    def load_line(line_no: int) -> dict:
        try:
            record = json.loads(lines[line_no - 1])
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"line {line_no}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise TraceParseError(f"line {line_no}: record must be a JSON object")
        return record

    header = load_line(1)
    event_id = _require(header, "event_id", 1)
    if not isinstance(event_id, str):
        raise TraceParseError(f"line 1: event_id must be a string, got {event_id!r}")
    frame_count = _require(header, "frame_count", 1)
    if not is_integer(frame_count):
        raise TraceParseError(f"line 1: frame_count must be an integer, got {frame_count!r}")

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

    contract = _Contract()
    violations = contract.header(frame_count, ground_truth)
    if violations:
        raise TraceParseError(f"line 1: {violations[0]}")

    area = scene.area
    frames = []
    for line_no in range(2, len(lines) + 1):
        record = load_line(line_no)
        frame_index = _require(record, "frame_index", line_no)
        if not is_integer(frame_index):
            raise TraceParseError(f"line {line_no}: frame_index must be an integer")
        if frame_index != len(frames):
            raise TraceParseError(
                f"line {line_no}: frame_index expected {len(frames)}, found {frame_index} "
                "(frames must be consecutive from 0)"
            )
        dets = record.get("detections", [])
        if not isinstance(dets, list):
            raise TraceParseError(f"line {line_no}: detections must be an array")
        # A record the gate refuses takes the full path.  There a malformed
        # record raises at once, but a contract violation waits for the end
        # of the line, so that a later record's malformation is named first.
        length = contract.length
        frame = []
        violation = None
        for d_idx, obj in enumerate(dets):
            det = _accept_detection(obj, length, area)
            if det is None:
                det = _parse_detection(obj, line_no, scene)
                if violation is None:
                    violations = contract.detection(det, frame_index)
                    if violations:
                        violation = f"line {line_no}: detection {d_idx}: {violations[0]}"
                    length = contract.length
            frame.append(det)
        if violation is not None:
            raise TraceParseError(violation)
        frames.append(tuple(frame))

    if frame_count != len(frames):
        raise TraceParseError(
            f"line 1: frame_count {frame_count} != number of frame records {len(frames)}"
        )
    return EventTrace(event_id=event_id, frames=tuple(frames), ground_truth=ground_truth)


def write_trace_file(trace: EventTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode_trace(trace))


def read_trace_file(path, scene: SceneBounds = DEFAULT_SCENE) -> EventTrace:
    with open(path, "rb") as fh:
        return parse_trace(fh, scene=scene)
