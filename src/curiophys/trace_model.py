"""Shared domain vocabulary for detection-trace event reasoning.

Defines the value types every other module consumes: object classes and
their default impact values, per-frame detections, frame records, whole
event traces, and ground-truth labels.  All types are immutable after
construction and safe to share between concurrent workers.

Coordinate convention: bounding boxes are (x, y, w, h) in pixels with a
top-left origin and y increasing downward, matching common detector
output.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple


class ObjectClass(Enum):
    """Detectable object categories.

    WALL is the only class treated as an occluder and is never scored.
    UNKNOWN never appears in ground truth or detections; it exists for
    inference inputs only.
    """

    SPHERE = "sphere"
    CONE = "cone"
    CUBE = "cube"
    WALL = "wall"
    UNKNOWN = "unknown"

    @classmethod
    def from_name(cls, name: str) -> "ObjectClass":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown object class {name!r}") from None


# Deterministic ordering used for tie-breaks throughout the pipeline.
CLASS_ORDER = (
    ObjectClass.SPHERE,
    ObjectClass.CONE,
    ObjectClass.CUBE,
    ObjectClass.WALL,
    ObjectClass.UNKNOWN,
)

# Classes an event can be "about" (everything except the occluder/unknown).
SCOREABLE_CLASSES = (ObjectClass.SPHERE, ObjectClass.CONE, ObjectClass.CUBE)

# Impact value of each scoreable class, the weight of its detections in the
# object-permanence score.  Walls are occluders and carry none.
DEFAULT_IMPACT_VALUES = {
    ObjectClass.SPHERE: 10.0,
    ObjectClass.CONE: 100.0,
    ObjectClass.CUBE: 1000.0,
}


def class_order_index(cls: ObjectClass) -> int:
    return CLASS_ORDER.index(cls)


def is_integer(value) -> bool:
    """An int decoded from JSON; true/false decode to bool, a subclass of
    int, and do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite float, or an int decoded from JSON that a float can hold;
    booleans do not count."""
    if isinstance(value, float):
        return math.isfinite(value)
    return is_integer(value) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class SceneBounds:
    """Pixel extent of the scene, also used to normalize shape descriptors."""

    width: float = 640.0
    height: float = 360.0

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, point: Tuple[float, float]) -> bool:
        x, y = point
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


DEFAULT_SCENE = SceneBounds()


def default_profiles() -> dict[ObjectClass, float]:
    """A fresh copy of the default impact value of each scoreable class."""
    return dict(DEFAULT_IMPACT_VALUES)


def default_shape_descriptor(
    bbox: Tuple[float, float, float, float], scene: SceneBounds = DEFAULT_SCENE
) -> Tuple[float, float]:
    """Stand-in appearance vector when a trace carries no descriptor.

    Uses (aspect ratio, box area / scene area); traces with real
    appearance data supply their own fixed-length vectors instead.
    """
    _, _, w, h = bbox
    return (w / h, (w * h) / scene.area)


@dataclass(frozen=True)
class Detection:
    """One detected object in one frame."""

    object_class: ObjectClass
    confidence: float
    bbox: Tuple[float, float, float, float]
    shape_descriptor: Tuple[float, ...]

    @property
    def center(self) -> Tuple[float, float]:
        x, y, w, h = self.bbox
        return (x + w / 2.0, y + h / 2.0)

    @staticmethod
    def build(
        object_class: ObjectClass,
        confidence: float,
        bbox: Tuple[float, float, float, float],
        shape_descriptor: Optional[Tuple[float, ...]] = None,
        scene: SceneBounds = DEFAULT_SCENE,
    ) -> "Detection":
        """Construct a detection, deriving the descriptor from the bbox when absent."""
        if shape_descriptor is None:
            shape_descriptor = default_shape_descriptor(bbox, scene)
        return Detection(object_class, confidence, tuple(bbox), tuple(shape_descriptor))


@dataclass(frozen=True)
class FrameRecord:
    """One time step of an event.

    A frame with zero detections is an explicit empty record, never a
    missing one, so the trace's frame count measures wall-clock frames.
    """

    frame_index: int
    detections: Tuple[Detection, ...]


@dataclass(frozen=True)
class GroundTruth:
    possible: bool
    object_classes: Tuple[ObjectClass, ...]


@dataclass(frozen=True)
class EventTrace:
    """A complete event: ordered frames plus optional ground truth."""

    event_id: str
    frames: Tuple[FrameRecord, ...]
    ground_truth: Optional[GroundTruth] = None

    @property
    def frame_count(self) -> int:
        return len(self.frames)


def validate_trace(trace: EventTrace) -> list[str]:
    """Check every type invariant; return human-readable violations.

    Pure: the same trace always yields the same list.  An empty list
    means the trace is well-formed.
    """
    violations: list[str] = []
    if trace.frame_count < 1:
        violations.append("trace: must contain at least one frame")

    descriptor_dim: Optional[int] = None
    descriptor_origin = 0
    for position, frame in enumerate(trace.frames):
        if frame.frame_index != position:
            violations.append(
                f"frame at position {position}: frame_index expected {position}, "
                f"found {frame.frame_index} (frames must be consecutive from 0)"
            )
        for d_idx, det in enumerate(frame.detections):
            where = f"frame {frame.frame_index}, detection {d_idx}"
            if det.object_class is ObjectClass.UNKNOWN:
                violations.append(f"{where}: class 'unknown' not allowed in detections")
            if not math.isfinite(det.confidence):
                violations.append(f"{where}: confidence {det.confidence} is not finite")
            elif not (0.0 <= det.confidence <= 1.0):
                violations.append(
                    f"{where}: confidence {det.confidence} outside [0, 1]"
                )
            bbox_finite = len(det.bbox) == 4
            if not bbox_finite:
                violations.append(f"{where}: bbox has {len(det.bbox)} entries, expected 4")
            for name, value in zip(("x", "y", "width", "height"), det.bbox):
                if not math.isfinite(value):
                    violations.append(f"{where}: bbox {name} {value} is not finite")
                    bbox_finite = False
                elif name in ("width", "height") and value <= 0:
                    violations.append(f"{where}: bbox {name} must be > 0, got {value}")
            if bbox_finite:
                # finite entries near the float limit: x + width/2 overflows
                cx, cy = det.center
                if not math.isfinite(cx):
                    violations.append(f"{where}: bbox center x {cx} is not finite")
                if not math.isfinite(cy):
                    violations.append(f"{where}: bbox center y {cy} is not finite")
            for k, value in enumerate(det.shape_descriptor):
                if not math.isfinite(value):
                    violations.append(f"{where}: shape_descriptor[{k}] {value} is not finite")
            if not det.shape_descriptor:
                violations.append(f"{where}: shape_descriptor must not be empty")
            elif descriptor_dim is None:
                descriptor_dim = len(det.shape_descriptor)
                descriptor_origin = frame.frame_index
            elif len(det.shape_descriptor) != descriptor_dim:
                violations.append(
                    f"{where}: shape_descriptor dimension {len(det.shape_descriptor)} "
                    f"!= {descriptor_dim} (established at frame {descriptor_origin})"
                )

    gt = trace.ground_truth
    if gt is not None:
        if not gt.object_classes:
            violations.append("ground_truth: object_classes must be non-empty")
        if ObjectClass.UNKNOWN in gt.object_classes:
            violations.append("ground_truth: class 'unknown' not allowed")
    return violations
