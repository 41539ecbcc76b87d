"""Shared domain vocabulary for detection-trace event reasoning.

Defines the value types every other module consumes: object classes and
their default impact values, per-frame detections, whole event traces,
and ground-truth labels.  All types are immutable after construction and
safe to share between concurrent workers.

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
    UNKNOWN never appears in ground truth or detections; it exists so that
    the trace and knowledge-base contracts can name it and refuse it.
    Declaration order is the canonical class order.
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
CLASS_ORDER = tuple(ObjectClass)

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

    def __post_init__(self):
        for name in ("width", "height"):
            if not getattr(self, name) > 0:
                raise ValueError(f"scene {name} must be > 0, got {getattr(self, name)}")
        # the area normalizes derived descriptors, so it must not underflow
        if not self.width * self.height > 0:
            raise ValueError(
                f"scene width * height must be > 0, got {self.width} * {self.height}"
            )

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
    # a height of 0 gives aspect NaN, which the trace contract rejects
    return (w / h if h else math.nan, (w * h) / scene.area)


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
class GroundTruth:
    possible: bool
    object_classes: Tuple[ObjectClass, ...]


@dataclass(frozen=True)
class EventTrace:
    """A complete event: ordered frames plus optional ground truth.

    frames holds each frame's detections in frame order, so a frame's index
    is its position.  An empty frame is (), never a missing one, so the
    frame count measures wall-clock frames.
    """

    event_id: str
    frames: Tuple[Tuple[Detection, ...], ...]
    ground_truth: Optional[GroundTruth] = None

    @property
    def frame_count(self) -> int:
        return len(self.frames)

