"""Hand-built traces for tests that need precise control over frames."""
from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from curiophys import ObjectClass
from curiophys.trace_model import Detection, EventTrace, GroundTruth

Center = Tuple[float, float]

SIZES = {
    ObjectClass.SPHERE: (24.0, 24.0),
    ObjectClass.CONE: (20.0, 34.0),
    ObjectClass.CUBE: (32.0, 32.0),
    ObjectClass.WALL: (60.0, 120.0),
}


def detection(
    cls: ObjectClass = ObjectClass.SPHERE,
    center: Center = (50.0, 100.0),
    confidence: float = 0.6,
    size: Optional[Tuple[float, float]] = None,
    descriptor: Optional[Tuple[float, ...]] = None,
) -> Detection:
    w, h = size if size is not None else SIZES[cls]
    bbox = (center[0] - w / 2, center[1] - h / 2, w, h)
    return Detection.build(cls, confidence, bbox, descriptor)


class ObjectScript:
    """One object's per-frame centers; frames absent from the map are gaps."""

    def __init__(
        self,
        centers: Mapping[int, Center],
        cls: ObjectClass = ObjectClass.SPHERE,
        confidence: float = 0.6,
        classes: Optional[Mapping[int, ObjectClass]] = None,
        confidences: Optional[Mapping[int, float]] = None,
    ):
        self.centers = dict(centers)
        self.cls = cls
        self.confidence = confidence
        self.classes = dict(classes or {})
        self.confidences = dict(confidences or {})

    def detection_at(self, frame: int) -> Optional[Detection]:
        if frame not in self.centers:
            return None
        return detection(
            self.classes.get(frame, self.cls),
            self.centers[frame],
            self.confidences.get(frame, self.confidence),
        )


def linear_script(
    start: Center,
    velocity: Center,
    frames: Sequence[int],
    cls: ObjectClass = ObjectClass.SPHERE,
    confidence: float = 0.6,
) -> ObjectScript:
    centers = {
        t: (start[0] + velocity[0] * t, start[1] + velocity[1] * t) for t in frames
    }
    return ObjectScript(centers, cls=cls, confidence=confidence)


def build_trace(
    event_id: str,
    frame_count: int,
    objects: Sequence[ObjectScript],
    wall_bbox: Optional[Tuple[float, float, float, float]] = None,
    possible: Optional[bool] = None,
    gt_classes: Optional[Sequence[ObjectClass]] = None,
) -> EventTrace:
    frames = []
    for t in range(frame_count):
        dets = [d for d in (obj.detection_at(t) for obj in objects) if d is not None]
        if wall_bbox is not None:
            dets.append(Detection.build(ObjectClass.WALL, 0.9, wall_bbox))
        frames.append(tuple(dets))
    ground_truth = None
    if possible is not None:
        classes = tuple(gt_classes) if gt_classes is not None else tuple(
            {obj.cls for obj in objects}
        )
        ground_truth = GroundTruth(possible=possible, object_classes=classes)
    return EventTrace(event_id=event_id, frames=tuple(frames), ground_truth=ground_truth)
