"""The benchmark's own scenario script: seeded inputs and what they must give.

Every trace the program sees is written here, in the line-delimited trace
format, from a seed; nothing comes from the program's own generator.  Each
scripted object keeps what the script knows about it (its kind, the frames
it is visible in, its confidence, its classes), so the checks can hold the
program's verdicts against the script rather than against a stored copy of
earlier output.

Plain standard library only: the benchmark driver imports this without
importing the program.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

SCENE_W, SCENE_H = 640.0, 360.0
EDGE = 40.0
CLEARANCE = 10.0
SIZES = {"sphere": (24.0, 24.0), "cone": (20.0, 34.0), "cube": (32.0, 32.0)}
CLASSES = ("sphere", "cone", "cube")
CLASS_ORDER = ("sphere", "cone", "cube", "wall", "unknown")
IMPACT = {"sphere": 10.0, "cone": 100.0, "cube": 1000.0}
WALL_CONFIDENCE = 0.9

VISIBLE = "possible-visible"
OCCLUDED = "possible-occluded"
DISAPPEAR = "impossible-disappear"
TELEPORT = "impossible-teleport"
SHAPE_CHANGE = "impossible-shape-change"
KINDS = (VISIBLE, OCCLUDED, DISAPPEAR, TELEPORT, SHAPE_CHANGE)
POSSIBLE_KINDS = (VISIBLE, OCCLUDED)

# The continuity breaks the tracker must report for each scripted kind.
BREAKS = {
    VISIBLE: (),
    OCCLUDED: ("appear", "vanish"),
    DISAPPEAR: ("vanish",),
    TELEPORT: ("jump",),
    SHAPE_CHANGE: ("shape-switch",),
}

# Detector noise (px, per axis) of the timed workloads: light enough that
# every verdict is right at the parent commit; see the accuracy sweep.
NOISE_SIGMA = 0.5

Rect = Tuple[float, float, float, float]


@dataclass
class ScriptedObject:
    kind: str
    cls: str
    start: Tuple[float, float]
    velocity: Tuple[float, float]
    confidence: float
    frames: int
    wall: Optional[Rect] = None
    jump: float = 0.0
    visible: Tuple[bool, ...] = ()
    first_bbox: Optional[Rect] = None

    @property
    def violation_frame(self) -> int:
        return self.frames // 2

    @property
    def switched_cls(self) -> str:
        return CLASSES[(CLASSES.index(self.cls) + 1) % len(CLASSES)]

    def class_at(self, t: int) -> str:
        if self.kind == SHAPE_CHANGE and t >= self.violation_frame:
            return self.switched_cls
        return self.cls

    def center(self, t: int) -> Tuple[float, float]:
        x = self.start[0] + self.velocity[0] * t
        y = self.start[1] + self.velocity[1] * t
        if self.kind == TELEPORT and t >= self.violation_frame:
            speed = math.hypot(*self.velocity)
            x += self.jump * self.velocity[0] / speed
            y += self.jump * self.velocity[1] / speed
        return (x, y)

    @property
    def visible_frames(self) -> int:
        return sum(self.visible)

    @property
    def resolved_class(self) -> str:
        """Majority class over visible frames, ties to canonical order."""
        counts: dict = {}
        for t, seen in enumerate(self.visible):
            if seen:
                counts[self.class_at(t)] = counts.get(self.class_at(t), 0) + 1
        return max(counts, key=lambda c: (counts[c], -CLASS_ORDER.index(c)))

    @property
    def shown_classes(self) -> Tuple[str, ...]:
        return (self.cls, self.switched_cls) if self.kind == SHAPE_CHANGE else (self.cls,)


@dataclass
class ScriptedEvent:
    event_id: str
    frames: int
    objects: Tuple[ScriptedObject, ...]
    walls: Tuple[Rect, ...]
    label: Optional[bool]  # ground-truth "possible", None when unlabelled
    lines: Tuple[str, ...] = ()

    @property
    def physics_possible(self) -> bool:
        return all(o.kind in POSSIBLE_KINDS for o in self.objects)

    @property
    def magic(self) -> bool:
        return self.label is not None and self.label != self.physics_possible

    @property
    def label_classes(self) -> Tuple[str, ...]:
        shown = {c for o in self.objects for c in o.shown_classes}
        return tuple(c for c in CLASS_ORDER if c in shown) + (("wall",) if self.walls else ())

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _wall_for(obj: ScriptedObject) -> Rect:
    """A wall hiding the object's center over frames [0.45N, 0.62N] only."""
    n = obj.frames
    t1, t2 = max(1, int(0.45 * n)), min(n - 2, int(0.62 * n))
    xs = [obj.center(t)[0] for t in range(t1, t2 + 1)]
    ys = [obj.center(t)[1] for t in range(t1, t2 + 1)]
    vx, vy = obj.velocity
    x0, x1 = min(xs) - 0.4 * abs(vx), max(xs) + 0.4 * abs(vx)
    y0, y1 = min(ys) - 0.4 * abs(vy), max(ys) + 0.4 * abs(vy)
    # widen only across the main direction of motion, so frames outside
    # the window stay visible
    if abs(vx) < abs(vy) and x1 - x0 < 40:
        x0, x1 = (x0 + x1) / 2 - 20, (x0 + x1) / 2 + 20
    if abs(vy) <= abs(vx) and y1 - y0 < 40:
        y0, y1 = (y0 + y1) / 2 - 20, (y0 + y1) / 2 + 20
    return (round(x0, 3), round(y0, 3), round(x1 - x0, 3), round(y1 - y0, 3))


def _inside(rect: Rect, point: Tuple[float, float]) -> bool:
    x, y, w, h = rect
    return x <= point[0] <= x + w and y <= point[1] <= y + h


def _bbox(cls: str, cx: float, cy: float) -> Rect:
    w, h = SIZES[cls]
    return (round(cx - w / 2, 4), round(cy - h / 2, 4), w, h)


def _det(cls: str, conf: float, bbox: Rect) -> dict:
    return {"class": cls, "confidence": conf, "bbox": list(bbox)}


def render(
    event_id: str,
    frames: int,
    objects: Sequence[ScriptedObject],
    label: Optional[bool],
    rng: random.Random,
    sigma: float = NOISE_SIGMA,
    miss_p: float = 0.0,
) -> ScriptedEvent:
    """Draw the noisy detections of every frame and fix what each object shows.

    A wall hides its object while the noise-free center lies inside it; a
    disappearing object is gone from its violation frame on; with miss_p a
    visible object is also dropped at random, as a detector would miss it.
    Detections of one frame are shuffled, since the tracker must not depend
    on their order.
    """
    objects = list(objects)
    walls = tuple(o.wall for o in objects if o.wall is not None)
    for o in objects:
        for t in range(frames):
            cx, cy = o.center(t)
            if not (CLEARANCE <= cx <= SCENE_W - CLEARANCE and CLEARANCE <= cy <= SCENE_H - CLEARANCE):
                raise ValueError(f"{event_id}: scripted path leaves the scene at frame {t}")
            for other in objects:
                if other is not o and other.wall is not None and _inside(other.wall, (cx, cy)):
                    raise ValueError(f"{event_id}: a wall hides an object it was not built for")
    lines = []
    visible = {id(o): [] for o in objects}
    for t in range(frames):
        dets = []
        for o in objects:
            cx, cy = o.center(t)
            seen = not (o.wall is not None and _inside(o.wall, (cx, cy)))
            if o.kind == DISAPPEAR and t >= o.violation_frame:
                seen = False
            nx, ny = cx + rng.gauss(0.0, sigma), cy + rng.gauss(0.0, sigma)
            if seen and miss_p and rng.random() < miss_p:
                seen = False
            visible[id(o)].append(seen)
            if seen:
                bbox = _bbox(o.class_at(t), nx, ny)
                if t == 0:
                    o.first_bbox = bbox
                dets.append(_det(o.class_at(t), o.confidence, bbox))
        dets.extend(_det("wall", WALL_CONFIDENCE, w) for w in walls)
        rng.shuffle(dets)
        lines.append(json.dumps({"frame_index": t, "detections": dets}, sort_keys=True))
    for o in objects:
        o.visible = tuple(visible[id(o)])
    event = ScriptedEvent(event_id, frames, tuple(objects), walls, label)
    header: dict = {"event_id": event_id, "frame_count": frames}
    if label is not None:
        header["ground_truth"] = {"possible": label, "object_classes": list(event.label_classes)}
    event.lines = (json.dumps(header, sort_keys=True),) + tuple(lines)
    return event


def _solo(kind: str, cls: str, frames: int, velocity: Tuple[float, float], rng: random.Random) -> ScriptedObject:
    """One object crossing the scene, starting near the edge it moves away from."""
    def axis(v: float, extent: float) -> float:
        return EDGE if v > 0 else extent - EDGE if v < 0 else extent / 2

    start = (axis(velocity[0], SCENE_W) + rng.uniform(-5, 5), axis(velocity[1], SCENE_H) + rng.uniform(-5, 5))
    obj = ScriptedObject(
        kind, cls, start, velocity, round(rng.uniform(0.5, 0.9), 3), frames,
        jump=max(10.5 * math.hypot(*velocity), 28.0),
    )
    if kind == OCCLUDED:
        obj.wall = _wall_for(obj)
    return obj


SOLO_FRAMES = 90
# Direction families of the single-object corpus; each seed jitters the speed.
SOLO_VELOCITIES = ((3.0, 0.0), (-2.5, 1.0), (2.0, -1.5))


def solo_corpus(
    seed: str,
    variants: int = 3,
    magic: Sequence[Tuple[str, int]] = (),
    labelled: bool = True,
    sigma: float = NOISE_SIGMA,
    miss_p: float = 0.0,
) -> list[ScriptedEvent]:
    """Single-object events: kinds x classes x direction variants, shuffled.

    magic lists (kind, count) pairs of extra events whose label contradicts
    their physics, so the program records exceptions and promotes them.
    """
    rng = random.Random(seed)
    plan = [(kind, cls, v, None) for v in range(variants) for kind in KINDS for cls in CLASSES]
    plan += [(kind, CLASSES[i % 3], i % variants, kind not in POSSIBLE_KINDS) for kind, n in magic for i in range(n)]
    rng.shuffle(plan)
    events = []
    for i, (kind, cls, v, forced_label) in enumerate(plan):
        vx, vy = SOLO_VELOCITIES[v % len(SOLO_VELOCITIES)]
        scale = rng.uniform(0.9, 1.1)
        obj = _solo(kind, cls, SOLO_FRAMES, (round(vx * scale, 3), round(vy * scale, 3)), rng)
        label = (forced_label if forced_label is not None else kind in POSSIBLE_KINDS) if labelled else None
        tag = "magic" if forced_label is not None else "solo"
        events.append(render(f"{tag}-{i:03d}-{kind}-{cls}", SOLO_FRAMES, [obj], label, rng, sigma, miss_p))
    return events


# Crowded scenes: a COLS x ROWS grid of objects moving in step, so every pair
# stays a full cell apart (128 x 90 px, well beyond the 50 px association
# gate) and a wall only ever hides the object it was placed for.
COLS, ROWS = 5, 4
CROWD_FRAMES = 24
CROWD_WALLS = 4
CROWD_VELOCITIES = ((1.5, 0.3), (-1.5, 0.3), (1.5, -0.3), (-1.5, -0.3))
IMPOSSIBLE_KINDS = (DISAPPEAR, TELEPORT, SHAPE_CHANGE)


def crowded_scene(index: int, impossible: int, rng: random.Random, cols: int = COLS, rows: int = ROWS) -> ScriptedEvent:
    cw, ch = SCENE_W / cols, SCENE_H / rows
    vx, vy = CROWD_VELOCITIES[index % len(CROWD_VELOCITIES)]
    scale = rng.uniform(0.9, 1.1)
    velocity = (round(vx * scale, 3), round(vy * scale, 3))
    travel_x = velocity[0] * (CROWD_FRAMES - 1)
    travel_y = velocity[1] * (CROWD_FRAMES - 1)
    cells = [(c, r) for r in range(rows) for c in range(cols)]
    n = len(cells)
    kinds = [VISIBLE] * n
    # impossible objects sit off the side columns, so a jump stays in the scene
    inner = [i for i, (c, _) in enumerate(cells) if 0 < c < cols - 1]
    rogue = rng.sample(inner, impossible)
    for k, cell in enumerate(rogue):
        kinds[cell] = IMPOSSIBLE_KINDS[(index + k) % len(IMPOSSIBLE_KINDS)]
    for cell in rng.sample([i for i in range(n) if i not in rogue], CROWD_WALLS):
        kinds[cell] = OCCLUDED
    objects = []
    for (c, r), kind in zip(cells, kinds):
        # centre the whole path in the cell, with a few px of jitter
        x = c * cw + cw / 2 - travel_x / 2 + rng.uniform(-4, 4)
        y = r * ch + ch / 2 - travel_y / 2 + rng.uniform(-4, 4)
        obj = ScriptedObject(
            kind, rng.choice(CLASSES), (x, y), velocity, round(rng.uniform(0.5, 0.9), 3),
            CROWD_FRAMES, jump=30.0,
        )
        if kind == OCCLUDED:
            obj.wall = _wall_for(obj)
        objects.append(obj)
    return render(f"crowd-{index:03d}", CROWD_FRAMES, objects, None, rng)


def crowded_corpus(seed: str, scenes: int = 20, cols: int = COLS, rows: int = ROWS) -> list[ScriptedEvent]:
    """Unlabelled scenes; every other one holds one or two impossible objects."""
    rng = random.Random(seed)
    return [
        crowded_scene(i, 0 if i % 2 == 0 else 1 + (i // 2) % 2, rng, cols, rows)
        for i in range(scenes)
    ]


def learning_corpus(seed: str, per_class: int = 4) -> list[ScriptedEvent]:
    """Labelled possible events that teach the class means crowded infers from."""
    rng = random.Random(seed)
    events = []
    for i in range(per_class * len(CLASSES)):
        cls = CLASSES[i % 3]
        kind = POSSIBLE_KINDS[(i // 3) % 2]
        vx, vy = CROWD_VELOCITIES[i % len(CROWD_VELOCITIES)]
        velocity = (vx * 2, vy * 2)
        events.append(render(f"learn-{i:03d}-{kind}-{cls}", CROWD_FRAMES, [_solo(kind, cls, CROWD_FRAMES, velocity, rng)], True, rng))
    return events
