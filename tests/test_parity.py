"""Output parity: a fixed corpus must classify to the same bytes.

The corpus is built with the program's own generator and by hand: every
scenario kind for every scoreable class at noise 0 and 2, a scene of 20
objects and 4 walls, and two objects close enough to contest one
association pool (once labelled wrongly, so exceptions are recorded,
promoted and applied).  It is classified once labelled, from an empty
knowledge base, and once unlabelled against the knowledge base that pass
left.  The SHA-256 digests below were recorded from that run; a change
that alters verdicts or the knowledge base on purpose records new ones
and says why.

A second corpus holds one event per break shape the first lacks (a late
start, two gaps in one track, a wall-covered gap, a gap running to the
end, a jump on the first frame after a gap, a one-frame class blip, a
switch and a switch back, a switch whose run spans a gap) and is
classified the same way, from its own empty knowledge base.
"""
import dataclasses
import hashlib

from curiophys import KnowledgeBase, ObjectClass, ScenarioKind, build_spec, generate_event
from curiophys.curiosity import Flag, encode_verdicts, process_stream
from curiophys.knowledge import save_kb
from curiophys.tracker import trace_discontinuities, track_event
from curiophys.trace_model import SCOREABLE_CLASSES, Detection
from trace_builders import build_trace, linear_script

LABELLED_VERDICTS_SHA256 = "4dccd69daa349cb6a6a9e32b2b134dac294dfd3502a40c2aa459e8d37d232fbc"
UNLABELLED_VERDICTS_SHA256 = "732295717fe71acb78bb3268f60c85da42b3cbf80d8ecc93a395e615bc2c1ef0"
KB_SHA256 = "67510d38d97a6986785c0d27ad19d545c1e60c945f56509c90655cbe98b0f370"

BREAKS_LABELLED_VERDICTS_SHA256 = "0ce585658552201652c56f66d2bf39969f88bd44ed623710a47ae72bdd4bc3fc"
BREAKS_UNLABELLED_VERDICTS_SHA256 = "344842e538d380e1950cdc67c2f33f2cca54f09f165c15e23915f725be330dd5"
BREAKS_KB_SHA256 = "fad6108a43fc939d32e7d618f6906336b656deece61cb286e1435f37e792d499"

WALLS = (
    (100.0, 20.0, 40.0, 120.0),
    (420.0, 20.0, 40.0, 120.0),
    (100.0, 220.0, 40.0, 120.0),
    (420.0, 220.0, 40.0, 120.0),
)


def _generated():
    traces = []
    for kind in ScenarioKind:
        for cls in SCOREABLE_CLASSES:
            for noise in (0.0, 2.0):
                trace = generate_event(build_spec(kind, object_class=cls, noise_sigma=noise, seed=7))
                traces.append(dataclasses.replace(trace, event_id=f"{trace.event_id}-n{noise:g}"))
    return traces


def _crowded():
    # a 5 x 4 grid moving right in step; an object whose center lies in a
    # wall is hidden there, so the walls explain the gaps they cause
    objects = []
    for r in range(4):
        for c in range(5):
            start = (30.0 + 120.0 * c, 40.0 + 90.0 * r)
            path = linear_script(start, (2.5, 0.2), range(40), cls=SCOREABLE_CLASSES[(r + c) % 3])
            path.centers = {
                t: xy
                for t, xy in path.centers.items()
                if not any(x <= xy[0] <= x + w and y <= xy[1] <= y + h for x, y, w, h in WALLS)
            }
            objects.append(path)
    trace = build_trace("crowded", 40, objects, possible=True)
    walls = tuple(Detection.build(ObjectClass.WALL, 0.9, bbox) for bbox in WALLS)
    return dataclasses.replace(trace, frames=tuple(frame + walls for frame in trace.frames))


def _contested(event_id, vanish):
    # 30 px apart under a 50 px gate: both tracks face both detections in
    # every frame; with vanish the sphere misses frames 10 and 11
    sphere = linear_script((100.0, 100.0), (3.0, 0.0), range(20), cls=ObjectClass.SPHERE)
    cone = linear_script((130.0, 100.0), (3.0, 0.0), range(20), cls=ObjectClass.CONE)
    if vanish:
        del sphere.centers[10], sphere.centers[11]
    return build_trace(event_id, 20, [sphere, cone], possible=True)


def _corpus():
    contested = [_contested("contested", False)]
    contested += [_contested(f"contested-vanish-{n}", True) for n in range(4)]
    return _generated() + [_crowded()] + contested


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_a_fixed_corpus_classifies_to_the_recorded_bytes():
    corpus = _corpus()
    kb = KnowledgeBase()
    labelled = process_stream(corpus, kb)
    unlabelled = process_stream([dataclasses.replace(t, ground_truth=None) for t in corpus], kb)
    # the corpus reaches the paths it guards
    assert any(v.flag is Flag.EXCEPTION for v in labelled)
    assert any(v.exception_promoted for v in labelled)
    assert all(v.z is not None for v in unlabelled)
    assert _sha256(encode_verdicts(labelled).encode()) == LABELLED_VERDICTS_SHA256
    assert _sha256(encode_verdicts(unlabelled).encode()) == UNLABELLED_VERDICTS_SHA256
    assert _sha256(save_kb(kb)) == KB_SHA256


BREAK_FRAMES = 24
BREAK_WALL = (120.0, 40.0, 60.0, 200.0)


def _break_path(cls=ObjectClass.SPHERE, frames=range(BREAK_FRAMES), gaps=(), classes=None, shift=None):
    # 8 px a frame to the right; shift=(frame, dx) moves that center and every later one
    script = linear_script((40.0, 140.0), (8.0, 0.5), frames, cls=cls)
    for t in gaps:
        del script.centers[t]
    if shift is not None:
        start, dx = shift
        for t, (x, y) in script.centers.items():
            if t >= start:
                script.centers[t] = (x + dx, y)
    script.classes = dict(classes or {})
    return script


def _behind_the_wall():
    script = _break_path(cls=ObjectClass.CONE)
    left, right = BREAK_WALL[0], BREAK_WALL[0] + BREAK_WALL[2]
    script.centers = {t: xy for t, xy in script.centers.items() if not left <= xy[0] <= right}
    return script


# event id -> (object script, wall bbox, possible, the object's breaks)
BREAK_SHAPES = {
    "late-start": (_break_path(frames=range(6, BREAK_FRAMES)), None, False, [("appear", 0, 5)]),
    "two-gaps": (
        _break_path(cls=ObjectClass.CUBE, gaps=(5, 6, 14, 15, 16)),
        None,
        False,
        [("vanish", 5, 6), ("appear", 5, 6), ("vanish", 14, 16), ("appear", 14, 16)],
    ),
    "wall-gap": (_behind_the_wall(), BREAK_WALL, True, [("vanish", 10, 17), ("appear", 10, 17)]),
    "gap-to-end": (
        _break_path(cls=ObjectClass.CONE, frames=range(BREAK_FRAMES - 5)),
        None,
        False,
        [("vanish", 19, 23)],
    ),
    "jump-after-gap": (
        _break_path(gaps=(9, 10), shift=(11, 35.0)),
        None,
        False,
        [("vanish", 9, 10), ("appear", 9, 10), ("jump", 11, 11)],
    ),
    "blip": (_break_path(cls=ObjectClass.CUBE, classes={8: ObjectClass.SPHERE}), None, True, []),
    "switch-back": (
        _break_path(classes={t: ObjectClass.CONE for t in range(8, 13)}),
        None,
        False,
        [("shape-switch", 8, 8), ("shape-switch", 13, 13)],
    ),
    "switch-over-gap": (
        # cube at frames 10, 13 and 14: three observations, one run
        _break_path(
            cls=ObjectClass.CONE, gaps=(11, 12), classes={t: ObjectClass.CUBE for t in range(10, 15)}
        ),
        None,
        False,
        [("shape-switch", 10, 10), ("vanish", 11, 12), ("appear", 11, 12), ("shape-switch", 15, 15)],
    ),
}


def _break_corpus():
    return [
        build_trace(
            event_id, BREAK_FRAMES, [script], wall_bbox=wall, possible=possible, gt_classes=[script.cls]
        )
        for event_id, (script, wall, possible, _) in BREAK_SHAPES.items()
    ]


def test_a_corpus_of_break_shapes_classifies_to_the_recorded_bytes():
    corpus = _break_corpus()
    # the corpus reaches the shapes it guards
    for trace, (_, _, _, breaks) in zip(corpus, BREAK_SHAPES.values()):
        found = trace_discontinuities(track_event(trace), BREAK_FRAMES)
        assert [(d.kind.value, d.start_frame, d.end_frame) for d in found] == breaks, trace.event_id
    kb = KnowledgeBase()
    labelled = process_stream(corpus, kb)
    unlabelled = process_stream([dataclasses.replace(t, ground_truth=None) for t in corpus], kb)
    assert _sha256(encode_verdicts(labelled).encode()) == BREAKS_LABELLED_VERDICTS_SHA256
    assert _sha256(encode_verdicts(unlabelled).encode()) == BREAKS_UNLABELLED_VERDICTS_SHA256
    assert _sha256(save_kb(kb)) == BREAKS_KB_SHA256
