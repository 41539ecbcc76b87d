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
"""
import dataclasses
import hashlib

from curiophys import KnowledgeBase, ObjectClass, ScenarioKind, build_spec, generate_event
from curiophys.curiosity import Flag, encode_verdicts, process_stream
from curiophys.knowledge import save_kb
from curiophys.trace_model import SCOREABLE_CLASSES, Detection
from trace_builders import build_trace, linear_script

LABELLED_VERDICTS_SHA256 = "4dccd69daa349cb6a6a9e32b2b134dac294dfd3502a40c2aa459e8d37d232fbc"
UNLABELLED_VERDICTS_SHA256 = "732295717fe71acb78bb3268f60c85da42b3cbf80d8ecc93a395e615bc2c1ef0"
KB_SHA256 = "67510d38d97a6986785c0d27ad19d545c1e60c945f56509c90655cbe98b0f370"

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
