import json
import math
import random
import sys
from dataclasses import replace

import pytest

from curiophys import ObjectClass, ScenarioKind, build_spec, encode_trace, generate_event, parse_trace
from curiophys import ingest
from curiophys.ingest import (
    ScenarioError,
    ScenarioSpec,
    TraceParseError,
    default_occluder,
    read_trace_file,
    scripted_violation_frame,
    validate_trace,
    write_trace_file,
)
from curiophys.trace_model import DEFAULT_SCENE, Detection, EventTrace, GroundTruth, SceneBounds

ALL_KINDS = list(ScenarioKind)
CLASSES = (ObjectClass.SPHERE, ObjectClass.CONE, ObjectClass.CUBE)


def test_round_trip_all_kinds():
    for kind in ALL_KINDS:
        trace = generate_event(build_spec(kind, seed=3, noise_sigma=0.8))
        assert parse_trace(encode_trace(trace)) == trace


def test_round_trip_via_files(tmp_path):
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_OCCLUDED, seed=5))
    path = tmp_path / "event.jsonl"
    write_trace_file(trace, path)
    assert read_trace_file(path) == trace


def test_generator_is_deterministic():
    spec = build_spec(ScenarioKind.IMPOSSIBLE_TELEPORT, seed=11, noise_sigma=1.2)
    assert generate_event(spec) == generate_event(spec)
    assert encode_trace(generate_event(spec)) == encode_trace(generate_event(spec))


def test_seed_changes_noisy_traces_only():
    base = build_spec(ScenarioKind.POSSIBLE_VISIBLE, noise_sigma=1.0, seed=1)
    other = build_spec(ScenarioKind.POSSIBLE_VISIBLE, noise_sigma=1.0, seed=2)
    assert generate_event(base) != generate_event(other)
    # without noise the seed only names the event
    clean1 = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, seed=1))
    clean2 = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, seed=2))
    assert clean1.frames == clean2.frames


def test_ground_truth_flags_per_kind():
    for kind in ALL_KINDS:
        trace = generate_event(build_spec(kind))
        assert trace.ground_truth is not None
        assert trace.ground_truth.possible == kind.possible


def test_constant_velocity_between_frames():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, velocity=(2.0, 1.0)))
    centers = [f[0].center for f in trace.frames]
    for a, b in zip(centers, centers[1:]):
        assert b[0] - a[0] == pytest.approx(2.0, abs=1e-9)
        assert b[1] - a[1] == pytest.approx(1.0, abs=1e-9)


def test_occluded_gap_matches_occluder_geometry():
    spec = build_spec(ScenarioKind.POSSIBLE_OCCLUDED)
    trace = generate_event(spec)
    assert spec.occluder is not None
    for frame in trace.frames:
        objects = [d for d in frame if d.object_class is not ObjectClass.WALL]
        walls = [d for d in frame if d.object_class is ObjectClass.WALL]
        assert len(walls) == 1  # occluder detected every frame
        if objects:
            (cx, cy), (ox, oy, ow, oh) = objects[0].center, spec.occluder
            assert not (ox <= cx <= ox + ow and oy <= cy <= oy + oh)
    gaps = [t for t, f in enumerate(trace.frames) if len(f) == 1]
    assert gaps == list(range(min(gaps), max(gaps) + 1))  # one contiguous gap
    assert 0 < min(gaps) and max(gaps) < trace.frame_count - 1


def test_disappear_detections_cease_at_scripted_frame():
    spec = build_spec(ScenarioKind.IMPOSSIBLE_DISAPPEAR)
    trace = generate_event(spec)
    cut = scripted_violation_frame(spec)
    for t, frame in enumerate(trace.frames):
        if t < cut:
            assert len(frame) == 1
        else:
            assert frame == ()


def test_teleport_jumps_at_least_ten_per_frame_displacements():
    spec = build_spec(ScenarioKind.IMPOSSIBLE_TELEPORT, velocity=(3.0, 0.0))
    trace = generate_event(spec)
    cut = scripted_violation_frame(spec)
    before = trace.frames[cut - 1][0].center
    after = trace.frames[cut][0].center
    jump = math.dist(before, after)
    assert jump >= 10 * 3.0


def test_shape_change_switches_class_and_descriptor():
    spec = build_spec(ScenarioKind.IMPOSSIBLE_SHAPE_CHANGE, object_class=ObjectClass.SPHERE)
    trace = generate_event(spec)
    cut = scripted_violation_frame(spec)
    for t, (det,) in enumerate(trace.frames):
        if t < cut:
            assert det.object_class is ObjectClass.SPHERE
        else:
            assert det.object_class is ObjectClass.CONE
    d_before = trace.frames[cut - 1][0]
    d_after = trace.frames[cut][0]
    assert d_before.shape_descriptor != d_after.shape_descriptor
    # trajectory itself stays continuous
    step = math.dist(d_before.center, d_after.center)
    assert step == pytest.approx(3.0, abs=1e-6)


def test_noise_jitters_centers_only():
    clean = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, seed=4))
    noisy = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, seed=4, noise_sigma=1.5))
    for cf, nf in zip(clean.frames, noisy.frames):
        (c,), (n,) = cf, nf
        assert c.object_class is n.object_class
        assert c.confidence == n.confidence
        assert (c.bbox[2], c.bbox[3]) == (n.bbox[2], n.bbox[3])
        assert c.center != n.center


def test_scenario_spec_validation():
    with pytest.raises(ScenarioError, match="frame_count"):
        generate_event(ScenarioSpec(ScenarioKind.POSSIBLE_VISIBLE, frame_count=5))
    with pytest.raises(ScenarioError, match="occluder"):
        generate_event(ScenarioSpec(ScenarioKind.POSSIBLE_OCCLUDED))
    with pytest.raises(ScenarioError, match="occluder"):
        generate_event(
            ScenarioSpec(
                ScenarioKind.IMPOSSIBLE_DISAPPEAR, occluder=(0, 0, 50, 50)
            )
        )
    with pytest.raises(ScenarioError, match="wall"):
        generate_event(ScenarioSpec(ScenarioKind.POSSIBLE_VISIBLE, object_class=ObjectClass.WALL))
    with pytest.raises(ScenarioError, match="leaves the scene"):
        generate_event(
            ScenarioSpec(ScenarioKind.POSSIBLE_VISIBLE, velocity=(10.0, 0.0), frame_count=90)
        )


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.5])
def test_scenario_spec_rejects_a_noise_sigma_that_is_not_a_finite_non_negative_number(sigma):
    # NaN fails every comparison, so `< 0` alone lets it through
    with pytest.raises(ScenarioError, match="noise_sigma must be a finite number >= 0"):
        generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, noise_sigma=sigma))


@pytest.mark.parametrize(
    "velocity", [(float("nan"), 0.0), (0.0, float("inf")), (-float("inf"), 3.0)]
)
def test_scenario_spec_rejects_a_velocity_that_is_not_finite(velocity):
    # a NaN velocity used to be reported as a path that leaves the scene
    with pytest.raises(ScenarioError, match="velocity must be two finite numbers"):
        generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, velocity=velocity))


def test_build_spec_fills_default_occluder():
    spec = build_spec(ScenarioKind.POSSIBLE_OCCLUDED)
    assert spec.occluder is not None
    assert spec.occluder == default_occluder(spec)


@pytest.mark.parametrize(
    "velocity, start",
    [((3.0, 0.0), (40.0, 180.0)), ((-2.0, 0.0), (600.0, 180.0)), ((0.0, -1.0), (320.0, 320.0)),
     ((0.0, 2.0), (320.0, 40.0)), ((0.0, 0.0), (320.0, 180.0))],
)
def test_a_path_starts_at_the_edge_it_moves_away_from(velocity, start):
    # per axis: v > 0 starts at the margin, v < 0 at extent - margin, v = 0 at the centre
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, velocity=velocity))
    assert trace.frames[0][0].center == start


def test_generator_limits_are_inclusive():
    assert generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, frame_count=10)).frame_count == 10
    for confidence in (0.0, 1.0):
        trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, confidence=confidence))
        assert trace.frames[0][0].confidence == confidence
    with pytest.raises(ScenarioError, match=r"confidence must be in \[0, 1\], got 1.5"):
        generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, confidence=1.5))
    # paths that end exactly PATH_CLEARANCE (10 px) from each edge
    for velocity, frames, end in (
        ((1.0, 0.0), 591, (630.0, 180.0)),
        ((-1.0, 0.0), 591, (10.0, 180.0)),
        ((0.0, 1.0), 311, (320.0, 350.0)),
        ((0.0, -1.0), 311, (320.0, 10.0)),
    ):
        spec = build_spec(ScenarioKind.POSSIBLE_VISIBLE, velocity=velocity, frame_count=frames)
        assert generate_event(spec).frames[-1][0].center == end


def test_a_still_teleport_jumps_along_x():
    spec = build_spec(ScenarioKind.IMPOSSIBLE_TELEPORT, velocity=(0.0, 0.0))
    trace = generate_event(spec)
    cut = scripted_violation_frame(spec)
    assert trace.frames[cut - 1][0].center == (320.0, 180.0)
    assert trace.frames[cut][0].center == (348.0, 180.0)


def test_default_occluder_covers_the_mid_path_at_a_fixed_cross_size():
    assert default_occluder(build_spec(ScenarioKind.POSSIBLE_VISIBLE, velocity=(0.0, 1.0))) == (
        305.0, 79.6, 30.0, 15.8
    )
    assert default_occluder(build_spec(ScenarioKind.POSSIBLE_VISIBLE, velocity=(1.0, 0.0))) == (
        79.6, 150.0, 15.8, 60.0
    )
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_OCCLUDED))
    assert trace.ground_truth.object_classes == (ObjectClass.SPHERE, ObjectClass.WALL)


@pytest.mark.parametrize(
    "occluder, hidden",
    [
        ((320.0, 170.0, 10.0, 20.0), True),  # centre on the left edge
        ((310.0, 170.0, 10.0, 20.0), True),  # on the right edge
        ((310.0, 180.0, 20.0, 10.0), True),  # on the top edge
        ((310.0, 170.0, 20.0, 10.0), True),  # on the bottom edge
        ((math.nextafter(320.0, 400.0), 170.0, 10.0, 20.0), False),
        ((310.0, math.nextafter(170.0, 0.0), 20.0, 10.0), False),
    ],
)
def test_an_occluder_hides_a_centre_on_its_edges(occluder, hidden):
    # a still object at the scene centre (320, 180)
    spec = ScenarioSpec(ScenarioKind.POSSIBLE_VISIBLE, velocity=(0.0, 0.0), occluder=occluder)
    trace = generate_event(spec)
    classes = {d.object_class for frame in trace.frames for d in frame}
    assert classes == ({ObjectClass.WALL} if hidden else {ObjectClass.SPHERE, ObjectClass.WALL})


def test_event_ids_unique_across_kinds_classes_seeds():
    ids = {
        generate_event(build_spec(kind, object_class=cls, seed=seed)).event_id
        for kind in ALL_KINDS
        for cls in CLASSES
        for seed in range(3)
    }
    assert len(ids) == len(ALL_KINDS) * len(CLASSES) * 3


def test_parse_rejects_malformed_lines():
    with pytest.raises(TraceParseError, match="line 1"):
        parse_trace("")
    with pytest.raises(TraceParseError, match="line 1.*invalid JSON"):
        parse_trace("{not json\n")
    with pytest.raises(TraceParseError, match="line 1.*event_id"):
        parse_trace('{"frame_count": 0}\n')
    with pytest.raises(TraceParseError, match="line 1: frame_count must be"):
        parse_trace('{"event_id": "e", "frame_count": true}\n{"frame_index": 0}\n')
    header = '{"event_id": "e", "frame_count": 1}\n'
    with pytest.raises(TraceParseError, match="line 2.*frame_index"):
        parse_trace(header + '{"detections": []}\n')
    with pytest.raises(TraceParseError, match="line 3: frame_index must be"):
        parse_trace('{"event_id": "e", "frame_count": 2}\n{"frame_index": 0}\n{"frame_index": true}\n')
    with pytest.raises(TraceParseError, match="line 2.*bbox"):
        parse_trace(
            header
            + '{"frame_index": 0, "detections": [{"class": "sphere", "confidence": 0.5, "bbox": [1, 2]}]}\n'
        )
    with pytest.raises(TraceParseError, match="line 2"):
        parse_trace(
            header
            + '{"frame_index": 0, "detections": [{"class": "blob", "confidence": 0.5, "bbox": [1, 2, 3, 4]}]}\n'
        )
    with pytest.raises(TraceParseError, match="^line 2: record must be a JSON object$"):
        parse_trace(header + "[1]\n")
    with pytest.raises(TraceParseError, match="^line 2: detections must be an array$"):
        parse_trace(header + '{"frame_index": 0, "detections": 5}\n')
    for ground_truth, message in (
        (5, "ground_truth must be an object"),
        ({"possible": True, "object_classes": "sphere"}, "ground_truth.object_classes must be an array"),
        ({"possible": True, "object_classes": ["blob"]}, "unknown object class 'blob'"),
    ):
        labelled = json.dumps({"event_id": "e", "frame_count": 1, "ground_truth": ground_truth})
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(labelled + '\n{"frame_index": 0}\n')
        assert str(excinfo.value) == f"line 1: {message}"


def test_parse_rejects_bytes_that_are_not_utf8(tmp_path):
    with pytest.raises(TraceParseError, match="line 1: not valid UTF-8"):
        parse_trace(b'\xff\xfe{"event_id": "e", "frame_count": 0}\n')
    path = tmp_path / "latin1.jsonl"
    text = '{"event_id": "e", "frame_count": 1}\n{"frame_index": 0, "note": "caf\xe9"}\n'
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(TraceParseError, match="line 2: not valid UTF-8"):
        read_trace_file(path)


@pytest.mark.parametrize("value", [None, 7, 1.5, True, {"a": 1}, ["e"]])
def test_parse_rejects_a_non_string_event_id(value):
    header = json.dumps({"event_id": value, "frame_count": 1})
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(header + '\n{"frame_index": 0}\n')
    assert str(excinfo.value) == f"line 1: event_id must be a string, got {value!r}"


def test_parse_rejects_inconsistent_header_count():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, frame_count=12))
    lines = encode_trace(trace).splitlines()
    header = json.loads(lines[0])
    header["frame_count"] = 99
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert str(excinfo.value) == "line 1: frame_count 99 != number of frame records 12"


def test_parse_rejects_string_boolean_ground_truth():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, frame_count=12))
    lines = encode_trace(trace).splitlines()
    header = json.loads(lines[0])
    header["ground_truth"]["possible"] = "false"
    with pytest.raises(TraceParseError, match="line 1: ground_truth.possible must be a boolean"):
        parse_trace("\n".join([json.dumps(header)] + lines[1:]) + "\n")


def _doctor_frame_5(edit) -> str:
    """A generated 12-frame trace whose frame 5 (line 7) detection went
    through edit(detection_dict)."""
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, frame_count=12))
    lines = encode_trace(trace).splitlines()
    frame = json.loads(lines[6])
    edit(frame["detections"][0])
    return "\n".join(lines[:6] + [json.dumps(frame)] + lines[7:]) + "\n"


def _set_field(field, value):
    def edit(det):
        if field == "confidence":
            det["confidence"] = value
        else:
            name, slot = field.rstrip("]").split("[")
            det[name][int(slot)] = value

    return edit


NUMBER_FIELDS = [
    "confidence",
    "bbox[0]",
    "bbox[1]",
    "bbox[2]",
    "bbox[3]",
    "shape_descriptor[0]",
    "shape_descriptor[1]",
]
NOT_NUMBERS = [
    ("true", True),
    ("string", "100"),
    ("nan", float("nan")),
    ("inf", float("inf")),
    ("-inf", float("-inf")),
    ("big-int", 10**400),  # too large for a float
]


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in NUMBER_FIELDS for _, v in NOT_NUMBERS],
    ids=[f"{f}-{name}" for f in NUMBER_FIELDS for name, _ in NOT_NUMBERS],
)
def test_parse_rejects_non_numeric_detection_field(field, value):
    doctored = _doctor_frame_5(_set_field(field, value))
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(doctored)
    assert str(excinfo.value) == f"line 7: {field} must be a finite number, got {value!r}"


# bboxes of the wrong length, which both callers word as the parser does
BBOX_SHAPES = [("bbox", (40.0, 50.0, 24.0)), ("bbox", (40.0, 50.0, 24.0, 24.0, 1.0))]


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in NUMBER_FIELDS for _, v in NOT_NUMBERS] + BBOX_SHAPES,
    ids=[f"{f}-{name}" for f in NUMBER_FIELDS for name, _ in NOT_NUMBERS]
    + ["bbox-3-entries", "bbox-5-entries"],
)
def test_validate_trace_words_a_bad_number_as_parse_trace_does(field, value):
    # a trace built in code whose only violation is one number or its bbox's length
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, frame_count=12))
    det = trace.frames[5][0]
    if field == "confidence":
        det = replace(det, confidence=value)
    elif field == "bbox":
        det = replace(det, bbox=value)
    else:
        name, slot = field.rstrip("]").split("[")
        values = list(getattr(det, name))
        values[int(slot)] = value
        det = replace(det, **{name: tuple(values)})
    frames = trace.frames[:5] + ((det,),) + trace.frames[6:]
    broken = replace(trace, frames=frames)
    [violation] = validate_trace(broken)
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(encode_trace(broken))
    where, _, words = violation.partition(": ")
    line, _, parsed_words = str(excinfo.value).partition(": ")
    assert (where, line) == ("frame 5, detection 0", "line 7")
    assert words == parsed_words


def test_parse_rejects_zero_height_without_descriptor():
    def edit(det):
        det["bbox"][3] = 0
        del det["shape_descriptor"]

    with pytest.raises(TraceParseError, match=r"^line 7: detection 0: bbox height must be > 0, got 0\.0$"):
        parse_trace(_doctor_frame_5(edit))


def test_parse_rejects_an_empty_shape_descriptor():
    def edit(det):
        det["shape_descriptor"] = []

    with pytest.raises(TraceParseError, match=r"^line 7: detection 0: shape_descriptor must not be empty$"):
        parse_trace(_doctor_frame_5(edit))


def test_parse_rejects_an_overflowing_bbox_center():
    # every entry is finite, but x + width/2 is not
    def edit(det):
        det["bbox"] = [1.7e308, 100, 1e308, 20]

    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(_doctor_frame_5(edit))
    assert str(excinfo.value) == "line 7: detection 0: bbox center x inf is not finite"


def _doctored(line_index, path, value) -> str:
    """A generated 12-frame trace whose record on line line_index + 1 has
    the field at path (keys and indices) set to value."""
    lines = encode_trace(generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, frame_count=12))).splitlines()
    record = json.loads(lines[line_index])
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    lines[line_index] = json.dumps(record)
    return "\n".join(lines) + "\n"


# Every contract rule a file can break; the three tests above pin the empty
# descriptor, a height of 0 without a descriptor and an overflowing center x.
CONTRACT_VIOLATIONS = {
    "unknown-class": (6, ("detections", 0, "class"), "unknown", "class 'unknown' not allowed in detections"),
    "confidence-above-1": (6, ("detections", 0, "confidence"), 1.5, "confidence 1.5 outside [0, 1]"),
    "confidence-below-0": (6, ("detections", 0, "confidence"), -0.25, "confidence -0.25 outside [0, 1]"),
    "width-0": (6, ("detections", 0, "bbox", 2), 0, "bbox width must be > 0, got 0.0"),
    "height-negative": (6, ("detections", 0, "bbox", 3), -2, "bbox height must be > 0, got -2.0"),
    "center-y-overflow": (
        6, ("detections", 0, "bbox"), [100, 1.7e308, 20, 1e308], "bbox center y inf is not finite"
    ),
    "descriptor-length": (
        6,
        ("detections", 0, "shape_descriptor"),
        [1.0, 0.5, 0.25],
        "shape_descriptor dimension 3 != 2 (established at frame 0)",
    ),
    "no-frames": (0, ("frame_count",), 0, "trace: must contain at least one frame"),
    "ground-truth-empty": (
        0, ("ground_truth", "object_classes"), [], "ground_truth: object_classes must be non-empty"
    ),
    "ground-truth-unknown": (
        0, ("ground_truth", "object_classes"), ["cube", "unknown"], "ground_truth: class 'unknown' not allowed"
    ),
}


@pytest.mark.parametrize("case", CONTRACT_VIOLATIONS)
def test_parse_names_the_line_and_detection_of_each_contract_violation(case):
    line_index, path, value, rule = CONTRACT_VIOLATIONS[case]
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(_doctored(line_index, path, value))
    where = "line 1" if line_index == 0 else f"line {line_index + 1}: detection 0"
    assert str(excinfo.value) == f"{where}: {rule}"


_GOOD = {"class": "sphere", "confidence": 0.6, "bbox": [100.0, 50.0, 24.0, 24.0], "shape_descriptor": [1.0, 0.5]}
_OVERCONFIDENT = {**_GOOD, "confidence": 1.5}
_NO_BOX = {"class": "sphere", "confidence": 0.6}

# a line's malformed records are named before any contract violation on it
LINE_ORDER = {
    "violation-then-malformed": ([_OVERCONFIDENT, _NO_BOX], "line 7: missing required field 'bbox'"),
    "malformed-then-violation": ([_NO_BOX, _OVERCONFIDENT], "line 7: missing required field 'bbox'"),
    "violation-between-good": ([_GOOD, _OVERCONFIDENT, _GOOD], "line 7: detection 1: confidence 1.5 outside [0, 1]"),
    "two-violations": ([_OVERCONFIDENT, {**_GOOD, "class": "unknown"}], "line 7: detection 0: confidence 1.5 outside [0, 1]"),
}


@pytest.mark.parametrize("case", LINE_ORDER)
def test_parse_names_a_line_s_first_malformed_record_before_its_violations(case):
    detections, message = LINE_ORDER[case]
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(_doctored(6, ("detections",), detections))
    assert str(excinfo.value) == message


def test_parse_ignores_unknown_fields_and_never_writes_them():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, frame_count=12))
    lines = encode_trace(trace).splitlines()
    frame = json.loads(lines[1])
    frame["detector_version"] = "v4"
    frame["detections"][0]["embedding"] = [1, 2, 3]
    doctored = "\n".join([lines[0], json.dumps(frame)] + lines[2:]) + "\n"
    parsed = parse_trace(doctored)
    assert parsed == trace
    assert "embedding" not in encode_trace(parsed)


def test_parse_validates_model_invariants():
    bad = (
        '{"event_id": "e", "frame_count": 2}\n'
        '{"frame_index": 0, "detections": []}\n'
        '{"frame_index": 5, "detections": []}\n'
    )
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(bad)
    assert str(excinfo.value) == (
        "line 3: frame_index expected 1, found 5 (frames must be consecutive from 0)"
    )


def test_parser_accepts_random_generator_output():
    rng = random.Random(99)
    for _ in range(20):
        spec = build_spec(
            rng.choice(ALL_KINDS),
            object_class=rng.choice(CLASSES),
            frame_count=rng.randrange(20, 120),
            seed=rng.randrange(1000),
            noise_sigma=rng.choice([0.0, 0.5, 1.5]),
        )
        trace = generate_event(spec)
        assert parse_trace(encode_trace(trace)) == trace


def test_traces_built_in_code_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def traces(draw):
        dim = draw(st.integers(1, 4))
        detection = st.builds(
            Detection,
            st.sampled_from(CLASSES + (ObjectClass.WALL,)),
            st.floats(0.0, 1.0),
            st.tuples(
                st.floats(-1e4, 1e4),
                st.floats(-1e4, 1e4),
                st.floats(1e-3, 1e4),
                st.floats(1e-3, 1e4),
            ),
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * dim),
        )
        # small frames, so empty ones are common
        frames = draw(st.lists(st.lists(detection, max_size=3).map(tuple), min_size=1, max_size=6))
        ground_truth = draw(
            st.none()
            | st.builds(
                GroundTruth,
                st.booleans(),
                st.lists(st.sampled_from(CLASSES + (ObjectClass.WALL,)), min_size=1, max_size=3).map(
                    tuple
                ),
            )
        )
        return EventTrace(draw(st.text(max_size=12)), tuple(frames), ground_truth)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(traces(), st.data())
    def check(trace, data):
        text = encode_trace(trace)
        assert parse_trace(text) == trace

        # a frame_index other than the frame's position fails on that frame's line
        lines = text.splitlines()
        position = data.draw(st.integers(0, trace.frame_count - 1))
        found = data.draw(st.integers(-3, trace.frame_count + 3).filter(lambda i: i != position))
        record = json.loads(lines[position + 1])
        record["frame_index"] = found
        lines[position + 1] = json.dumps(record)
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace("\n".join(lines) + "\n")
        assert str(excinfo.value) == (
            f"line {position + 2}: frame_index expected {position}, found {found} "
            "(frames must be consecutive from 0)"
        )

    check()


def test_validate_trace_agrees_with_parse_trace():
    # validate_trace(t) == [] exactly when t's encoding parses, and a file
    # that fails names the line of the first violation validate_trace lists
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
    beyond = int(sys.float_info.max) + 1
    # values parse_trace does not read as numbers: booleans and ints no float can hold
    unreadable = st.booleans() | st.integers(beyond, 10**400) | st.integers(-(10**400), -beyond)
    classes = st.sampled_from(CLASSES + (ObjectClass.WALL,))

    def number(lo, hi):
        # floats or ints, never bools
        return st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))

    @st.composite
    def traces(draw):
        dim = draw(st.integers(1, 3))
        coordinate, side = number(-1e4, 1e4), number(1e-3, 1e4)
        descriptor = st.tuples(*[number(-1e6, 1e6)] * dim)
        detection = st.builds(
            Detection, classes, number(0, 1), st.tuples(coordinate, coordinate, side, side), descriptor
        )
        # one field of a valid detection made invalid
        breaks = st.one_of(
            st.tuples(st.just("object_class"), st.just(ObjectClass.UNKNOWN)),
            st.tuples(
                st.just("confidence"), number(-10, -1e-3) | number(1.001, 10) | non_finite | unreadable
            ),
            st.tuples(
                st.just("bbox"),
                st.tuples(coordinate, coordinate, number(-1e4, 0), side)
                | st.tuples(coordinate, non_finite, side, side)
                | st.tuples(unreadable, coordinate, side, side)
                | st.tuples(coordinate, coordinate, side, unreadable)
                | st.sampled_from([(1.7e308, 0.0, 1e308, 10.0), (0.0, 1.7e308, 10.0, 1e308)]),
            ),
            st.tuples(
                st.just("shape_descriptor"),
                st.just(())
                | st.tuples(*[number(-1e6, 1e6)] * (dim + 1))
                | st.tuples(non_finite, *[number(-1e6, 1e6)] * (dim - 1))
                | st.tuples(*[number(-1e6, 1e6)] * (dim - 1), unreadable),
            ),
        )
        frames = draw(st.lists(st.lists(detection, max_size=3), max_size=5))
        slots = [(f, d) for f, frame in enumerate(frames) for d in range(len(frame))]
        if slots:
            for slot, (field, value) in draw(st.lists(st.tuples(st.sampled_from(slots), breaks), max_size=2)):
                f, d = slot
                frames[f][d] = replace(frames[f][d], **{field: value})
        bad_classes = st.just([]) | st.lists(classes, max_size=2).map(lambda c: c + [ObjectClass.UNKNOWN])
        ground_truth = draw(
            st.none()
            | st.builds(GroundTruth, st.booleans(), st.lists(classes, min_size=1, max_size=3).map(tuple))
            | st.builds(GroundTruth, st.booleans(), bad_classes.map(tuple))
        )
        return EventTrace(draw(st.text(max_size=8)), tuple(map(tuple, frames)), ground_truth)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(traces())
    def check(trace):
        violations = validate_trace(trace)
        text = encode_trace(trace)
        if not violations:
            assert parse_trace(text) == trace
            return
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(text)
        first = violations[0]
        line = int(first.split(",")[0].removeprefix("frame ")) + 2 if first.startswith("frame ") else 1
        assert str(excinfo.value).startswith(f"line {line}: ")

    check()


def test_lines_end_at_newline_only():
    # U+2028 is a line boundary to str.splitlines but plain text to JSON
    header = json.dumps({"event_id": "a\u2028b", "frame_count": 1}, ensure_ascii=False)
    assert "\u2028" in header
    trace = parse_trace(header + '\n{"frame_index": 0, "detections": []}\n')
    assert trace.event_id == "a\u2028b"
    # a form feed is not JSON whitespace, so it is extra data on its own line
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace('{"event_id": "e", "frame_count": 1}\n{"frame_index": 0}\x0c\n')
    assert str(excinfo.value) == "line 2: invalid JSON (Extra data)"


def test_crlf_files_parse_and_name_their_lines():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_OCCLUDED, frame_count=12))
    text = encode_trace(trace).replace("\n", "\r\n")
    assert parse_trace(text) == trace
    assert parse_trace(text.encode("utf-8")) == trace
    lines = text.split("\r\n")
    lines[3] = lines[3].replace('"frame_index": 2', '"frame_index": 7')
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace("\r\n".join(lines))
    assert str(excinfo.value) == "line 4: frame_index expected 2, found 7 (frames must be consecutive from 0)"


def _full_path(obj, length, scene=DEFAULT_SCENE):
    """What the full rules make of one detection record, in a trace whose
    descriptor length is `length`: (Detection, None) or (None, message)."""
    contract = ingest._Contract()
    if length is not None:
        contract.descriptor = (length, 0)
    try:
        det = ingest._parse_detection(obj, 2, scene)
    except TraceParseError as exc:
        return None, str(exc).partition(": ")[2]
    violations = contract.detection(det, 1)
    return (None, violations[0]) if violations else (det, None)


def _check_gate(obj, length, scene=DEFAULT_SCENE):
    """The gate's verdict on obj, checked against the full rules: it
    accepts only what they accept, and builds the same Detection."""
    det = ingest._accept_detection(obj, length, scene.area)
    full, message = _full_path(obj, length, scene)
    if det is not None:
        assert message is None
        # repr tells -0.0 from 0.0, which == does not
        assert det == full and repr(det) == repr(full)
    return det, full, message


_BOX = {"class": "sphere", "confidence": 0.6, "bbox": [100.0, 50.0, 24.0, 24.0]}

# (record edits, descriptor length of the trace, gate accepts, full-rule message)
GATE_BOUNDARIES = {
    "confidence-0": ({"confidence": 0.0}, 2, True, None),
    "confidence-1": ({"confidence": 1.0}, 2, True, None),
    "confidence-below-0": ({"confidence": -5e-324}, 2, False, "confidence -5e-324 outside [0, 1]"),
    "confidence-above-1": ({"confidence": math.nextafter(1.0, 2.0)}, 2, False, "confidence 1.0000000000000002 outside [0, 1]"),
    "width-negative-zero": ({"bbox": [100.0, 50.0, -0.0, 24.0]}, 2, False, "bbox width must be > 0, got -0.0"),
    "width-subnormal": ({"bbox": [100.0, 50.0, 5e-324, 24.0]}, 2, True, None),
    # a descriptor of its own, so that the derived one cannot overflow
    "center-x-overflow": (
        {"bbox": [1.7e308, 50.0, 1e308, 24.0], "shape_descriptor": [1.0, 0.5]}, 2, False, "bbox center x inf is not finite"
    ),
    "center-y-overflow": (
        {"bbox": [100.0, 1.7e308, 24.0, 1e308], "shape_descriptor": [1.0, 0.5]}, 2, False, "bbox center y inf is not finite"
    ),
    "area-overflow": ({"bbox": [0.0, 0.0, 1e200, 1e200]}, 2, False, "shape_descriptor[1] inf is not finite"),
    "aspect-overflow": ({"bbox": [0.0, 0.0, 1e300, 1e-10]}, 2, False, "shape_descriptor[0] inf is not finite"),
    "confidence-true": ({"confidence": True}, 2, False, "confidence must be a finite number, got True"),
    "confidence-int": ({"confidence": 1}, 2, False, None),
    "bbox-int": ({"bbox": [100, 50.0, 24.0, 24.0]}, 2, False, None),
    "bbox-true": ({"bbox": [100.0, True, 24.0, 24.0]}, 2, False, "bbox[1] must be a finite number, got True"),
    "class-capitalised": ({"class": "Sphere"}, 2, False, None),
    "class-unknown": ({"class": "unknown"}, 2, False, "class 'unknown' not allowed in detections"),
    "descriptor-null": ({"shape_descriptor": None}, 2, True, None),
    "descriptor-derived-wrong-length": ({}, 3, False, "shape_descriptor dimension 2 != 3 (established at frame 0)"),
    "descriptor-floats": ({"shape_descriptor": [1.0, 0.5]}, 2, True, None),
    "descriptor-inf": ({"shape_descriptor": [math.inf, 0.5]}, 2, False, "shape_descriptor[0] must be a finite number, got inf"),
    "descriptor-int": ({"shape_descriptor": [1, 0.5]}, 2, False, None),
    "descriptor-wrong-length": ({"shape_descriptor": [1.0, 0.5, 0.25]}, 2, False, "shape_descriptor dimension 3 != 2 (established at frame 0)"),
    "descriptor-first": ({"shape_descriptor": [1.0, 0.5]}, None, False, None),
    "derived-first": ({}, None, False, None),
}


@pytest.mark.parametrize("case", GATE_BOUNDARIES)
def test_the_gate_at_each_boundary(case):
    edits, length, accepted, message = GATE_BOUNDARIES[case]
    det, _, full_message = _check_gate({**_BOX, **edits}, length)
    assert (det is not None, full_message) == (accepted, message)


def test_the_gate_accepts_only_what_the_full_rules_accept():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    edge = st.sampled_from(
        [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), -5e-324, 5e-324, 1e-300, 1e300, 1.7e308, -1.7e308]
        + [math.inf, -math.inf, math.nan, 0, 1, True, False]
    )
    anything = (
        st.floats() | edge | st.integers(-2, 2) | st.integers(-(10**400), 10**400)
        | st.booleans() | st.none() | st.text(max_size=2)
    )
    fields = {
        "class": (
            st.sampled_from(["sphere", "cone", "cube", "wall"]),
            st.sampled_from(["Sphere", "WALL", "unknown", "blob", ""]) | anything | st.lists(st.just("cube"), max_size=1),
        ),
        # plausible values are now and then an edge value
        "confidence": (st.floats(0.0, 1.0) | edge, anything),
        "bbox": (
            st.tuples(*[st.floats(-1e4, 1e4) | edge] * 2, *[st.floats(1e-3, 1e4) | edge] * 2).map(list),
            st.lists(anything, min_size=4, max_size=4) | st.lists(anything, max_size=5) | anything,
        ),
        "shape_descriptor": (
            st.none() | st.lists(st.floats(-1e6, 1e6) | edge, min_size=1, max_size=3),
            st.lists(anything, max_size=3) | anything,
        ),
    }

    @st.composite
    def records(draw):
        if draw(st.integers(0, 19)) == 0:
            return draw(anything | st.lists(anything, max_size=2))
        record = {}
        for name, (plausible, odd) in fields.items():
            choice = draw(st.integers(0, 9))
            if choice < 8:
                record[name] = draw(plausible)
            elif choice == 8:
                record[name] = draw(odd)
        return record

    accepted = []

    # the tiny scene makes the derived descriptor's w*h/area overflow
    @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hypothesis.given(records(), st.sampled_from([None, 1, 2, 3]), st.sampled_from([DEFAULT_SCENE, SceneBounds(1e-150, 1e-150)]))
    def check(obj, length, scene):
        det, _, _ = _check_gate(obj, length, scene)
        accepted.append(det is not None)

    check()
    # both outcomes were exercised
    assert any(accepted) and not all(accepted)


def _crowded_scene(frames: int = 8) -> EventTrace:
    # 20 objects 128 x 60 px apart moving in step, and 4 walls
    classes = (ObjectClass.SPHERE, ObjectClass.CONE, ObjectClass.CUBE)
    walls = tuple(
        Detection.build(ObjectClass.WALL, 0.9, (20.0 + 160.0 * k, 300.0, 40.0, 50.0)) for k in range(4)
    )
    return EventTrace(
        "crowd",
        tuple(
            tuple(
                Detection.build(
                    classes[(r + c) % 3], 0.7, (52.0 + 128.0 * c + 1.5 * t, 33.0 + 60.0 * r + 0.25 * t, 24.0, 24.0)
                )
                for r in range(4)
                for c in range(5)
            )
            + walls
            for t in range(frames)
        ),
    )


def test_the_full_rules_run_only_for_the_first_descriptor(monkeypatch):
    # no timing: count the calls of the full rules while parsing well-formed
    # traces; only the detection that fixes the descriptor length needs them
    traces = [
        generate_event(build_spec(kind, seed=7, noise_sigma=sigma)) for kind in ALL_KINDS for sigma in (0.0, 2.0)
    ]
    texts = [encode_trace(t) for t in traces]
    crowd = _crowded_scene()
    traces.append(crowd)
    texts.append(encode_trace(crowd))
    # the same scene without descriptors, which parse_trace derives from the box
    lines = encode_trace(crowd).splitlines()
    frames = [json.loads(line) for line in lines[1:]]
    for frame in frames:
        for det in frame["detections"]:
            del det["shape_descriptor"]
    traces.append(crowd)
    texts.append("\n".join(lines[:1] + [json.dumps(f) for f in frames]) + "\n")

    calls = []
    number_violations = ingest._number_violations
    contract_detection = ingest._Contract.detection
    monkeypatch.setattr(ingest, "_number_violations", lambda *a: calls.append("number") or number_violations(*a))
    monkeypatch.setattr(
        ingest._Contract, "detection", lambda *a: calls.append("contract") or contract_detection(*a)
    )
    for trace, text in zip(traces, texts):
        calls.clear()
        assert parse_trace(text) == trace
        assert calls == ["number", "contract"], trace.event_id
