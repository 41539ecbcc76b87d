import json
import math
import random

import pytest

from curiophys import (
    ObjectClass,
    ScenarioError,
    ScenarioKind,
    TraceParseError,
    TraceValidationError,
    build_spec,
    encode_trace,
    generate_event,
    parse_trace,
    read_trace_file,
    write_trace_file,
)
from curiophys.ingest import Rect, ScenarioSpec, default_occluder, scripted_violation_frame

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
    centers = [f.detections[0].center for f in trace.frames]
    for a, b in zip(centers, centers[1:]):
        assert b[0] - a[0] == pytest.approx(2.0, abs=1e-9)
        assert b[1] - a[1] == pytest.approx(1.0, abs=1e-9)


def test_occluded_gap_matches_occluder_geometry():
    spec = build_spec(ScenarioKind.POSSIBLE_OCCLUDED)
    trace = generate_event(spec)
    assert spec.occluder is not None
    for frame in trace.frames:
        objects = [d for d in frame.detections if d.object_class is not ObjectClass.WALL]
        walls = [d for d in frame.detections if d.object_class is ObjectClass.WALL]
        assert len(walls) == 1  # occluder detected every frame
        if objects:
            assert not spec.occluder.contains(objects[0].center)
    gaps = [f.frame_index for f in trace.frames if len(f.detections) == 1]
    assert gaps == list(range(min(gaps), max(gaps) + 1))  # one contiguous gap
    assert 0 < min(gaps) and max(gaps) < trace.frame_count - 1


def test_disappear_detections_cease_at_scripted_frame():
    spec = build_spec(ScenarioKind.IMPOSSIBLE_DISAPPEAR)
    trace = generate_event(spec)
    cut = scripted_violation_frame(spec)
    for frame in trace.frames:
        if frame.frame_index < cut:
            assert len(frame.detections) == 1
        else:
            assert frame.detections == ()


def test_teleport_jumps_at_least_ten_per_frame_displacements():
    spec = build_spec(ScenarioKind.IMPOSSIBLE_TELEPORT, velocity=(3.0, 0.0))
    trace = generate_event(spec)
    cut = scripted_violation_frame(spec)
    before = trace.frames[cut - 1].detections[0].center
    after = trace.frames[cut].detections[0].center
    jump = math.dist(before, after)
    assert jump >= 10 * 3.0


def test_shape_change_switches_class_and_descriptor():
    spec = build_spec(ScenarioKind.IMPOSSIBLE_SHAPE_CHANGE, object_class=ObjectClass.SPHERE)
    trace = generate_event(spec)
    cut = scripted_violation_frame(spec)
    for frame in trace.frames:
        det = frame.detections[0]
        if frame.frame_index < cut:
            assert det.object_class is ObjectClass.SPHERE
        else:
            assert det.object_class is ObjectClass.CONE
    d_before = trace.frames[cut - 1].detections[0]
    d_after = trace.frames[cut].detections[0]
    assert d_before.shape_descriptor != d_after.shape_descriptor
    # trajectory itself stays continuous
    step = math.dist(d_before.center, d_after.center)
    assert step == pytest.approx(3.0, abs=1e-6)


def test_noise_jitters_centers_only():
    clean = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, seed=4))
    noisy = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, seed=4, noise_sigma=1.5))
    for cf, nf in zip(clean.frames, noisy.frames):
        c, n = cf.detections[0], nf.detections[0]
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
                ScenarioKind.IMPOSSIBLE_DISAPPEAR, occluder=Rect(0, 0, 50, 50)
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
    with pytest.raises(TraceValidationError, match="frame_count"):
        parse_trace("\n".join([json.dumps(header)] + lines[1:]) + "\n")


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


def test_parse_rejects_zero_height_without_descriptor():
    def edit(det):
        det["bbox"][3] = 0
        del det["shape_descriptor"]

    with pytest.raises(TraceParseError, match=r"^line 7: bbox\[3\] must be > 0, got 0$"):
        parse_trace(_doctor_frame_5(edit))


def test_parse_rejects_an_empty_shape_descriptor():
    def edit(det):
        det["shape_descriptor"] = []

    with pytest.raises(TraceParseError, match=r"^line 7: shape_descriptor must not be empty$"):
        parse_trace(_doctor_frame_5(edit))


def test_parse_rejects_an_overflowing_bbox_center():
    # every entry is finite, but x + width/2 is not
    def edit(det):
        det["bbox"] = [1.7e308, 100, 1e308, 20]

    with pytest.raises(TraceValidationError) as excinfo:
        parse_trace(_doctor_frame_5(edit))
    assert excinfo.value.violations == ["frame 5, detection 0: bbox center x inf is not finite"]

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
    with pytest.raises(TraceValidationError, match="consecutive"):
        parse_trace(bad)


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
