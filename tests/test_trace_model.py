import pytest

from curiophys import (
    Detection,
    EventTrace,
    FrameRecord,
    GroundTruth,
    ObjectClass,
    SceneBounds,
    validate_trace,
)
from curiophys.trace_model import (
    DEFAULT_IMPACT_VALUES,
    DEFAULT_SCENE,
    default_profiles,
    default_shape_descriptor,
)

from trace_builders import build_trace, detection, linear_script


def test_object_class_from_name():
    assert ObjectClass.from_name("sphere") is ObjectClass.SPHERE
    assert ObjectClass.from_name("Wall") is ObjectClass.WALL
    with pytest.raises(ValueError, match="pyramid"):
        ObjectClass.from_name("pyramid")


def test_default_profiles_cover_scoreable_classes():
    profiles = default_profiles()
    assert profiles == {ObjectClass.SPHERE: 10.0, ObjectClass.CONE: 100.0, ObjectClass.CUBE: 1000.0}
    profiles[ObjectClass.SPHERE] = 1.0  # a copy: the defaults stay as they are
    assert DEFAULT_IMPACT_VALUES[ObjectClass.SPHERE] == 10.0


def test_default_shape_descriptor():
    # 32x16 box in a 640x360 scene: aspect 2, area fraction 512/230400
    aspect, area_frac = default_shape_descriptor((10.0, 10.0, 32.0, 16.0), DEFAULT_SCENE)
    assert aspect == pytest.approx(2.0)
    assert area_frac == pytest.approx(512.0 / 230400.0)


def test_detection_build_derives_descriptor():
    det = Detection.build(ObjectClass.SPHERE, 0.6, (10.0, 20.0, 24.0, 24.0))
    assert det.shape_descriptor == default_shape_descriptor((10.0, 20.0, 24.0, 24.0), DEFAULT_SCENE)
    assert det.center == (22.0, 32.0)


def test_detection_build_keeps_supplied_descriptor():
    det = Detection.build(ObjectClass.SPHERE, 0.6, (0.0, 0.0, 10.0, 10.0), (0.5, 0.25, 0.125))
    assert det.shape_descriptor == (0.5, 0.25, 0.125)


def test_scene_bounds_contains():
    scene = SceneBounds(100.0, 50.0)
    assert scene.contains((0.0, 0.0))
    assert scene.contains((100.0, 50.0))
    assert not scene.contains((100.1, 25.0))
    assert not scene.contains((50.0, -0.1))


def test_validate_trace_accepts_well_formed():
    trace = build_trace("ok", 5, [linear_script((50, 100), (3, 0), range(5))], possible=True)
    assert validate_trace(trace) == []


def test_validate_trace_flags_nonconsecutive_frames():
    good = build_trace("bad-frames", 3, [linear_script((50, 100), (3, 0), range(3))])
    frames = (good.frames[0], good.frames[2], good.frames[1])
    trace = EventTrace("bad-frames", frames, None)
    violations = validate_trace(trace)
    assert any("consecutive" in v for v in violations)


def test_validate_trace_flags_bad_confidence_and_bbox():
    det_bad_conf = Detection(ObjectClass.SPHERE, 1.5, (0, 0, 10, 10), (1.0, 0.1))
    det_bad_bbox = Detection(ObjectClass.SPHERE, 0.5, (0, 0, -10, 10), (1.0, 0.1))
    trace = EventTrace(
        "bad",
        (FrameRecord(0, (det_bad_conf,)), FrameRecord(1, (det_bad_bbox,))),
        None,
    )
    violations = validate_trace(trace)
    assert any("confidence" in v and "frame 0" in v for v in violations)
    assert any("bbox" in v and "frame 1" in v for v in violations)


def test_validate_trace_flags_non_finite_numbers():
    nan, inf = float("nan"), float("inf")
    dets = (
        Detection(ObjectClass.SPHERE, nan, (0, 0, 10, 10), (1.0, 0.1)),
        Detection(ObjectClass.SPHERE, 0.5, (-inf, 0, 10, nan), (1.0, 0.1)),
        Detection(ObjectClass.SPHERE, 0.5, (0, 0, 10, 10), (inf, 0.1)),
    )
    trace = EventTrace("non-finite", (FrameRecord(0, dets),), None)
    assert validate_trace(trace) == [
        "frame 0, detection 0: confidence nan is not finite",
        "frame 0, detection 1: bbox x -inf is not finite",
        "frame 0, detection 1: bbox height nan is not finite",
        "frame 0, detection 2: shape_descriptor[0] inf is not finite",
    ]


def test_validate_trace_flags_an_overflowing_center_and_a_short_bbox():
    # finite entries whose center x + width/2 (or y + height/2) overflows,
    # and a bbox built in code with one entry missing
    dets = (
        Detection(ObjectClass.SPHERE, 0.5, (1.7e308, 100, 1e308, 20), (1.0, 0.1)),
        Detection(ObjectClass.SPHERE, 0.5, (0, 1.7e308, 10, 1e308), (1.0, 0.1)),
        Detection(ObjectClass.SPHERE, 0.5, (1.7e308, 0, 10, 10), (1.0, 0.1)),
        Detection(ObjectClass.SPHERE, 0.5, (0, 0, 10), (1.0, 0.1)),
    )
    trace = EventTrace("overflow", (FrameRecord(0, dets),), None)
    assert validate_trace(trace) == [
        "frame 0, detection 0: bbox center x inf is not finite",
        "frame 0, detection 1: bbox center y inf is not finite",
        "frame 0, detection 3: bbox has 3 entries, expected 4",
    ]


def test_validate_trace_flags_unknown_detection_class():
    det = Detection(ObjectClass.UNKNOWN, 0.5, (0, 0, 10, 10), (1.0, 0.1))
    trace = EventTrace("unk", (FrameRecord(0, (det,)),), None)
    assert any("unknown" in v for v in validate_trace(trace))


def test_validate_trace_flags_descriptor_dimension_drift():
    d2 = Detection(ObjectClass.SPHERE, 0.5, (0, 0, 10, 10), (1.0, 0.1))
    d3 = Detection(ObjectClass.SPHERE, 0.5, (3, 0, 10, 10), (1.0, 0.1, 0.2))
    trace = EventTrace("dim", (FrameRecord(0, (d2,)), FrameRecord(1, (d3,))), None)
    violations = validate_trace(trace)
    assert any("dimension" in v and "frame 0" in v for v in violations)


def test_validate_trace_flags_an_empty_descriptor():
    # an empty descriptor neither sets nor breaks the descriptor dimension
    d2 = Detection(ObjectClass.SPHERE, 0.5, (0, 0, 10, 10), (1.0, 0.1))
    empty = Detection(ObjectClass.SPHERE, 0.5, (3, 0, 10, 10), ())
    frames = (FrameRecord(0, (empty,)), FrameRecord(1, (d2,)), FrameRecord(2, (empty,)))
    assert validate_trace(EventTrace("empty-descriptor", frames, None)) == [
        "frame 0, detection 0: shape_descriptor must not be empty",
        "frame 2, detection 0: shape_descriptor must not be empty",
    ]


def test_validate_trace_flags_empty_and_bad_ground_truth():
    trace = EventTrace("empty", (), None)
    assert any("frame" in v for v in validate_trace(trace))

    gt_empty = EventTrace(
        "gt",
        (FrameRecord(0, (detection(),)),),
        GroundTruth(True, ()),
    )
    assert any("ground_truth" in v for v in validate_trace(gt_empty))

    gt_unknown = EventTrace(
        "gt2",
        (FrameRecord(0, (detection(),)),),
        GroundTruth(True, (ObjectClass.UNKNOWN,)),
    )
    assert any("ground_truth" in v for v in validate_trace(gt_unknown))


def test_frame_count_property():
    trace = build_trace("n", 7, [linear_script((50, 100), (3, 0), range(7))])
    assert trace.frame_count == 7
