import sys

import pytest

from curiophys import ObjectClass
from curiophys.ingest import validate_trace
from curiophys.trace_model import (
    DEFAULT_IMPACT_VALUES,
    DEFAULT_SCENE,
    Detection,
    EventTrace,
    GroundTruth,
    SceneBounds,
    default_profiles,
    default_shape_descriptor,
    is_finite_number,
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


def test_scene_bounds_reject_an_area_that_underflows():
    # each side is > 0, but the product rounds to 0 and would divide a
    # derived descriptor by zero
    with pytest.raises(ValueError, match=r"scene width \* height must be > 0, got 1e-200 \* 1e-200"):
        SceneBounds(1e-200, 1e-200)
    assert SceneBounds(1e-150, 1e-150).area > 0


def test_validate_trace_accepts_well_formed():
    trace = build_trace("ok", 5, [linear_script((50, 100), (3, 0), range(5))], possible=True)
    assert validate_trace(trace) == []


def test_validate_trace_flags_bad_confidence_and_bbox():
    det_bad_conf = Detection(ObjectClass.SPHERE, 1.5, (0, 0, 10, 10), (1.0, 0.1))
    det_bad_bbox = Detection(ObjectClass.SPHERE, 0.5, (0, 0, -10, 10), (1.0, 0.1))
    trace = EventTrace(
        "bad",
        ((det_bad_conf,), (det_bad_bbox,)),
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
    trace = EventTrace("non-finite", (dets,), None)
    assert validate_trace(trace) == [
        "frame 0, detection 0: confidence must be a finite number, got nan",
        "frame 0, detection 1: bbox[0] must be a finite number, got -inf",
        "frame 0, detection 1: bbox[3] must be a finite number, got nan",
        "frame 0, detection 2: shape_descriptor[0] must be a finite number, got inf",
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
    trace = EventTrace("overflow", (dets,), None)
    assert validate_trace(trace) == [
        "frame 0, detection 0: bbox center x inf is not finite",
        "frame 0, detection 1: bbox center y inf is not finite",
        "frame 0, detection 3: bbox must be a 4-element array",
    ]


def test_validate_trace_flags_unknown_detection_class():
    det = Detection(ObjectClass.UNKNOWN, 0.5, (0, 0, 10, 10), (1.0, 0.1))
    trace = EventTrace("unk", ((det,),), None)
    assert any("unknown" in v for v in validate_trace(trace))


def test_validate_trace_flags_descriptor_dimension_drift():
    d2 = Detection(ObjectClass.SPHERE, 0.5, (0, 0, 10, 10), (1.0, 0.1))
    d3 = Detection(ObjectClass.SPHERE, 0.5, (3, 0, 10, 10), (1.0, 0.1, 0.2))
    trace = EventTrace("dim", ((d2,), (d3,)), None)
    violations = validate_trace(trace)
    assert any("dimension" in v and "frame 0" in v for v in violations)


def test_validate_trace_flags_an_empty_descriptor():
    # an empty descriptor neither sets nor breaks the descriptor dimension
    d2 = Detection(ObjectClass.SPHERE, 0.5, (0, 0, 10, 10), (1.0, 0.1))
    empty = Detection(ObjectClass.SPHERE, 0.5, (3, 0, 10, 10), ())
    frames = ((empty,), (d2,), (empty,))
    assert validate_trace(EventTrace("empty-descriptor", frames, None)) == [
        "frame 0, detection 0: shape_descriptor must not be empty",
        "frame 2, detection 0: shape_descriptor must not be empty",
    ]


def test_validate_trace_flags_empty_and_bad_ground_truth():
    trace = EventTrace("empty", (), None)
    assert any("frame" in v for v in validate_trace(trace))

    gt_empty = EventTrace(
        "gt",
        ((detection(),),),
        GroundTruth(True, ()),
    )
    assert any("ground_truth" in v for v in validate_trace(gt_empty))

    gt_unknown = EventTrace(
        "gt2",
        ((detection(),),),
        GroundTruth(True, (ObjectClass.UNKNOWN,)),
    )
    assert any("ground_truth" in v for v in validate_trace(gt_unknown))


def test_frame_count_property():
    trace = build_trace("n", 7, [linear_script((50, 100), (3, 0), range(7))])
    assert trace.frame_count == 7


def test_an_int_is_a_finite_number_up_to_the_largest_float():
    largest = int(sys.float_info.max)
    assert is_finite_number(largest) and is_finite_number(-largest)
    assert not is_finite_number(largest + 1)
