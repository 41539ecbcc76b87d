import math
import random

import pytest

from curiophys import (
    BodyBudgetScores,
    ObjectClass,
    ScenarioKind,
    WeightConfig,
    build_spec,
    composite_score,
    focus_track,
    generate_event,
    hypothesis_scores,
    normalized_euclidean_distance,
    score_object_permanence,
    score_shape_constancy,
    score_spatial_temporal,
    score_track,
    track_event,
)
from curiophys.body_budget import IMPACT_SCALE
from curiophys.trace_model import DEFAULT_IMPACT_VALUES, SCOREABLE_CLASSES, Detection
from curiophys.tracker import Track, TrackerParams

from trace_builders import ObjectScript, build_trace, linear_script

SPHERE10 = 10.0


def _track_of(trace):
    tracks = [t for t in track_event(trace) if not t.is_occluder]
    assert len(tracks) == 1
    return tracks[0]


def _gap_track(detected, total, confidence=0.6):
    script = linear_script((50.0, 100.0), (3.0, 0.0), range(detected), confidence=confidence)
    return _track_of(build_trace("gap", total, [script]))


def test_object_permanence_sum():
    track = _gap_track(48, 90, confidence=0.6)
    assert score_object_permanence(track, SPHERE10) == pytest.approx(0.288, abs=1e-12)


def test_object_permanence_full_presence_unit_confidence():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, confidence=1.0))
    s = score_object_permanence(_track_of(trace), SPHERE10)
    assert s == pytest.approx(90 * 1.0 * 10.0 / 1000.0, abs=1e-12)


def test_object_permanence_scales_with_impact():
    track = _gap_track(48, 90)
    s10 = score_object_permanence(track, SPHERE10)
    s1000 = score_object_permanence(track, 1000.0)
    assert s1000 == pytest.approx(100.0 * s10)


def test_wall_tracks_are_rejected_everywhere():
    wall = ObjectScript(centers={t: (300.0, 100.0) for t in range(10)}, cls=ObjectClass.WALL)
    obj = linear_script((50.0, 200.0), (3.0, 0.0), range(10))
    tracks = track_event(build_trace("wall", 10, [wall, obj]))
    wall_track = [t for t in tracks if t.is_occluder][0]
    for fn in (
        lambda: score_object_permanence(wall_track, SPHERE10),
        lambda: score_spatial_temporal(wall_track, 10),
        lambda: score_shape_constancy(wall_track),
    ):
        with pytest.raises(ValueError, match="wall"):
            fn()


def test_spatial_temporal_fraction():
    assert score_spatial_temporal(_gap_track(48, 90), 90) == pytest.approx(48 / 90)
    assert score_spatial_temporal(_gap_track(30, 30), 30) == 1.0
    with pytest.raises(ValueError, match="detected"):
        score_spatial_temporal(_gap_track(20, 20), 10)
    with pytest.raises(ValueError, match="frame count"):
        score_spatial_temporal(_gap_track(5, 5), 0)


def test_normalized_euclidean_distance():
    assert normalized_euclidean_distance((1.0, 2.0), (1.0, 2.0)) == 0.0
    assert normalized_euclidean_distance((1.0, 0.0), (-1.0, 0.0)) == pytest.approx(1.0)
    assert normalized_euclidean_distance((0.0, 0.0), (0.0, 0.0)) == 0.0
    with pytest.raises(ValueError, match="dimensions"):
        normalized_euclidean_distance((1.0,), (1.0, 2.0))
    # finite entries whose squares overflow: scaled, not an OverflowError
    assert normalized_euclidean_distance((1e200, 1.0), (-1e200, 1.0)) == 1.0
    assert normalized_euclidean_distance((1e200, 1.0), (1e200, 1.0)) == 0.0
    assert normalized_euclidean_distance((0.6e154, 0.6e154), (-0.6e154, -0.6e154)) == 1.0
    assert normalized_euclidean_distance((1.5e308, 1.0), (-1.5e308, 1.0)) == 1.0
    assert normalized_euclidean_distance((1.7e308,) * 4, (1.7e308,) * 3 + (-1.7e308,)) == 0.5
    rng = random.Random(5)
    for _ in range(200):
        a = tuple(rng.uniform(-10, 10) for _ in range(3))
        b = tuple(rng.uniform(-10, 10) for _ in range(3))
        assert 0.0 <= normalized_euclidean_distance(a, b) <= 1.0


def test_shape_constancy_identical_descriptors():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE))
    assert score_shape_constancy(_track_of(trace)) == 1.0


def test_shape_constancy_alternating_opposite_descriptors():
    descriptors = {}
    script = ObjectScript(centers={t: (50.0 + 3 * t, 100.0) for t in range(10)})
    trace = build_trace("alt", 10, [script])
    # rebuild detections with hand-set descriptors alternating between v and -v
    frames = []
    for frame in trace.frames:
        det = frame.detections[0]
        sign = 1.0 if frame.frame_index % 2 == 0 else -1.0
        frames.append(
            type(frame)(
                frame.frame_index,
                (type(det)(det.object_class, det.confidence, det.bbox, (sign * 0.6, sign * 0.8)),),
            )
        )
    flipped = type(trace)("alt", tuple(frames), None)
    assert score_shape_constancy(_track_of(flipped)) == 0.0


def test_shape_constancy_single_detection_falls_back_to_confidence():
    script = ObjectScript(centers={3: (50.0, 100.0)}, confidence=0.42)
    track = _track_of(build_trace("one", 6, [script]))
    assert score_shape_constancy(track) == pytest.approx(0.42)


def test_shape_constancy_confidence_mode():
    script = ObjectScript(
        centers={t: (50.0 + 3 * t, 100.0) for t in range(4)},
        confidences={0: 0.2, 1: 0.4, 2: 0.6, 3: 0.8},
    )
    track = _track_of(build_trace("conf", 4, [script]))
    assert score_shape_constancy(track, mode="confidence") == pytest.approx(0.5)
    with pytest.raises(ValueError, match="mode"):
        score_shape_constancy(track, mode="pixels")


def test_shape_change_scores_below_steady_twin():
    steady = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, seed=2))
    changed = generate_event(build_spec(ScenarioKind.IMPOSSIBLE_SHAPE_CHANGE, seed=2))
    assert score_shape_constancy(_track_of(changed)) < score_shape_constancy(_track_of(steady))


def test_composite_score_golden_and_linearity():
    w = WeightConfig()
    assert composite_score(0.288, 0.68, 0.533, w) == pytest.approx(0.494, abs=0.01)
    assert composite_score(1.0, 1.0, 1.0, w) == pytest.approx(0.99)
    assert composite_score(5.0, 0.3, 0.7, WeightConfig(0.0, 0.0, 0.0)) == 0.0
    # linear in each argument
    base = composite_score(1.0, 0.5, 0.5, w)
    assert composite_score(2.0, 0.5, 0.5, w) - base == pytest.approx(w.alpha)


def test_weight_config_bounds():
    with pytest.raises(ValueError, match="alpha"):
        WeightConfig(alpha=1.5)
    with pytest.raises(ValueError, match="gamma"):
        WeightConfig(gamma=-0.1)


def test_scores_bundle_invariants():
    w = WeightConfig()
    with pytest.raises(ValueError, match="composite"):
        BodyBudgetScores(s_op=1.0, s_sc=0.5, s_stc=0.5, a=9.0, weights=w)
    with pytest.raises(ValueError, match="s_sc"):
        BodyBudgetScores(s_op=1.0, s_sc=1.5, s_stc=0.5, a=composite_score(1, 1.5, 0.5, w), weights=w)
    with pytest.raises(ValueError, match="s_op"):
        BodyBudgetScores(s_op=-1.0, s_sc=0.5, s_stc=0.5, a=composite_score(-1, 0.5, 0.5, w), weights=w)


def test_order_of_frames_does_not_change_op_or_stc():
    confs_a = {0: 0.2, 1: 0.9, 2: 0.5, 3: 0.7}
    confs_b = {0: 0.7, 1: 0.5, 2: 0.9, 3: 0.2}
    t_a = _track_of(
        build_trace("a", 4, [ObjectScript({t: (50.0 + 3 * t, 100.0) for t in range(4)}, confidences=confs_a)])
    )
    t_b = _track_of(
        build_trace("b", 4, [ObjectScript({t: (50.0 + 3 * t, 100.0) for t in range(4)}, confidences=confs_b)])
    )
    assert score_object_permanence(t_a, SPHERE10) == pytest.approx(
        score_object_permanence(t_b, SPHERE10)
    )
    assert score_spatial_temporal(t_a, 4) == score_spatial_temporal(t_b, 4)


def test_op_band_membership_on_generated_events():
    for cls, impact in ((ObjectClass.SPHERE, 10.0), (ObjectClass.CONE, 100.0), (ObjectClass.CUBE, 1000.0)):
        trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, object_class=cls))
        track = _track_of(trace)
        s = score_object_permanence(track, impact)
        assert 0.0 <= s <= 90 * 0.6 * impact / 1000.0 + 1e-12


def test_score_track_bundles_consistently():
    track = _gap_track(48, 90)
    scores = score_track(track, 90, SPHERE10)
    assert scores.s_op == pytest.approx(0.288, abs=1e-12)
    assert scores.s_stc == pytest.approx(48 / 90)
    assert scores.a == pytest.approx(
        composite_score(scores.s_op, scores.s_sc, scores.s_stc, scores.weights)
    )


def test_hypothesis_scores_vary_only_in_op_term():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, object_class=ObjectClass.CONE))
    by_class = hypothesis_scores(_track_of(trace), 90, DEFAULT_IMPACT_VALUES)
    assert set(by_class) == {ObjectClass.SPHERE, ObjectClass.CONE, ObjectClass.CUBE}
    s_sc = {s.s_sc for s in by_class.values()}
    s_stc = {s.s_stc for s in by_class.values()}
    assert len(s_sc) == 1 and len(s_stc) == 1
    assert by_class[ObjectClass.CUBE].s_op == pytest.approx(
        100.0 * by_class[ObjectClass.SPHERE].s_op
    )


def test_focus_track_selection():
    long_obj = linear_script((50.0, 100.0), (3.0, 0.0), range(30), cls=ObjectClass.SPHERE)
    short_obj = linear_script((50.0, 200.0), (3.0, 0.0), range(10), cls=ObjectClass.CUBE)
    wall = ObjectScript(centers={t: (300.0, 150.0) for t in range(30)}, cls=ObjectClass.WALL)
    tracks = track_event(build_trace("focus", 30, [long_obj, short_obj, wall]))
    focus = focus_track(tracks)
    assert focus is not None and focus.resolved_class is ObjectClass.SPHERE
    assert focus_track([t for t in tracks if t.is_occluder]) is None


# -- parity with the per-pair form -------------------------------------------


def _reference_distance(a, b):
    """The per-pair form: both norms computed for every consecutive pair."""
    if len(a) != len(b):
        raise ValueError(f"descriptor dimensions differ: {len(a)} vs {len(b)}")
    diff = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    denom = math.sqrt(sum(x * x for x in a)) + math.sqrt(sum(y * y for y in b))
    if denom == 0.0:
        return 0.0
    return diff / denom


def _reference_scores(track, n, impact, weights, sc_mode):
    """One class hypothesis scored from a walk over the track's frames."""
    dets = [det for det in track.detections if det is not None]
    s_op = sum(d.confidence for d in dets) * impact / IMPACT_SCALE
    if sc_mode == "confidence":
        s_sc = min(1.0, max(0.0, sum(d.confidence for d in dets) / len(dets)))
    elif len(dets) == 1:
        s_sc = dets[0].confidence
    else:
        distances = [
            _reference_distance(a.shape_descriptor, b.shape_descriptor)
            for a, b in zip(dets, dets[1:])
        ]
        s_sc = min(1.0, max(0.0, 1.0 - sum(distances) / len(distances)))
    s_stc = len(dets) / n
    a = composite_score(s_op, s_sc, s_stc, weights)
    return BodyBudgetScores(s_op, s_sc, s_stc, a, weights)


def test_scores_match_the_per_pair_form():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        dim = draw(st.integers(1, 4))
        if draw(st.integers(0, 9)) == 0:
            # one vector whose norm overflows, repeated: equal pairs without
            # a finite norm
            pool = [(1e300,) * dim, tuple(list((1e300,) * dim))]
        else:
            value = st.just(0.0) | st.floats(-1e3, 1e3) | st.sampled_from([1e-300, 1e150, -2.5])
            vector = st.tuples(*[value] * dim)
            # a small pool makes repeats, zero vectors and consecutive zero pairs
            # common; equal copies that are distinct objects and a signed-zero
            # twin make pairs that are equal without being the same tuple
            pool = draw(st.lists(vector, min_size=1, max_size=4))
            pool += [tuple(list(v)) for v in pool] + [(0.0,) * dim, (-0.0,) * dim]
        detections = [
            Detection(
                ObjectClass.SPHERE,
                draw(st.floats(0.0, 1.0)),
                (10.0, 10.0, 4.0, 4.0),
                draw(st.sampled_from(pool)),
            )
            for _ in range(draw(st.integers(1, 40)))
        ]
        params = TrackerParams()
        track = Track(0, draw(st.integers(0, 3)), detections[0], params)
        for det in detections[1:]:
            for _ in range(draw(st.integers(0, 2))):
                track.coast(track.filter.predict())
            track.observe(det, track.filter.predict())
        n = track.first_frame + len(track.detections) + draw(st.integers(0, 5))
        impacts = draw(st.lists(st.floats(0.01, 5000.0), min_size=3, max_size=3))
        impact_values = dict(zip(SCOREABLE_CLASSES, impacts))
        weights = WeightConfig(*draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
        return track, n, impact_values, weights, draw(st.sampled_from(["descriptor", "confidence"]))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        track, n, impact_values, weights, sc_mode = case
        expected = {
            cls: _reference_scores(track, n, impact, weights, sc_mode)
            for cls, impact in impact_values.items()
        }
        assert hypothesis_scores(track, n, impact_values, weights, sc_mode) == expected
        for cls, impact in impact_values.items():
            assert score_track(track, n, impact, weights, sc_mode) == expected[cls]

    check()


@pytest.mark.parametrize("descriptor", [(math.nan, 1.0), (math.inf, 1.0)])
def test_a_repeated_non_finite_descriptor_is_not_scored_as_unchanged(descriptor):
    # one tuple object equals itself even holding NaN, so only the norm test
    # keeps these pairs off the distance-0 path
    det = Detection(ObjectClass.SPHERE, 0.6, (10.0, 10.0, 4.0, 4.0), descriptor)
    track = Track(0, 0, det, TrackerParams())
    for _ in range(2):
        track.observe(det, track.filter.predict())
    expected = _reference_scores(track, 3, SPHERE10, WeightConfig(), "descriptor").s_sc
    assert score_shape_constancy(track) == expected == 0.0
