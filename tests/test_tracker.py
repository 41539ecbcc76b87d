import io
import math
import random

import pytest

from curiophys import (
    Detection,
    DiscontinuityKind,
    EventTrace,
    FrameRecord,
    ObjectClass,
    ScenarioKind,
    TrackerParams,
    build_spec,
    generate_event,
    trace_discontinuities,
    track_event,
    write_track_csv,
)
from curiophys.ingest import scripted_violation_frame
from curiophys.trace_model import class_order_index
from curiophys.tracker import (
    SHAPE_SWITCH_MIN_RUN,
    CovarianceError,
    Discontinuity,
    PointFilter,
    Track,
    _check_covariance,
    _det_key,
    _step_pool,
    track_discontinuities,
)

from trace_builders import ObjectScript, build_trace, linear_script


def _single_track(trace, params=TrackerParams()):
    tracks = [t for t in track_event(trace, params) if not t.is_occluder]
    assert len(tracks) == 1
    return tracks[0]


def test_constant_velocity_object_yields_one_full_track():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE))
    track = _single_track(trace)
    assert track.first_frame == 0
    assert track.detected_frames == trace.frame_count
    assert all(d is not None for d in track.detections)
    assert track.resolved_class is ObjectClass.SPHERE


def test_filter_converges_on_linear_motion():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, velocity=(-2.0, 1.5)))
    track = _single_track(trace)
    settled = [r for i, r in enumerate(track.residuals) if i >= 5 and r is not None]
    assert max(settled) < 0.5
    vx, vy = track.velocities[25]
    assert vx == pytest.approx(-2.0, abs=1e-3)
    assert vy == pytest.approx(1.5, abs=1e-3)


def test_track_survives_occlusion_as_one_identity():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_OCCLUDED))
    track = _single_track(trace)
    gap = [track.first_frame + i for i, d in enumerate(track.detections) if d is None]
    assert gap == list(range(40, 56))
    # prediction keeps moving through the gap
    before = track.predicted_center_at(gap[0])
    after = track.predicted_center_at(gap[-1])
    assert after[0] - before[0] == pytest.approx(3.0 * (len(gap) - 1), abs=0.2)
    # reappearance snaps back onto the same track with a tiny residual
    reappear = track.residuals[gap[-1] + 1 - track.first_frame]
    assert reappear is not None and reappear < 1.0


def test_walls_and_objects_track_in_separate_pools():
    # wall bbox sits right on the object's path; it must never capture the object
    script = linear_script((50.0, 100.0), (3.0, 0.0), range(30))
    trace = build_trace("pools", 30, [script], wall_bbox=(60.0, 80.0, 60.0, 40.0))
    tracks = track_event(trace)
    assert len(tracks) == 2
    wall = [t for t in tracks if t.is_occluder]
    obj = [t for t in tracks if not t.is_occluder]
    assert len(wall) == 1 and len(obj) == 1
    assert obj[0].detected_frames == 30
    assert all(d is None or d.object_class is ObjectClass.SPHERE for d in obj[0].detections)
    assert wall[0].detected_frames == 30


def test_association_is_permutation_invariant():
    rng = random.Random(17)
    a = linear_script((50.0, 100.0), (3.0, 0.0), range(40), cls=ObjectClass.SPHERE)
    b = linear_script((50.0, 140.0), (3.0, 0.0), range(40), cls=ObjectClass.CUBE)
    base = build_trace("perm", 40, [a, b], wall_bbox=(300.0, 50.0, 40.0, 200.0))
    shuffled_frames = []
    for frame in base.frames:
        dets = list(frame.detections)
        rng.shuffle(dets)
        shuffled_frames.append(type(frame)(frame.frame_index, tuple(dets)))
    shuffled = type(base)(base.event_id, tuple(shuffled_frames), base.ground_truth)

    def summary(tracks):
        return sorted(
            (
                t.is_occluder,
                t.first_frame,
                tuple(d and d.center for d in t.detections),
                tuple(d and d.object_class for d in t.detections),
            )
            for t in tracks
        )

    assert summary(track_event(base)) == summary(track_event(shuffled))


def test_two_parallel_objects_stay_separate():
    a = linear_script((50.0, 100.0), (3.0, 0.0), range(40), cls=ObjectClass.SPHERE)
    b = linear_script((50.0, 200.0), (3.0, 0.0), range(40), cls=ObjectClass.CONE)
    tracks = track_event(build_trace("pair", 40, [a, b]))
    assert len(tracks) == 2
    classes = sorted(t.resolved_class.value for t in tracks)
    assert classes == ["cone", "sphere"]
    assert all(t.detected_frames == 40 for t in tracks)


def test_same_class_detection_wins_ties():
    # two detections exactly equidistant from the track's prediction (which
    # stays at the birth position after one zero-velocity predict step); the
    # one matching the track's class must win the tie
    sphere_then_pair = ObjectScript(
        centers={0: (100.0, 100.0), 1: (103.0, 100.0)},
        cls=ObjectClass.SPHERE,
    )
    intruder = ObjectScript(centers={1: (97.0, 100.0)}, cls=ObjectClass.CUBE)
    trace = build_trace("tie", 2, [sphere_then_pair, intruder])
    tracks = track_event(trace)
    original = [t for t in tracks if t.first_frame == 0][0]
    assert original.detections[1].object_class is ObjectClass.SPHERE


def test_equidistant_ties_go_to_the_smaller_content():
    # one track, then two same-class detections 3 px either side of its
    # prediction, listed in both orders: the detection that sorts first by
    # content (bbox x) is matched, and the other starts a new track
    left = _unit_box((97.0, 100.0))
    right = _unit_box((103.0, 100.0))
    for second in ((left, right), (right, left)):
        trace = EventTrace(
            "tie", (FrameRecord(0, (_unit_box((100.0, 100.0)),)), FrameRecord(1, second)), None
        )
        tracks = track_event(trace)
        assert [t.detections[-1] for t in tracks] == [left, right]
        assert [t.first_frame for t in tracks] == [0, 1]


def test_discontinuities_for_generated_kinds():
    params = TrackerParams()

    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE))
    assert trace_discontinuities(track_event(trace), trace.frame_count, params) == []

    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_OCCLUDED))
    discs = trace_discontinuities(track_event(trace), trace.frame_count, params)
    assert [(d.kind, d.start_frame, d.end_frame) for d in discs] == [
        (DiscontinuityKind.VANISH, 40, 55),
        (DiscontinuityKind.APPEAR, 40, 55),
    ]

    trace = generate_event(build_spec(ScenarioKind.IMPOSSIBLE_DISAPPEAR))
    discs = trace_discontinuities(track_event(trace), trace.frame_count, params)
    assert [(d.kind, d.start_frame, d.end_frame) for d in discs] == [
        (DiscontinuityKind.VANISH, 45, 89),
    ]

    trace = generate_event(build_spec(ScenarioKind.IMPOSSIBLE_TELEPORT))
    discs = trace_discontinuities(track_event(trace), trace.frame_count, params)
    assert [(d.kind, d.start_frame) for d in discs] == [(DiscontinuityKind.JUMP, 45)]

    trace = generate_event(build_spec(ScenarioKind.IMPOSSIBLE_SHAPE_CHANGE))
    discs = trace_discontinuities(track_event(trace), trace.frame_count, params)
    assert [(d.kind, d.start_frame) for d in discs] == [(DiscontinuityKind.SHAPE_SWITCH, 45)]
    assert "sphere -> cone" in discs[0].detail


def test_prefix_gap_yields_appear_only():
    script = linear_script((50.0, 100.0), (3.0, 0.0), range(10, 30))
    trace = build_trace("prefix", 30, [script])
    track = _single_track(trace)
    discs = track_discontinuities(track, 30)
    assert [(d.kind, d.start_frame, d.end_frame) for d in discs] == [
        (DiscontinuityKind.APPEAR, 0, 9),
    ]


def test_trailing_gap_yields_vanish_only():
    script = linear_script((50.0, 100.0), (3.0, 0.0), range(0, 20))
    trace = build_trace("trailing", 30, [script])
    track = _single_track(trace)
    discs = track_discontinuities(track, 30)
    assert [(d.kind, d.start_frame, d.end_frame) for d in discs] == [
        (DiscontinuityKind.VANISH, 20, 29),
    ]


def test_mid_gap_yields_vanish_appear_pair():
    frames = [t for t in range(40) if not 15 <= t <= 24]
    script = linear_script((50.0, 100.0), (3.0, 0.0), frames)
    trace = build_trace("midgap", 40, [script])
    track = _single_track(trace)
    discs = track_discontinuities(track, 40)
    assert [(d.kind, d.start_frame, d.end_frame) for d in discs] == [
        (DiscontinuityKind.VANISH, 15, 24),
        (DiscontinuityKind.APPEAR, 15, 24),
    ]


def test_single_frame_class_blip_is_not_a_shape_switch():
    script = ObjectScript(
        centers={t: (50.0 + 3.0 * t, 100.0) for t in range(20)},
        cls=ObjectClass.SPHERE,
        classes={9: ObjectClass.CUBE},
    )
    track = _single_track(build_trace("blip", 20, [script]))
    discs = track_discontinuities(track, 20)
    assert [d for d in discs if d.kind is DiscontinuityKind.SHAPE_SWITCH] == []


def test_sustained_class_switch_is_detected():
    script = ObjectScript(
        centers={t: (50.0 + 3.0 * t, 100.0) for t in range(20)},
        cls=ObjectClass.SPHERE,
        classes={t: ObjectClass.CUBE for t in range(12, 20)},
    )
    track = _single_track(build_trace("switch", 20, [script]))
    switches = [
        d for d in track_discontinuities(track, 20) if d.kind is DiscontinuityKind.SHAPE_SWITCH
    ]
    assert [(d.start_frame, d.end_frame) for d in switches] == [(12, 12)]


def test_teleport_registers_exactly_one_jump():
    trace = generate_event(build_spec(ScenarioKind.IMPOSSIBLE_TELEPORT))
    track = _single_track(trace)
    cut = scripted_violation_frame(build_spec(ScenarioKind.IMPOSSIBLE_TELEPORT))
    jumps = [
        d for d in track_discontinuities(track, trace.frame_count)
        if d.kind is DiscontinuityKind.JUMP
    ]
    assert [(d.start_frame, d.end_frame) for d in jumps] == [(cut, cut)]
    # and the track was not split in two
    assert track.detected_frames == trace.frame_count


def test_wall_tracks_produce_no_discontinuities():
    # wall with a detection gap still yields nothing
    wall_script = ObjectScript(
        centers={t: (300.0, 100.0) for t in range(30) if not 10 <= t <= 14},
        cls=ObjectClass.WALL,
        confidence=0.9,
    )
    trace = build_trace("wallgap", 30, [wall_script, linear_script((50, 200), (3, 0), range(30))])
    tracks = track_event(trace)
    wall = [t for t in tracks if t.is_occluder][0]
    assert track_discontinuities(wall, 30) == []


def test_covariance_contract_guard():
    _check_covariance(1.0, 0.0, 1.0)
    nan = float("nan")
    # negative diagonals, an indefinite matrix, and NaN in each entry
    bad_entries = [
        (-1.0, 0.0, 1.0),
        (1.0, 0.0, -1.0),
        (1.0, 2.0, 1.0),
        (nan, 0.0, 1.0),
        (1.0, nan, 1.0),
        (1.0, 0.0, nan),
    ]
    for bad in bad_entries:
        with pytest.raises(CovarianceError, match="not positive semi-definite"):
            _check_covariance(*bad)

    # the filter checks on every predict and every update
    f = PointFilter((0.0, 0.0), TrackerParams())
    f.b = 1000.0
    with pytest.raises(CovarianceError):
        f.predict()
    f = PointFilter((0.0, 0.0), TrackerParams())
    f.a = nan
    with pytest.raises(CovarianceError):
        f.update((1.0, 1.0))


class _MatrixFilter:
    """Reference: the general 4x4 constant-velocity Kalman filter over
    [x, y, vx, vy] with a Joseph-form update."""

    def __init__(self, np, center, params):
        self.np = np
        self.F = np.array([[1.0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
        self.H = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]])
        self.x = np.array([center[0], center[1], 0.0, 0.0])
        self.P = np.eye(4) * params.initial_variance
        self.Q = np.eye(4) * params.process_noise
        self.R = np.eye(2) * params.measurement_noise

    def predict(self):
        self.x = self.F @ self.x
        self.P = self.F @ self.P @ self.F.T + self.Q
        return (float(self.x[0]), float(self.x[1]))

    def update(self, z):
        np, H = self.np, self.H
        innovation = np.asarray(z, dtype=float) - H @ self.x
        s = H @ self.P @ H.T + self.R
        k = np.linalg.solve(s, H @ self.P).T
        self.x = self.x + k @ innovation
        ikh = np.eye(4) - k @ H
        self.P = ikh @ self.P @ ikh.T + k @ self.R @ k.T
        self.P = (self.P + self.P.T) / 2.0
        return float(np.hypot(innovation[0], innovation[1]))


def test_point_filter_matches_the_matrix_filter():
    np = pytest.importorskip("numpy")
    rng = random.Random(5)
    for _ in range(60):
        params = TrackerParams(
            process_noise=rng.uniform(0.1, 5.0),
            measurement_noise=rng.uniform(0.5, 10.0),
            initial_variance=rng.uniform(1.0, 500.0),
        )
        pos = (rng.uniform(0, 640), rng.uniform(0, 360))
        vel = (rng.uniform(-6, 6), rng.uniform(-6, 6))
        fast, ref = PointFilter(pos, params), _MatrixFilter(np, pos, params)
        for t in range(1, 90):
            assert fast.predict() == pytest.approx(ref.predict(), abs=1e-9)
            if rng.random() >= 0.2:  # otherwise a dropout: the track coasts
                z = (pos[0] + vel[0] * t + rng.gauss(0, 2), pos[1] + vel[1] * t + rng.gauss(0, 2))
                assert fast.update(z) == pytest.approx(ref.update(z), abs=1e-9)
            assert fast.velocity == pytest.approx(tuple(ref.x[2:]), abs=1e-9)
            a, b, d = fast.a, fast.b, fast.d
            shared = np.array([[a, 0, b, 0], [0, a, 0, b], [b, 0, d, 0], [0, b, 0, d]])
            assert np.max(np.abs(shared - ref.P)) < 1e-9


def test_tracker_params_validation():
    with pytest.raises(ValueError, match="assoc_gate"):
        TrackerParams(assoc_gate=0)
    with pytest.raises(ValueError, match="measurement_noise"):
        TrackerParams(measurement_noise=-1)


def test_track_csv_rows():
    frames = [t for t in range(10) if t not in (4, 5)]
    script = linear_script((50.0, 100.0), (3.0, 0.0), frames)
    track = _single_track(build_trace("csv", 10, [script]))
    buf = io.StringIO()
    write_track_csv(track, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "frame,observed_x,observed_y,predicted_x,predicted_y,residual,present"
    assert len(lines) == 11
    row4 = lines[5].split(",")
    assert row4[0] == "4" and row4[1] == "" and row4[5] == "" and row4[6] == "0"
    row0 = lines[1].split(",")
    assert row0[1] == "50.000000" and row0[6] == "1"
    # coasted frames still carry predictions
    assert row4[3] != ""


def test_last_and_resolved_class_follow_each_observation():
    def det(cls):
        return Detection.build(cls, 0.6, (90.0, 90.0, 20.0, 20.0))

    params = TrackerParams()
    track = Track(0, 0, det(ObjectClass.CONE), params)
    steps = [
        # observed class, last_class, resolved_class
        (ObjectClass.SPHERE, ObjectClass.SPHERE, ObjectClass.SPHERE),  # 1:1 tie, sphere first
        (ObjectClass.CONE, ObjectClass.CONE, ObjectClass.CONE),
        (None, ObjectClass.CONE, ObjectClass.CONE),  # a coasted frame changes nothing
        (ObjectClass.CUBE, ObjectClass.CUBE, ObjectClass.CONE),
        (ObjectClass.CUBE, ObjectClass.CUBE, ObjectClass.CONE),  # 2:2 tie, cone before cube
        (ObjectClass.CUBE, ObjectClass.CUBE, ObjectClass.CUBE),
    ]
    for cls, last, resolved in steps:
        predicted = track.filter.predict()
        if cls is None:
            track.coast(predicted)
        else:
            track.observe(det(cls), predicted)
        assert (track.last_class, track.resolved_class) == (last, resolved)


# -- association parity ------------------------------------------------------


def _reference_step_pool(pool, dets, params):
    """Reference: the all-pairs association loop, which tests every track
    against every detection and reads the last class from the detections."""
    predictions = [t.filter.predict() for t in pool]
    canon = sorted(range(len(dets)), key=lambda j: _det_key(dets[j]))

    pairs = []
    for ti, track in enumerate(pool):
        last_class = next(d.object_class for d in reversed(track.detections) if d is not None)
        px, py = predictions[ti]
        for dj in canon:
            det = dets[dj]
            cx, cy = det.center
            dist = math.hypot(px - cx, py - cy)
            if dist > params.assoc_gate:
                continue
            mismatch = 0 if det.object_class is last_class else 1
            pairs.append((dist, mismatch, track.track_id, _det_key(det), ti, dj))
    pairs.sort(key=lambda p: p[:4])

    track_taken = [False] * len(pool)
    det_taken = [False] * len(dets)
    for _, _, _, _, ti, dj in pairs:
        if track_taken[ti] or det_taken[dj]:
            continue
        track_taken[ti] = True
        det_taken[dj] = True
        pool[ti].observe(dets[dj], predictions[ti])

    for ti, track in enumerate(pool):
        if not track_taken[ti]:
            track.coast(predictions[ti])

    return [dets[dj] for dj in canon if not det_taken[dj]]


def _reference_track_event(trace, params):
    tracks = []
    for frame in trace.frames:
        obj_dets = [d for d in frame.detections if d.object_class is not ObjectClass.WALL]
        wall_dets = [d for d in frame.detections if d.object_class is ObjectClass.WALL]
        for dets, is_wall_pool in ((obj_dets, False), (wall_dets, True)):
            pool = [t for t in tracks if t.is_occluder == is_wall_pool]
            for det in _reference_step_pool(pool, dets, params):
                tracks.append(Track(len(tracks), frame.frame_index, det, params))
    return tracks


def _reference_resolved_class(track):
    counts = {}
    for _, det in track.observed():
        counts[det.object_class] = counts.get(det.object_class, 0) + 1
    return max(counts, key=lambda c: (counts[c], -class_order_index(c)))


def _track_summary(tracks):
    for t in tracks:
        # the O(1) aggregates against a walk over the frames
        assert t.detected_frames == sum(1 for d in t.detections if d is not None)
        assert t.resolved_class is _reference_resolved_class(t)
    return [
        (
            t.track_id,
            t.first_frame,
            t.is_occluder,
            t.detections,
            t.centers_predicted,
            t.residuals,
            t.velocities,
            t.last_class,
            t.resolved_class,
            t.detected_frames,
        )
        for t in tracks
    ]


def _unit_box(center, cls=ObjectClass.SPHERE):
    # a 1x1 box, so x + 0.5 gives the center back exactly
    return Detection.build(cls, 0.6, (center[0] - 0.5, center[1] - 0.5, 1.0, 1.0), (1.0, 0.1))


# (first center, second center, gate, tracks' detected frames)
GATE_CASES = [
    ((96.0, 20.0), (146.0, 20.0), 50.0, [2]),  # exactly the gate
    ((96.0, 20.0), (math.nextafter(146.0, math.inf), 20.0), 50.0, [1, 1]),  # just beyond
    ((20.0, -96.0), (20.0, -46.0), 50.0, [2]),  # the same on y, at negative coordinates
    ((20.0, -96.0), (20.0, math.nextafter(-46.0, math.inf)), 50.0, [1, 1]),
    ((-130.0, -90.0), (-100.0, -50.0), 50.0, [2]),  # a 30-40-50 triangle
    ((0.9999999999999999, 0.5), (2.0, 0.5), 1.0, [2]),  # the difference rounds down to the gate
    ((-1000.0, 500.0), (-1000.0, 507.5), 7.5, [2]),  # off the scene, a non-default gate
    ((1e308, 1e308), (1e308, 1e308), 50.0, [2]),  # near the float limit
    ((1e308, 1e308), (math.nextafter(1e308, math.inf), 1e308), 50.0, [1, 1]),
]


def test_gate_boundaries_match_the_reference():
    for first, second, gate, detected in GATE_CASES:
        trace = EventTrace(
            "gate",
            (FrameRecord(0, (_unit_box(first),)), FrameRecord(1, (_unit_box(second),))),
            None,
        )
        params = TrackerParams(assoc_gate=gate)
        tracks = track_event(trace, params)
        assert _track_summary(tracks) == _track_summary(_reference_track_event(trace, params))
        assert [t.detected_frames for t in tracks] == detected, (first, second, gate)


def test_non_finite_positions_get_no_candidates():
    # a trace built in code skips validate_trace: one center overflows to
    # inf and one is NaN; neither may raise, match or be matched
    overflow = Detection.build(ObjectClass.SPHERE, 0.6, (1.7e308, 100.0, 1e308, 20.0), (1.0, 0.1))
    nan_box = Detection.build(ObjectClass.SPHERE, 0.6, (math.nan, 100.0, 20.0, 20.0), (1.0, 0.1))
    trace = EventTrace(
        "non-finite", tuple(FrameRecord(t, (overflow, nan_box)) for t in range(3)), None
    )
    tracks = track_event(trace)
    assert [(t.first_frame, t.detected_frames) for t in tracks] == [
        (0, 1), (0, 1), (1, 1), (1, 1), (2, 1), (2, 1)
    ]


def test_nan_prediction_coasts():
    params = TrackerParams()
    det = _unit_box((100.0, 100.0))
    track = Track(0, 0, det, params)
    track.filter.x = math.nan
    assert _step_pool([track], [det], params) == [det]
    assert track.detections == [det, None]
    assert math.isnan(track.centers_predicted[1][0])


def test_sweep_window_reaches_past_the_gate():
    # 5.5 and -27.8 are 33.3 apart, within gate 33.3, but 5.5 - 33.3 rounds
    # to -27.799999999999997: a window of one gate would drop the pair
    params = TrackerParams(assoc_gate=33.3)
    near, far = _unit_box((-27.8, 20.0)), _unit_box((400.0, 20.0))
    assert math.hypot(5.5 - near.center[0], 0.0) <= params.assoc_gate
    assert 5.5 - params.assoc_gate > near.center[0]
    trace = EventTrace(
        "window", (FrameRecord(0, (_unit_box((5.5, 20.0)),)), FrameRecord(1, (far, near))), None
    )
    tracks = track_event(trace, params)
    start = trace.frames[0].detections[0]
    assert [(t.first_frame, t.detections) for t in tracks] == [(0, [start, near]), (1, [far])]
    assert _track_summary(tracks) == _track_summary(_reference_track_event(trace, params))


def test_non_finite_x_leaves_the_finite_association_alone():
    # trace built in code: NaN-x and +-inf-x boxes beside moving finite ones
    nan_x = Detection.build(ObjectClass.SPHERE, 0.6, (math.nan, 40.0, 1.0, 1.0), (1.0, 0.1))
    pos_inf = Detection.build(ObjectClass.CUBE, 0.6, (math.inf, 40.0, 1.0, 1.0), (1.0, 0.1))
    neg_inf = Detection.build(ObjectClass.CONE, 0.6, (-math.inf, 40.0, 1.0, 1.0), (1.0, 0.1))
    # listed out of x order: an unsortable NaN among them would leave the
    # x order broken and the 400 px object out of its own window
    finite_frames = [
        tuple(_unit_box((x + 3.0 * t, 40.0 + 0.5 * t)) for x in (400.0, 10.0, 55.0, 100.0))
        for t in range(5)
    ]
    clean = EventTrace(
        "finite", tuple(FrameRecord(t, dets) for t, dets in enumerate(finite_frames)), None
    )
    mixed = EventTrace(
        "mixed",
        tuple(
            FrameRecord(t, (dets[0], nan_x, *dets[1:3], pos_inf, neg_inf, dets[3]))
            for t, dets in enumerate(finite_frames)
        ),
        None,
    )

    def finite_tracks(tracks):
        # NaN keys are not ordered, so birth order (track ids) may differ
        return sorted(
            (
                (t.first_frame, t.detections[0].bbox),
                t.detections,
                t.centers_predicted,
                t.residuals,
                t.velocities,
            )
            for t in tracks
            if math.isfinite(t.detections[0].center[0])
        )

    tracks = track_event(mixed)
    assert finite_tracks(tracks) == finite_tracks(track_event(clean))
    finite = [t for t in tracks if math.isfinite(t.detections[0].center[0])]
    assert [t.detected_frames for t in finite] == [5, 5, 5, 5]
    # every non-finite detection matches nothing and starts a track of its own
    others = [t for t in tracks if t not in finite]
    assert all(t.detected_frames == 1 for t in others)
    assert sorted((t.first_frame, id(t.detections[0])) for t in others) == sorted(
        (f, id(d)) for f in range(5) for d in (nan_x, pos_inf, neg_inf)
    )


def test_sweep_prunes_the_distance_tests(monkeypatch):
    # a 5 x 4 grid laid out like the crowded benchmark scene: objects 128 x 90
    # px apart, moving in step; a window of twice the 50 px gate holds one
    # column, so a track makes 4 gate tests and one filter update per frame
    # where all pairs would make 20 tests
    frames = tuple(
        FrameRecord(
            t,
            tuple(
                _unit_box((64.0 + 128.0 * c + 1.5 * t, 45.0 + 90.0 * r + 0.3 * t))
                for r in range(4)
                for c in range(5)
            ),
        )
        for t in range(6)
    )
    calls = []
    hypot = math.hypot
    monkeypatch.setattr(math, "hypot", lambda *xy: calls.append(xy) or hypot(*xy))
    tracks = track_event(EventTrace("grid", frames, None))
    monkeypatch.undo()
    assert [t.detected_frames for t in tracks] == [6] * 20
    track_frames = 20 * (len(frames) - 1)
    assert len(calls) <= 5 * track_frames


def test_association_matches_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    classes = st.sampled_from(
        [ObjectClass.SPHERE, ObjectClass.CONE, ObjectClass.CUBE, ObjectClass.WALL]
    )

    @st.composite
    def scenes(draw):
        gate = draw(st.sampled_from([50.0, 1.0, 7.5, 33.3]) | st.floats(0.5, 300.0))

        def near(value):
            # the value itself or a few ulps either side
            steps = draw(st.integers(-3, 3))
            for _ in range(abs(steps)):
                value = math.nextafter(value, math.copysign(math.inf, steps))
            return value

        coordinate = st.one_of(
            st.integers(-12, 12).map(lambda k: k * gate),  # multiples of the gate
            st.integers(0, 60).map(lambda m: 2.0 ** m * gate),  # coarse rounding far out
            st.floats(-2000.0, 3000.0),  # in and far off the 640x360 scene
            st.integers(-600, 600).map(lambda k: k / 10),  # one decimal, as detectors report
            st.sampled_from([1e308, -1e308, 1.5e308, 2.0 ** 1000]),  # near the float limit
        )
        anchors = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=5))
        offset = st.sampled_from(
            [0.0, gate, -gate, gate / 2, -gate / 2, 2.0 * gate, 0.6 * gate, 0.8 * gate]
        )
        frames = []
        for t in range(draw(st.integers(1, 7))):
            dets = []
            for _ in range(draw(st.integers(0, 10))):
                ax, ay = draw(st.sampled_from(anchors))
                cx, cy = near(ax + draw(offset)), near(ay + draw(offset))
                dets.append(_unit_box((cx, cy), draw(classes)))
            frames.append(FrameRecord(t, tuple(dets)))
        return EventTrace("parity", tuple(frames), None), TrackerParams(assoc_gate=gate)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(scenes())
    def check(scene):
        trace, params = scene
        assert _track_summary(track_event(trace, params)) == _track_summary(
            _reference_track_event(trace, params)
        )

    check()


def _reference_discontinuities(track, frame_count, params):
    """All three scans over every frame, whatever the track's aggregates say."""
    if track.is_occluder:
        return []
    tid = track.track_id
    out = []
    if track.first_frame > 0:
        detail = f"first detected at frame {track.first_frame}"
        out.append((DiscontinuityKind.APPEAR, tid, 0, track.first_frame - 1, detail))
    gap_start = None
    for i, det in enumerate(track.detections):
        frame = track.first_frame + i
        if det is None and gap_start is None:
            gap_start = frame
        elif det is not None and gap_start is not None:
            out.append((DiscontinuityKind.VANISH, tid, gap_start, frame - 1, ""))
            out.append((DiscontinuityKind.APPEAR, tid, gap_start, frame - 1, ""))
            gap_start = None
    if gap_start is not None:
        out.append((DiscontinuityKind.VANISH, tid, gap_start, frame_count - 1, ""))
    for i, residual in enumerate(track.residuals):
        if i > 0 and residual is not None and residual > params.jump_gate:
            frame = track.first_frame + i
            detail = f"residual {residual:.1f}px"
            out.append((DiscontinuityKind.JUMP, tid, frame, frame, detail))
    runs = []  # [class, start_frame, count]
    for frame, det in track.observed():
        if runs and runs[-1][0] is det.object_class:
            runs[-1][2] += 1
        else:
            runs.append([det.object_class, frame, 1])
    if runs:
        established = runs[0][0]
        for cls, start, count in runs[1:]:
            if cls is not established and count >= SHAPE_SWITCH_MIN_RUN:
                detail = f"{established.value} -> {cls.value}"
                out.append((DiscontinuityKind.SHAPE_SWITCH, tid, start, start, detail))
                established = cls
    order = [
        DiscontinuityKind.VANISH,
        DiscontinuityKind.APPEAR,
        DiscontinuityKind.JUMP,
        DiscontinuityKind.SHAPE_SWITCH,
    ]
    out.sort(key=lambda d: (d[2], d[3], order.index(d[0])))
    return [Discontinuity(*d) for d in out]


def test_discontinuities_match_the_all_scans_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    objects = [ObjectClass.SPHERE, ObjectClass.CONE, ObjectClass.CUBE]
    params = TrackerParams()

    @st.composite
    def tracks(draw):
        if draw(st.integers(0, 9)) == 0:
            established, others = ObjectClass.WALL, [ObjectClass.WALL]
        else:
            established = draw(st.sampled_from(objects))
            others = [c for c in objects if c is not established]
        # runs of the established class broken by runs of 1-4 frames of another
        # class, so A -> B -> A, blips, sustained switches and returns all occur
        classes = [established] * draw(st.integers(1, 6))
        for _ in range(draw(st.integers(0, 4))):
            classes += [draw(st.sampled_from(others))] * draw(st.integers(1, 4))
            classes += [established] * draw(st.integers(0, 6))
        gaps = st.integers(0, 3) if draw(st.booleans()) else st.just(0)
        x = 50.0
        track = Track(0, draw(st.integers(0, 4)), _unit_box((x, 100.0), classes[0]), params)
        for cls in classes[1:]:
            for _ in range(draw(gaps)):
                track.coast(track.filter.predict())
            x += draw(st.sampled_from([3.0, 3.0, 3.0, 200.0]))  # now and then a jump
            track.observe(_unit_box((x, 100.0), cls), track.filter.predict())
        for _ in range(draw(gaps)):
            track.coast(track.filter.predict())
        return track

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(tracks())
    def check(track):
        frame_count = track.first_frame + len(track.detections)
        assert track_discontinuities(track, frame_count, params) == (
            _reference_discontinuities(track, frame_count, params)
        )

    check()
