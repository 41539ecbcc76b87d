import math
import random
import re

import pytest

from curiophys import ObjectClass, ScenarioKind, build_spec, generate_event, track_event, tracker
from curiophys.ingest import scripted_violation_frame
from curiophys.trace_model import CLASS_ORDER, Detection, EventTrace, class_order_index
from curiophys.tracker import (
    SHAPE_SWITCH_MIN_RUN,
    SHARED_STATES,
    CovarianceError,
    Discontinuity,
    DiscontinuityKind,
    PointFilter,
    Track,
    TrackerParams,
    _check_covariance,
    _det_key,
    _step_pool,
    trace_discontinuities,
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
    before, *_, after = tracker.gap_centers(track, gap[0], gap[-1])
    assert after[0] - before[0] == pytest.approx(3.0 * (len(gap) - 1), abs=0.2)
    # reappearance snaps back onto the same track with a tiny residual
    reappear = track.residuals[gap[-1] + 1 - track.first_frame]
    assert reappear is not None and reappear < 1.0


def test_gap_centers_are_the_coasted_predictions():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_OCCLUDED))
    track = _single_track(trace)
    first = track.first_frame
    centers = tracker.gap_centers(track, 40, 55)
    assert len(centers) == 16
    assert all(
        c is track.centers_predicted[f - first] for f, c in zip(range(40, 56), centers)
    )


def test_gap_centers_before_birth_extrapolate_from_two_observations():
    # seen at frames 30 and 32, missed at 31: 8 px and -2 px per frame
    script = ObjectScript({30: (100.0, 100.0), 32: (116.0, 96.0)})
    track = _single_track(build_trace("pop-in-twice", 33, [script]))
    assert tracker.gap_centers(track, 0, 2) == [(-140.0, 160.0), (-132.0, 158.0), (-124.0, 156.0)]
    assert tracker.gap_centers(track, 29, 29) == [(92.0, 102.0)]


def test_gap_centers_before_birth_hold_a_single_observation():
    script = ObjectScript({10: (300.0, 100.0)})
    track = _single_track(build_trace("pop-in-once", 20, [script]))
    assert tracker.gap_centers(track, 0, 9) == [(300.0, 100.0)] * 10


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
        dets = list(frame)
        rng.shuffle(dets)
        shuffled_frames.append(tuple(dets))
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
        trace = EventTrace("tie", ((_unit_box((100.0, 100.0)),), second), None)
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


def test_a_residual_equal_to_the_jump_gate_is_no_jump():
    # born at x = 100 with no velocity and seen next at x = 125: an
    # innovation of exactly 25 px, a jump only under a smaller gate
    script = ObjectScript({0: (100.0, 100.0), 1: (125.0, 100.0)})
    track = _single_track(build_trace("at-gate", 2, [script]))
    assert track.residuals == [0.0, 25.0]
    assert track_discontinuities(track, 2, TrackerParams(jump_gate=25.0)) == []
    (jump,) = track_discontinuities(track, 2, TrackerParams(jump_gate=24.999))
    assert (jump.kind, jump.start_frame) == (DiscontinuityKind.JUMP, 1)


def test_a_discontinuity_cannot_end_before_it_starts():
    with pytest.raises(ValueError, match="end_frame must be >= start_frame"):
        Discontinuity(DiscontinuityKind.VANISH, 0, 5, 4)
    assert Discontinuity(DiscontinuityKind.JUMP, 0, 5, 5).end_frame == 5


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

    # Bad states come from real parameters: a huge initial variance loses
    # PSD to rounding on the second update, and an overflowing process
    # noise fails on the second predict.  A state that fails is never
    # shared, so a second filter with the same parameters raises at the
    # same step.
    rounding = TrackerParams(initial_variance=1e17)
    overflow = TrackerParams(process_noise=1e308)
    for _ in range(2):
        f = PointFilter((0.0, 0.0), rounding)
        f.predict()
        f.update((1.0, 1.0))
        f.predict()
        shown = "[[2.000e+00, 2.000e+00], [2.000e+00, 0.000e+00]]"
        with pytest.raises(CovarianceError, match=re.escape(shown)):
            f.update((1.0, 1.0))
        f = PointFilter((0.0, 0.0), overflow)
        f.predict()
        with pytest.raises(CovarianceError, match=re.escape("[[inf, 1.000e+308]")):
            f.predict()


class _ReferenceFilter:
    """The filter's recurrence with nothing shared: every step computes its
    covariance afresh and checks it."""

    def __init__(self, center, params):
        self.x, self.y = center
        self.vx = self.vy = 0.0
        self.a = self.d = params.initial_variance
        self.b = 0.0
        self.q, self.r = params.process_noise, params.measurement_noise

    def predict(self):
        self.x += self.vx
        self.y += self.vy
        a, b, d, q = self.a, self.b, self.d, self.q
        self.a, self.b, self.d = a + 2.0 * b + d + q, b + d, d + q
        _check_covariance(self.a, self.b, self.d)
        return (self.x, self.y)

    def update(self, z):
        ix, iy = z[0] - self.x, z[1] - self.y
        a, b, r = self.a, self.b, self.r
        s = a + r
        kp, kv = a / s, b / s
        self.x += kp * ix
        self.y += kp * iy
        self.vx += kv * ix
        self.vy += kv * iy
        self.a, self.b, self.d = r * kp, r * kv, self.d - b * kv
        _check_covariance(self.a, self.b, self.d)
        return math.hypot(ix, iy)


def _frame(f, z):
    """A predict, then an update where z is given: the prediction, the
    innovation and the filter's state after it, or the CovarianceError."""
    try:
        predicted = f.predict()
        innovation = None if z is None else f.update(z)
    except CovarianceError as exc:
        return str(exc)
    return (predicted, innovation, f.x, f.y, f.vx, f.vy, f.a, f.b, f.d)


def test_shared_states_match_the_reference_recurrence(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # the large values reach the states that fail the check
    noise = st.floats(0.01, 500.0) | st.sampled_from([1.0, 2.0, 100.0, 1e17, 1e20, 1e160, 1e308])
    point = st.tuples(st.floats(-1000.0, 1000.0), st.floats(-1000.0, 1000.0))
    track = st.tuples(point, st.lists(st.none() | point, max_size=60))
    default_bound = tracker.SHARED_STATES

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(noise, noise, noise, st.lists(track, min_size=1, max_size=4))
    def check(q, r, p0, tracks):
        for bound in (default_bound, 8):
            monkeypatch.setattr(tracker, "SHARED_STATES", bound)
            params = TrackerParams(process_noise=q, measurement_noise=r, initial_variance=p0)
            for center, measurements in tracks:
                f, ref = PointFilter(center, params), _ReferenceFilter(center, params)
                for z in measurements:
                    outcome = _frame(f, z)
                    assert outcome == _frame(ref, z)
                    if isinstance(outcome, str):
                        break
            assert len(params._covariances.states) <= bound

    check()


def test_a_long_run_fills_the_shared_table_to_its_bound():
    # a tenth of the frames missed: almost every state is new, and past
    # the bound new states are still computed and checked, not kept
    rng = random.Random(11)
    params = TrackerParams()
    for _ in range(100):
        center = (rng.uniform(0, 640), rng.uniform(0, 360))
        f, ref = PointFilter(center, params), _ReferenceFilter(center, params)
        for t in range(1, 90):
            z = None
            if rng.random() >= 0.1:
                z = (center[0] + 2.0 * t + rng.gauss(0, 0.5), center[1] + rng.gauss(0, 0.5))
            assert _frame(f, z) == _frame(ref, z)
    assert len(params._covariances.states) == SHARED_STATES


def test_tracks_with_one_history_share_one_covariance_state():
    # laid out like the crowded benchmark scene: 20 objects and 4 walls,
    # each seen in every frame
    walls = tuple(_unit_box((100.0 + 150.0 * k, 340.0), ObjectClass.WALL) for k in range(4))
    frames = tuple(
        tuple(
            _unit_box((64.0 + 128.0 * c + 1.5 * t, 45.0 + 90.0 * r + 0.3 * t))
            for r in range(4)
            for c in range(5)
        )
        + walls
        for t in range(8)
    )
    params = TrackerParams()
    for end in range(1, len(frames) + 1):
        tracks = track_event(EventTrace("grid", frames[:end], None), params)
        objects = [t for t in tracks if not t.is_occluder]
        assert [t.detected_frames for t in objects] == [end] * 20
        assert len({id(t.filter.covariance) for t in objects}) == 1


def test_a_repeated_history_reads_only_linked_states(monkeypatch):
    params = TrackerParams()
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, noise_sigma=0.5))
    track = Track(0, 0, trace.frames[0][0], params)
    states = [track.filter.covariance]
    for (det,) in trace.frames[1:]:
        track.observe(det, track.filter.predict(), det.center)
        states.append(track.filter.covariance)
    # observed every frame, the covariance reaches a fixed point
    assert states[40] is states[39]

    # another visible event steps through the same states: every predict
    # and update reads its linked successor, so none computes one
    computed = []
    for name in ("predict", "update"):

        def counted(self, _method=getattr(tracker._Covariance, name)):
            computed.append(self)
            return _method(self)

        monkeypatch.setattr(tracker._Covariance, name, counted)
    other = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE, noise_sigma=2.0))
    (track,) = track_event(other, params)
    assert track.detected_frames == other.frame_count
    assert computed == []


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
            d = det(cls)
            track.observe(d, predicted, d.center)
        assert (track.last_class, track.resolved_class) == (last, resolved)


def _check_class_record(track):
    """A track's class runs and the aggregates read off them, against walks
    over its frames."""
    runs = []  # [class, first frame, observations]
    for frame, det in track.observed():
        if runs and runs[-1][0] is det.object_class:
            runs[-1][2] += 1
        else:
            runs.append([det.object_class, frame, 1])
    assert track._class_runs == runs
    classes = [d.object_class for d in track.detections if d is not None]
    assert track.last_class is classes[-1]
    assert track.detected_frames == len(classes)
    # max keeps the first of equal counts: ties go to the smaller class
    assert track.resolved_class is max(CLASS_ORDER, key=classes.count)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_class_runs_match_walks_over_generated_events(kind):
    for noise in (0.0, 2.0):
        for track in track_event(generate_event(build_spec(kind, noise_sigma=noise))):
            _check_class_record(track)


def test_class_runs_match_walks_over_the_frames():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # each step observes a box of the drawn class or, for None, coasts
    steps = st.lists(st.none() | st.sampled_from(CLASS_ORDER), max_size=30)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 5), st.sampled_from(CLASS_ORDER), steps)
    def check(first_frame, born, steps):
        track = Track(0, first_frame, _unit_box((50.0, 100.0), born), TrackerParams())
        _check_class_record(track)
        for cls in steps:
            predicted = track.filter.predict()
            if cls is None:
                track.coast(predicted)
            else:
                box = _unit_box((50.0, 100.0), cls)
                track.observe(box, predicted, box.center)
            _check_class_record(track)

    check()


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
        pool[ti].observe(dets[dj], predictions[ti], dets[dj].center)

    for ti, track in enumerate(pool):
        if not track_taken[ti]:
            track.coast(predictions[ti])

    return [dets[dj] for dj in canon if not det_taken[dj]]


def _reference_track_event(trace, params):
    tracks = []
    for frame_index, frame in enumerate(trace.frames):
        obj_dets = [d for d in frame if d.object_class is not ObjectClass.WALL]
        wall_dets = [d for d in frame if d.object_class is ObjectClass.WALL]
        for dets, is_wall_pool in ((obj_dets, False), (wall_dets, True)):
            pool = [t for t in tracks if t.is_occluder == is_wall_pool]
            for det in _reference_step_pool(pool, dets, params):
                tracks.append(Track(len(tracks), frame_index, det, params))
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
            ((_unit_box(first),), (_unit_box(second),)),
            None,
        )
        params = TrackerParams(assoc_gate=gate)
        tracks = track_event(trace, params)
        assert _track_summary(tracks) == _track_summary(_reference_track_event(trace, params))
        assert [t.detected_frames for t in tracks] == detected, (first, second, gate)


# (the track's first detection, the next frame's one detection, gate, matched)
ONE_PAIR_CASES = [
    # a class mismatch inside the gate is still the only pair, so it matches
    (_unit_box((96.0, 20.0)), _unit_box((120.0, 20.0), ObjectClass.CUBE), 50.0, True),
    (_unit_box((96.0, 20.0)), _unit_box((146.0, 20.0)), 50.0, True),  # exactly the gate
    (_unit_box((96.0, 20.0)), _unit_box((math.nextafter(146.0, math.inf), 20.0)), 50.0, False),
    # the detection's center overflows to inf
    (
        _unit_box((96.0, 20.0)),
        Detection.build(ObjectClass.SPHERE, 0.6, (1.7e308, 100.0, 1e308, 20.0), (1.0, 0.1)),
        50.0,
        False,
    ),
    # a pool of one wall, at and one ulp beyond a non-default gate
    (
        _unit_box((300.0, 180.0), ObjectClass.WALL),
        _unit_box((300.0, 187.5), ObjectClass.WALL),
        7.5,
        True,
    ),
    (
        _unit_box((300.0, 180.0), ObjectClass.WALL),
        _unit_box((300.0, math.nextafter(187.5, math.inf)), ObjectClass.WALL),
        7.5,
        False,
    ),
]


@pytest.mark.parametrize("first, det, gate, matched", ONE_PAIR_CASES)
def test_one_track_one_detection_matches_the_reference(monkeypatch, first, det, gate, matched):
    params = TrackerParams(assoc_gate=gate)
    pool, reference_pool = [Track(0, 0, first, params)], [Track(0, 0, first, params)]
    calls = []
    for name in ("predict", "update"):

        def counted(self, *args, _method=getattr(PointFilter, name), _name=name):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(PointFilter, name, counted)
    unmatched = _step_pool(pool, [det], params)
    assert calls == (["predict", "update"] if matched else ["predict"])
    assert unmatched == _reference_step_pool(reference_pool, [det], params)
    assert unmatched == ([] if matched else [det])
    assert _track_summary(pool) == _track_summary(reference_pool)
    assert pool[0].detections[1] is (det if matched else None)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_generated_events_track_as_the_reference_does(kind):
    for noise in (0.0, 0.5, 2.0, 4.0):
        for seed in (0, 1, 2):
            trace = generate_event(build_spec(kind, noise_sigma=noise, seed=seed))
            params = TrackerParams()
            assert _track_summary(track_event(trace, params)) == _track_summary(
                _reference_track_event(trace, params)
            ), (kind, noise, seed)


def _two_tracks_one_detection():
    near, far, det = _unit_box((100.0, 100.0)), _unit_box((130.0, 100.0)), _unit_box((112.0, 100.0))
    # det is 12 px from the first track's prediction and 18 px from the second's
    return ((near, far), (det,)), [(0, [near, det]), (0, [far, None])]


def _one_track_two_detections():
    start, far, near = _unit_box((100.0, 100.0)), _unit_box((120.0, 100.0)), _unit_box((90.0, 100.0))
    # both inside the gate; the nearer one is listed second
    return ((start,), (far, near)), [(0, [start, near]), (1, [far])]


def _distance_tie(left_first):
    start, left, right = _unit_box((100.0, 100.0)), _unit_box((97.0, 100.0)), _unit_box((103.0, 100.0))
    second = (left, right) if left_first else (right, left)
    # 3 px either side: the smaller content (bbox x) is matched
    return ((start,), second), [(0, [start, left]), (1, [right])]


def _object_and_wall_born_together():
    wall = _unit_box((300.0, 180.0), ObjectClass.WALL)
    obj, moved = _unit_box((100.0, 100.0)), _unit_box((103.0, 100.0))
    # the wall is listed first, yet the object pool's births come first
    return ((wall, obj), (wall, moved)), [(0, [obj, moved]), (0, [wall, wall])]


def _single_object_at_the_gate(beyond):
    first = _unit_box((96.0, 20.0))
    second = _unit_box((math.nextafter(146.0, math.inf) if beyond else 146.0, 20.0))
    expected = [(0, [first, None]), (1, [second])] if beyond else [(0, [first, second])]
    return ((first,), (second,)), expected


def _single_object_behind_a_wall():
    wall = _unit_box((200.0, 100.0), ObjectClass.WALL)
    path = [_unit_box((150.0 + 5.0 * t, 100.0)) if not 8 <= t <= 12 else None for t in range(20)]
    frames = tuple((det, wall) if det is not None else (wall,) for det in path)
    return frames, [(0, path), (0, [wall] * 20)]


def _single_object_with_a_missed_wall():
    wall, obj = _unit_box((300.0, 180.0), ObjectClass.WALL), _unit_box((100.0, 100.0))
    # the frame without the wall must still coast the wall's track
    return ((obj, wall), (obj,), (obj, wall)), [(0, [obj] * 3), (0, [wall, None, wall])]


def _wall_alone_after_an_object():
    obj, wall = _unit_box((100.0, 100.0)), _unit_box((110.0, 100.0), ObjectClass.WALL)
    # one detection facing one object track, but a wall: never the object's
    return ((obj,), (wall,)), [(0, [obj, None]), (1, [wall])]


def _one_object_between_two_walls():
    obj, moved = _unit_box((300.0, 100.0)), _unit_box((303.0, 100.0))
    near, far = _unit_box((200.0, 100.0), ObjectClass.WALL), _unit_box((400.0, 100.0), ObjectClass.WALL)
    # two walls are never one pool's lone detection, and once there are two
    # wall tracks the far one must coast beside the lone pair
    return ((near, obj, far), (moved, near)), [(0, [obj, moved]), (0, [near, near]), (0, [far, None])]


def _identical_twins_contested(twins_first):
    start, cube = _unit_box((100.0, 100.0)), _unit_box((97.0, 100.0), ObjectClass.CUBE)
    twins = (_unit_box((103.0, 100.0)), _unit_box((103.0, 100.0)))  # equal content
    second = twins + (cube,) if twins_first else (cube,) + twins
    # all three 3 px from the prediction: a twin wins on class, and the
    # other twin is born after the cube, which sorts first by content
    return ((start,), second), [(0, [start, twins[0]]), (1, [cube]), (1, [twins[1]])]


# frames of one event, and each track's (first frame, detections) in id order
ASSOCIATION_CASES = {
    "two-tracks-one-detection": _two_tracks_one_detection(),
    "one-track-two-detections": _one_track_two_detections(),
    "distance-tie-left-first": _distance_tie(True),
    "distance-tie-right-first": _distance_tie(False),
    "object-and-wall-born-together": _object_and_wall_born_together(),
    "single-object-at-the-gate": _single_object_at_the_gate(False),
    "single-object-beyond-the-gate": _single_object_at_the_gate(True),
    "single-object-behind-a-wall": _single_object_behind_a_wall(),
    "single-object-with-a-missed-wall": _single_object_with_a_missed_wall(),
    "wall-alone-after-an-object": _wall_alone_after_an_object(),
    "one-object-between-two-walls": _one_object_between_two_walls(),
    "identical-twins-listed-first": _identical_twins_contested(True),
    "identical-twins-listed-last": _identical_twins_contested(False),
}


@pytest.mark.parametrize("case", ASSOCIATION_CASES)
def test_association_cases_match_the_reference(case):
    frames, expected = ASSOCIATION_CASES[case]
    trace, params = EventTrace(case, frames, None), TrackerParams()
    tracks = track_event(trace, params)
    assert [(t.first_frame, t.detections) for t in tracks] == expected
    assert _track_summary(tracks) == _track_summary(_reference_track_event(trace, params))


def test_uncontested_pools_rank_only_births(monkeypatch):
    # a 3 x 3 grid moving in step, 128 x 90 px apart against the 50 px gate:
    # no track and no detection is ever in two in-gate pairs
    frames = tuple(
        tuple(
            _unit_box((64.0 + 128.0 * c + 1.5 * t, 45.0 + 90.0 * r + 0.3 * t))
            for c in (2, 0, 1)
            for r in (1, 2, 0)
        )
        for t in range(6)
    )
    keyed = []

    def counted(det, _key=tracker._det_key):
        keyed.append(det)
        return _key(det)

    monkeypatch.setattr(tracker, "_det_key", counted)
    trace, params = EventTrace("grid", frames, None), TrackerParams()
    tracks = track_event(trace, params)
    monkeypatch.undo()
    assert sorted(map(id, keyed)) == sorted(map(id, frames[0]))
    assert [t.detected_frames for t in tracks] == [6] * 9
    assert _track_summary(tracks) == _track_summary(_reference_track_event(trace, params))


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_filter_steps_once_per_frame_after_birth(monkeypatch, kind):
    trace = generate_event(build_spec(kind))
    calls = {"predict": [], "update": []}
    for name in calls:

        def counted(self, *args, _method=getattr(PointFilter, name), _calls=calls[name]):
            _calls.append(self)
            return _method(self, *args)

        monkeypatch.setattr(PointFilter, name, counted)
    tracks = track_event(trace)
    monkeypatch.undo()
    objects = [t for t in tracks if not t.is_occluder]
    assert len(objects) == 1
    for t in tracks:
        assert sum(f is t.filter for f in calls["predict"]) == len(t.detections) - 1
        assert sum(f is t.filter for f in calls["update"]) == t.detected_frames - 1
    assert len(calls["predict"]) == sum(len(t.detections) - 1 for t in tracks)
    assert len(calls["update"]) == sum(t.detected_frames - 1 for t in tracks)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_one_object_events_never_search_a_pool(monkeypatch, kind):
    # one object and at most one wall: every frame takes the single-pair
    # rule per pool, coasts, or gives a birth, and no pool is split out
    # (at sigma 4 an object can come out of occlusion beyond the gate; its
    # second track then takes the pool search)
    searched = []

    def counted(pool, dets, params, _step=tracker._step_pool):
        searched.append((len(pool), len(dets)))
        return _step(pool, dets, params)

    for noise in (0.0, 0.5, 2.0):
        for seed in (0, 1, 2):
            trace, params = generate_event(build_spec(kind, noise_sigma=noise, seed=seed)), TrackerParams()
            monkeypatch.setattr(tracker, "_step_pool", counted)
            tracks = track_event(trace, params)
            monkeypatch.undo()
            assert searched == [], (noise, seed)
            assert _track_summary(tracks) == _track_summary(_reference_track_event(trace, params))


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_velocities_replay_the_live_filter(kind):
    for noise in (0.0, 2.0):
        trace = generate_event(build_spec(kind, noise_sigma=noise))
        objects = [[d for d in frame if d.object_class is not ObjectClass.WALL] for frame in trace.frames]
        track = Track(0, 0, objects[0][0], TrackerParams())
        live = [track.filter.velocity]
        for dets in objects[1:]:
            predicted = track.filter.predict()
            if dets:
                track.observe(dets[0], predicted, dets[0].center)
            else:
                track.coast(predicted)
            live.append(track.filter.velocity)
        assert track.velocities == live, (kind, noise)
        for t in track_event(trace):
            assert t.velocities[-1] == t.filter.velocity


def test_non_finite_positions_get_no_candidates():
    # a trace built in code skips validate_trace: one center overflows to
    # inf and one is NaN; neither may raise, match or be matched
    overflow = Detection.build(ObjectClass.SPHERE, 0.6, (1.7e308, 100.0, 1e308, 20.0), (1.0, 0.1))
    nan_box = Detection.build(ObjectClass.SPHERE, 0.6, (math.nan, 100.0, 20.0, 20.0), (1.0, 0.1))
    trace = EventTrace("non-finite", ((overflow, nan_box),) * 3, None)
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
    trace = EventTrace("window", ((_unit_box((5.5, 20.0)),), (far, near)), None)
    tracks = track_event(trace, params)
    start = trace.frames[0][0]
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
    clean = EventTrace("finite", tuple(finite_frames), None)
    mixed = EventTrace(
        "mixed",
        tuple(
            (dets[0], nan_x, *dets[1:3], pos_inf, neg_inf, dets[3])
            for dets in finite_frames
        ),
        None,
    )

    def finite_tracks(tracks):
        # the -inf box is born before the finite ones, so track ids differ
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


def test_a_nan_box_is_born_last_wherever_it_is_listed():
    # trace built in code: a NaN compares with nothing, so unless the content
    # key sets a NaN box apart its list position decides the finite births
    finite = [
        Detection.build(ObjectClass.SPHERE, 0.6, (x, y, 10.0, 10.0), (1.0, 0.1))
        for x, y in ((10.0, 10.0), (200.0, 10.0), (400.0, 10.0), (10.0, 200.0))
    ]
    nan_box = Detection.build(ObjectClass.SPHERE, 0.6, (math.nan, 10.0, 10.0, 10.0), (1.0, 0.1))
    in_content_order = [finite[0], finite[3], finite[1], finite[2]]
    births = [t.detections[0] for t in track_event(EventTrace("finite", (tuple(finite),), None))]
    assert births == in_content_order
    for position in range(len(finite) + 1):
        frame = tuple(finite[:position]) + (nan_box,) + tuple(finite[position:])
        births = [t.detections[0] for t in track_event(EventTrace("nan", (frame,), None))]
        assert births == in_content_order + [nan_box], position


def test_sweep_prunes_the_distance_tests(monkeypatch):
    # a 5 x 4 grid laid out like the crowded benchmark scene: objects 128 x 90
    # px apart, moving in step; a window of twice the 50 px gate holds one
    # column, so a track makes 4 gate tests and one filter update per frame
    # where all pairs would make 20 tests
    frames = tuple(
        tuple(
            _unit_box((64.0 + 128.0 * c + 1.5 * t, 45.0 + 90.0 * r + 0.3 * t))
            for r in range(4)
            for c in range(5)
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

    object_classes = st.sampled_from([ObjectClass.SPHERE, ObjectClass.CONE, ObjectClass.CUBE])
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
        # two frame shapes: up to ten detections of any class, or at most
        # one object and one wall in either order, which gives long runs of
        # pools with one track facing one detection, broken by births, gaps
        # and class changes
        one_per_pool = draw(st.booleans())
        frames = []
        for t in range(draw(st.integers(1, 12 if one_per_pool else 7))):
            if one_per_pool:
                frame_classes = [
                    cls
                    for cls in (draw(object_classes), ObjectClass.WALL)
                    if draw(st.booleans())
                ]
                if draw(st.booleans()):
                    frame_classes.reverse()  # the wall listed first
            else:
                frame_classes = [draw(classes) for _ in range(draw(st.integers(0, 10)))]
            dets = []
            for cls in frame_classes:
                ax, ay = draw(st.sampled_from(anchors))
                cx, cy = near(ax + draw(offset)), near(ay + draw(offset))
                dets.append(_unit_box((cx, cy), cls))
            frames.append(tuple(dets))
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
            box = _unit_box((x, 100.0), cls)
            track.observe(box, track.filter.predict(), box.center)
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
