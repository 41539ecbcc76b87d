import json

import pytest

from curiophys import (
    EXPLAIN_NONE,
    EXPLAIN_OCCLUDER,
    EXPLAIN_SCENE_BOUNDS,
    CuriosityContext,
    CuriosityParams,
    DiscontinuityKind,
    EventError,
    EventVerdict,
    Flag,
    KnowledgeBase,
    ObjectClass,
    ScenarioKind,
    build_spec,
    classify_event,
    encode_verdicts,
    generate_event,
    process_stream,
)
from trace_builders import ObjectScript, build_trace, linear_script

S = ObjectClass.SPHERE


def _generated(kind, **kwargs):
    return generate_event(build_spec(kind, **kwargs))


def _classify(trace, kb=None, **params):
    return classify_event(trace, kb if kb is not None else KnowledgeBase(), CuriosityParams(**params))


# -- verdicts per scenario family -------------------------------------------


def test_plain_motion_is_possible():
    verdict = _classify(_generated(ScenarioKind.POSSIBLE_VISIBLE))
    assert verdict.flag is Flag.POSSIBLE
    assert verdict.explanations == ()
    assert verdict.reason == "no continuity breaks detected"
    assert verdict.ground_truth_match is True
    assert not verdict.occluder_present


def test_occluded_gap_is_explained_by_wall():
    verdict = _classify(_generated(ScenarioKind.POSSIBLE_OCCLUDED))
    assert verdict.flag is Flag.POSSIBLE
    assert verdict.occluder_present
    kinds = sorted((e.discontinuity.kind for e in verdict.explanations), key=lambda k: k.value)
    assert kinds == [DiscontinuityKind.APPEAR, DiscontinuityKind.VANISH]
    for e in verdict.explanations:
        assert e.explained and e.method == EXPLAIN_OCCLUDER
        assert e.context.countwall == e.context.gap_frames  # wall covers every gap frame
        assert e.context.coverage == 1.0
    assert "covered by occluder" in verdict.reason


def test_unexplained_vanish_is_impossible():
    # no wall anywhere near the gap, and the coasted path stays in view
    verdict = _classify(_generated(ScenarioKind.IMPOSSIBLE_DISAPPEAR))
    assert verdict.flag is Flag.IMPOSSIBLE
    (e,) = verdict.explanations
    assert e.discontinuity.kind is DiscontinuityKind.VANISH
    assert not e.explained and e.method == EXPLAIN_NONE
    assert e.context.countwall == 0 and e.context.coverage == 0.0
    assert verdict.reason.startswith("unexplained:")
    assert verdict.ground_truth_match is True


def test_teleport_is_impossible():
    verdict = _classify(_generated(ScenarioKind.IMPOSSIBLE_TELEPORT))
    assert verdict.flag is Flag.IMPOSSIBLE
    assert [e.discontinuity.kind for e in verdict.explanations] == [DiscontinuityKind.JUMP]
    assert verdict.ground_truth_match is True


def test_shape_change_is_impossible():
    verdict = _classify(_generated(ScenarioKind.IMPOSSIBLE_SHAPE_CHANGE))
    assert verdict.flag is Flag.IMPOSSIBLE
    assert [e.discontinuity.kind for e in verdict.explanations] == [
        DiscontinuityKind.SHAPE_SWITCH
    ]
    assert verdict.ground_truth_match is True


def test_jump_never_explained_even_under_full_coverage():
    # wall spans the whole scene, but teleportation has no excuse
    centers = {
        t: (40.0 + 3.0 * t + (30.0 if t >= 10 else 0.0), 100.0) for t in range(20)
    }
    trace = build_trace(
        "jump-walled", 20, [ObjectScript(centers)], wall_bbox=(0.0, 0.0, 640.0, 360.0)
    )
    verdict = _classify(trace)
    assert verdict.flag is Flag.IMPOSSIBLE
    (e,) = verdict.explanations
    assert e.discontinuity.kind is DiscontinuityKind.JUMP
    assert not e.explained and e.method == EXPLAIN_NONE


# -- scene entry / exit ------------------------------------------------------


def test_gap_at_trace_start_explained_as_scene_entry():
    script = linear_script((-45.0, 100.0), (5.0, 0.0), range(10, 20))
    verdict = _classify(build_trace("entry", 20, [script]))
    assert verdict.flag is Flag.POSSIBLE
    (e,) = verdict.explanations
    assert e.discontinuity.kind is DiscontinuityKind.APPEAR
    assert (e.discontinuity.start_frame, e.discontinuity.end_frame) == (0, 9)
    assert e.explained and e.method == EXPLAIN_SCENE_BOUNDS
    assert "scene boundary" in verdict.reason


def test_gap_at_trace_end_explained_as_scene_exit():
    script = linear_script((590.0, 100.0), (5.0, 0.0), range(0, 10))
    verdict = _classify(build_trace("exit", 20, [script]))
    assert verdict.flag is Flag.POSSIBLE
    (e,) = verdict.explanations
    assert e.discontinuity.kind is DiscontinuityKind.VANISH
    assert (e.discontinuity.start_frame, e.discontinuity.end_frame) == (10, 19)
    assert e.explained and e.method == EXPLAIN_SCENE_BOUNDS


def test_interior_gap_never_counts_as_scene_exit():
    # same geometry as the entry case, but detections resume well inside
    # the scene after an interior gap: predicted centers stay in bounds
    frames = list(range(0, 5)) + list(range(15, 20))
    script = linear_script((100.0, 100.0), (3.0, 0.0), frames)
    verdict = _classify(build_trace("interior", 20, [script]))
    assert verdict.flag is Flag.IMPOSSIBLE
    assert all(e.method == EXPLAIN_NONE for e in verdict.explanations)


# -- occlusion coverage threshold -------------------------------------------


def _gap_trace(event_id, wall_w):
    frames = list(range(0, 5)) + list(range(15, 20))
    script = linear_script((40.0, 100.0), (3.0, 0.0), frames)
    return build_trace(event_id, 20, [script], wall_bbox=(50.0, 92.0, wall_w, 16.0))


def test_coverage_exactly_at_threshold_explains():
    # coasted centers x = 55, 58, ..., 82 over the gap; wall inflated by 5
    # spans x <= 74, catching 7 of the 10 gap frames
    verdict = _classify(_gap_trace("at-threshold", 19.0))
    vanish, appear = verdict.explanations
    assert vanish.context.coverage == pytest.approx(0.7)
    assert appear.context.coverage == pytest.approx(0.7)
    assert verdict.flag is Flag.POSSIBLE
    assert all(e.method == EXPLAIN_OCCLUDER for e in verdict.explanations)


def test_coverage_just_below_threshold_does_not():
    verdict = _classify(_gap_trace("below-threshold", 16.0))
    assert verdict.explanations[0].context.coverage == pytest.approx(0.6)
    assert verdict.flag is Flag.IMPOSSIBLE


def test_coverage_grows_with_wall_width():
    widths = [4.0, 10.0, 16.0, 19.0, 25.0]
    coverages = [
        _classify(_gap_trace(f"w{w}", w)).explanations[0].context.coverage for w in widths
    ]
    assert coverages == pytest.approx([0.2, 0.4, 0.6, 0.7, 0.9])
    assert coverages == sorted(coverages)


def test_coverage_threshold_is_configurable():
    trace = _gap_trace("configurable", 16.0)
    assert _classify(trace).flag is Flag.IMPOSSIBLE
    assert _classify(trace, occlusion_coverage_min=0.5).flag is Flag.POSSIBLE


# -- ground truth, exceptions, promotion -------------------------------------


def _contradicting_trace(event_id):
    # object disappears mid-scene with no occluder, yet labeled possible
    script = linear_script((40.0, 100.0), (3.0, 0.0), range(0, 10))
    return build_trace(event_id, 20, [script], possible=True)


def test_contradiction_records_exception_and_promotes():
    kb = KnowledgeBase(promotion_threshold=3)
    for n in (1, 2, 3):
        verdict = _classify(_contradicting_trace(f"adversarial-{n}"), kb)
        assert verdict.flag is Flag.EXCEPTION
        assert verdict.ground_truth_match is False
        assert verdict.exception_occurrences == n
        assert f"occurrence {n} of 3" in verdict.reason
    assert verdict.exception_promoted is True
    assert len(kb.exceptions()) == 1
    assert kb.stats() == []  # contradictions never feed class statistics

    # fourth sighting: the promoted rule overrides the verdict
    final = _classify(_contradicting_trace("adversarial-4"), kb)
    assert final.flag is Flag.POSSIBLE
    assert "promoted rule" in final.reason
    assert final.ground_truth_match is True
    assert final.exception_promoted is True
    assert kb.exceptions()[0].occurrences == 3  # override does not re-record
    assert [st.object_class for st in kb.stats()] == [S]  # now trusted, so scored


def test_exception_signature_distinguishes_occluders():
    kb = KnowledgeBase(promotion_threshold=3)
    bare = _contradicting_trace("bare")
    script = linear_script((40.0, 100.0), (3.0, 0.0), range(0, 10))
    walled = build_trace("walled", 20, [script], wall_bbox=(600.0, 300.0, 30.0, 30.0), possible=True)
    _classify(bare, kb)
    _classify(walled, kb)
    assert len(kb.exceptions()) == 2
    assert {r.signature.occluder_present for r in kb.exceptions()} == {False, True}


def test_matching_verdict_updates_class_statistics():
    kb = KnowledgeBase()
    verdict = _classify(_generated(ScenarioKind.POSSIBLE_VISIBLE), kb)
    assert verdict.ground_truth_match is True
    (st,) = kb.stats()
    assert st.object_class is S and st.count == 1
    focus = next(ts for ts in verdict.track_scores if ts.track_id == verdict.focus_track_id)
    assert st.a_mean == pytest.approx(focus.scores.a)


def test_trace_without_ground_truth_leaves_kb_alone():
    kb = KnowledgeBase()
    script = linear_script((40.0, 100.0), (3.0, 0.0), range(0, 20))
    verdict = _classify(build_trace("unlabeled", 20, [script]), kb)
    assert verdict.flag is Flag.POSSIBLE
    assert verdict.ground_truth_match is None
    assert kb.stats() == [] and kb.exceptions() == []


def test_z_number_appears_once_statistics_exist():
    kb = KnowledgeBase()
    first = _classify(_generated(ScenarioKind.POSSIBLE_VISIBLE), kb)
    assert first.z is None and first.raw_distances is None
    second = _classify(
        _generated(ScenarioKind.POSSIBLE_VISIBLE, object_class=ObjectClass.CONE, confidence=0.7),
        kb,
    )
    assert second.z is not None
    assert second.z.x is S  # only sphere has statistics yet
    assert sum(second.z.b.values()) == pytest.approx(1.0, abs=1e-9)
    assert set(second.raw_distances) == {S}


# -- stream processing --------------------------------------------------------


def test_wall_only_trace_is_an_event_error():
    trace = build_trace("walls-only", 10, [], wall_bbox=(10.0, 10.0, 40.0, 40.0))
    with pytest.raises(EventError, match="no non-wall objects"):
        _classify(trace)


def test_stream_continues_past_errors():
    kb = KnowledgeBase()
    good = _generated(ScenarioKind.POSSIBLE_VISIBLE)
    bad = build_trace("walls-only", 10, [], wall_bbox=(10.0, 10.0, 40.0, 40.0))
    results = process_stream([good, bad, good], kb)
    assert [type(r) for r in results] == [EventVerdict, EventError, EventVerdict]
    assert results[1].event_id == "walls-only"


def test_empty_stream():
    assert process_stream([], KnowledgeBase()) == []


def test_classification_is_deterministic():
    trace = _generated(ScenarioKind.POSSIBLE_OCCLUDED, noise_sigma=0.5, seed=11)
    first = encode_verdicts(process_stream([trace], KnowledgeBase()))
    second = encode_verdicts(process_stream([trace], KnowledgeBase()))
    assert first == second


def test_verdict_report_lines():
    kb = KnowledgeBase()
    good = _generated(ScenarioKind.IMPOSSIBLE_TELEPORT)
    bad = build_trace("walls-only", 10, [], wall_bbox=(10.0, 10.0, 40.0, 40.0))
    lines = encode_verdicts(process_stream([good, bad], kb)).splitlines()
    assert len(lines) == 2
    verdict_doc = json.loads(lines[0])
    assert verdict_doc["flag"] == "impossible"
    assert verdict_doc["event_id"] == good.event_id
    assert verdict_doc["ground_truth_match"] is True
    assert verdict_doc["z_number"] is None and verdict_doc["exception"] is None
    assert verdict_doc["track_scores"][0]["class"] == "sphere"
    assert {e["kind"] for e in verdict_doc["explanations"]} == {"jump"}
    error_doc = json.loads(lines[1])
    assert error_doc == {
        "event_id": "walls-only",
        "error": "no non-wall objects detected; nothing to reason about",
    }


def test_exception_verdict_report_carries_signature():
    kb = KnowledgeBase()
    doc = json.loads(
        encode_verdicts(process_stream([_contradicting_trace("adv")], kb)).splitlines()[0]
    )
    assert doc["flag"] == "exception"
    assert doc["ground_truth_match"] is False
    assert doc["exception"] == {
        "violation_kinds": ["vanish"],
        "occluder_present": False,
        "verdict_agent": "impossible",
        "verdict_ground_truth": "possible",
        "occurrences": 1,
        "promoted": False,
    }


# -- invariants ---------------------------------------------------------------


def test_context_invariants():
    CuriosityContext(7, 10, 0.7)
    with pytest.raises(ValueError, match="countwall"):
        CuriosityContext(11, 10, 1.1)
    with pytest.raises(ValueError, match="coverage"):
        CuriosityContext(5, 10, 0.7)


def test_params_validation():
    with pytest.raises(ValueError, match="occlusion_coverage_min"):
        CuriosityParams(occlusion_coverage_min=0.0)


C, K, W = ObjectClass.CONE, ObjectClass.CUBE, ObjectClass.WALL


@pytest.mark.parametrize(
    "impact_values, message",
    [
        pytest.param({S: 10.0, C: 100.0, K: 1000.0, W: 5.0}, "'wall' cannot carry", id="wall"),
        pytest.param({S: 10.0}, "missing a value for cone, cube", id="missing"),
        pytest.param({S: 0.0, C: 100.0, K: 1000.0}, "sphere must be a finite number > 0", id="zero"),
        pytest.param({S: 10.0, C: -1.0, K: 1000.0}, "cone must be a finite number > 0", id="negative"),
        pytest.param({S: 10.0, C: 100.0, K: float("nan")}, "cube must be a finite", id="nan"),
        pytest.param({S: float("inf"), C: 100.0, K: 1000.0}, "sphere must be a finite", id="inf"),
        pytest.param({S: True, C: 100.0, K: 1000.0}, "sphere must be a finite", id="bool"),
        pytest.param({"sphere": 10.0, C: 100.0, K: 1000.0}, "not an ObjectClass", id="name"),
    ],
)
def test_params_reject_bad_impact_values(impact_values, message):
    with pytest.raises(ValueError, match=message):
        CuriosityParams(impact_values=impact_values)


def test_params_keep_their_own_copy_of_the_impact_values():
    values = {S: 10.0, C: 100.0, K: 1000.0}
    params = CuriosityParams(impact_values=values)
    del values[C]  # the params' own copy still scores a cone
    verdict = classify_event(
        _generated(ScenarioKind.POSSIBLE_VISIBLE, object_class=C), KnowledgeBase(), params
    )
    assert verdict.track_scores[0].object_class is C
    assert params.impact_values == {S: 10.0, C: 100.0, K: 1000.0}


def test_exception_flag_requires_contradiction():
    with pytest.raises(ValueError, match="contradicted"):
        EventVerdict(
            event_id="e",
            flag=Flag.EXCEPTION,
            reason="r",
            explanations=(),
            track_scores=(),
            focus_track_id=0,
            occluder_present=False,
            z=None,
            raw_distances=None,
            ground_truth_match=True,
        )
