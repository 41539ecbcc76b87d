import json
import math
import os
import random

import pytest

from curiophys import (
    ClassStats,
    ExceptionSignature,
    KnowledgeBase,
    ObjectClass,
    confidence,
    infer,
    load_kb,
    raw_distances,
    save_kb,
)
from curiophys.knowledge import (
    AmbiguousScoreError,
    DegenerateStatsError,
    KnowledgeLoadError,
    ZNumber,
    load_kb_file,
    relative_distances,
    save_kb_file,
    z_number,
)

S, C, K = ObjectClass.SPHERE, ObjectClass.CONE, ObjectClass.CUBE


def _stats(**means):
    return [ClassStats(ObjectClass.from_name(name), mean, 1) for name, mean in means.items()]


def test_running_mean_matches_brute_force():
    rng = random.Random(31)
    values = []
    stats = ClassStats(S)
    for _ in range(100):
        v = rng.uniform(0, 20)
        values.append(v)
        stats.record(v)
        assert stats.a_mean == pytest.approx(sum(values) / len(values), abs=1e-12)
    assert stats.count == 100


def test_running_mean_is_order_independent():
    rng = random.Random(32)
    values = [rng.uniform(0, 5) for _ in range(50)]
    a, b = ClassStats(S), ClassStats(S)
    for v in values:
        a.record(v)
    for v in reversed(values):
        b.record(v)
    assert a.a_mean == pytest.approx(b.a_mean, abs=1e-12)


def _stats_of(kb, cls):
    (stats,) = [st for st in kb.stats() if st.object_class is cls]
    return stats


def _promoted(kb, signature):
    record = kb.exception_for(signature)
    return record is not None and record.promoted


def test_update_stats_basics():
    kb = KnowledgeBase()
    kb.update_stats(S, 0.5)
    assert _stats_of(kb, S).a_mean == 0.5 and _stats_of(kb, S).count == 1
    kb.update_stats(S, 0.4)
    kb.update_stats(S, 0.6)
    assert _stats_of(kb, S).a_mean == pytest.approx(0.5)
    with pytest.raises(ValueError, match="unknown"):
        kb.update_stats(ObjectClass.UNKNOWN, 1.0)
    with pytest.raises(ValueError, match="wall"):
        kb.update_stats(ObjectClass.WALL, 1.0)
    with pytest.raises(ValueError):
        kb.update_stats(S, -0.1)


def test_confidence_normalizes_relative_distances():
    # one unknown score compared against two class means
    b = confidence(0.494, _stats(sphere=1.57, cube=17.88))
    rel_s = abs(1.57 - 0.494) / 1.57
    rel_k = abs(17.88 - 0.494) / 17.88
    assert b[S] == pytest.approx(rel_s / (rel_s + rel_k))
    assert b[K] == pytest.approx(rel_k / (rel_s + rel_k))
    assert sum(b.values()) == pytest.approx(1.0, abs=1e-12)


def test_confidence_accepts_per_class_scores():
    # unknown scored separately under each class hypothesis
    b = confidence({S: 0.494, K: 2.78}, _stats(sphere=1.57, cube=17.88))
    assert b[S] == pytest.approx(0.448, abs=0.005)
    assert b[K] == pytest.approx(0.552, abs=0.005)


def test_confidence_zero_numerator_wins_outright():
    b = confidence(1.57, _stats(sphere=1.57, cube=17.88))
    assert b[S] == 0.0
    assert b[K] == 1.0


def test_confidence_symmetric_distances_split_evenly():
    # means 1 and 4 are both at relative distance 0.6 from 1.6
    b = confidence(1.6, _stats(sphere=1.0, cube=4.0))
    assert b[S] == pytest.approx(0.5) and b[K] == pytest.approx(0.5)


def test_confidence_error_cases():
    with pytest.raises(DegenerateStatsError, match="no class statistics"):
        confidence(1.0, [])
    with pytest.raises(DegenerateStatsError, match="mean"):
        confidence(1.0, [ClassStats(S, 0.0, 1)])
    with pytest.raises(DegenerateStatsError, match="no recorded scores"):
        confidence(1.0, [ClassStats(S, 1.0, 0)])
    with pytest.raises(AmbiguousScoreError):
        confidence(2.0, _stats(sphere=2.0, cube=2.0))
    with pytest.raises(ValueError, match="a_u"):
        confidence(-1.0, _stats(sphere=1.0))
    with pytest.raises(ValueError, match="no score for class"):
        confidence({S: 1.0}, _stats(sphere=1.0, cube=2.0))


def test_infer_argmin_and_tie_breaks():
    assert infer(0.494, _stats(sphere=1.57, cube=17.88)) is S
    assert infer(17.88, _stats(sphere=1.57, cube=17.88)) is K
    # equal relative distances (both exactly 0.5): canonical order wins
    assert infer(1.5, _stats(sphere=1.0, cube=3.0)) is S
    assert infer(1.5, _stats(cone=1.0, cube=3.0)) is C
    # a_u equal to every mean: ambiguous, resolved by order, not an error
    assert infer(2.0, _stats(cone=2.0, cube=2.0)) is C


def test_relative_and_raw_distances():
    rel = relative_distances({S: 0.494, K: 2.78}, _stats(sphere=1.57, cube=17.88))
    assert rel[S] == pytest.approx((1.57 - 0.494) / 1.57)
    assert rel[K] == pytest.approx((17.88 - 2.78) / 17.88)
    raw = raw_distances({S: 0.494, K: 2.78}, _stats(sphere=1.57, cube=17.88))
    assert raw[S] == pytest.approx(1.076)
    assert raw[K] == pytest.approx(15.10)


def test_a_score_of_zero_is_accepted():
    stats = ClassStats(S)
    stats.record(0.0)
    assert (stats.a_mean, stats.count) == (0.0, 1)
    assert raw_distances(0.0, _stats(sphere=1.5, cube=4.0)) == {S: 1.5, K: 4.0}
    assert raw_distances({S: 0.0, K: 1.0}, _stats(sphere=1.5, cube=4.0)) == {S: 1.5, K: 3.0}


def test_z_number_invariants():
    z = z_number(0.494, _stats(sphere=1.57, cube=17.88))
    assert z.x is S and z.a == 0.494
    with pytest.raises(ValueError, match="sum"):
        ZNumber(S, 1.0, {S: 0.4, K: 0.4})
    with pytest.raises(ValueError, match="negative"):
        ZNumber(S, 1.0, {S: -0.2, K: 1.2})


def test_z_number_rejects_a_nan_confidence():
    # NaN compares false both as negative and as a sum off 1
    with pytest.raises(ValueError, match="NaN"):
        ZNumber(S, 1.0, {S: math.nan, K: 1.0})


def test_relative_distances_that_overflow_are_degenerate_stats():
    # |1e-320 - 0.838| / 1e-320 exceeds the float range; inf / inf would be NaN
    stats = _stats(sphere=1e-320, cube=5.0)
    for infer_from in (confidence, z_number, infer):
        with pytest.raises(DegenerateStatsError, match="overflow"):
            infer_from(0.838, stats)


def test_exception_promotion_at_threshold():
    kb = KnowledgeBase(promotion_threshold=3)
    sig = ExceptionSignature.build(["vanish"], False, "impossible", "possible")
    assert not _promoted(kb, sig)
    kb.record_exception(sig)
    kb.record_exception(sig)
    assert not _promoted(kb, sig)
    record = kb.record_exception(sig)
    assert record.occurrences == 3 and record.promoted
    assert _promoted(kb, sig)


def test_signature_equality_is_exact():
    kb = KnowledgeBase(promotion_threshold=3)
    with_wall = ExceptionSignature.build(["vanish"], True, "impossible", "possible")
    without = ExceptionSignature.build(["vanish"], False, "impossible", "possible")
    kb.record_exception(with_wall)
    kb.record_exception(without)
    kb.record_exception(with_wall)
    assert len(kb.exceptions()) == 2
    assert not _promoted(kb, with_wall) and not _promoted(kb, without)


def test_signature_kinds_are_sorted():
    sig = ExceptionSignature.build(["vanish", "appear"], False, "a", "b")
    assert sig.violation_kinds == ("appear", "vanish")
    with pytest.raises(ValueError, match="sorted"):
        ExceptionSignature(("vanish", "appear"), False, "a", "b")


def test_threshold_change_is_sticky():
    kb = KnowledgeBase(promotion_threshold=5)
    sig = ExceptionSignature.build(["jump"], False, "impossible", "possible")
    kb.record_exception(sig)
    kb.record_exception(sig)
    assert not _promoted(kb, sig)
    kb.set_promotion_threshold(2)  # lowering promotes existing records
    assert _promoted(kb, sig)
    kb.set_promotion_threshold(10)  # raising never demotes
    assert _promoted(kb, sig)
    with pytest.raises(ValueError):
        kb.set_promotion_threshold(0)


def test_empty_kb_round_trip():
    kb = KnowledgeBase()
    loaded = load_kb(save_kb(kb))
    assert loaded.stats() == [] and loaded.exceptions() == []
    assert loaded.promotion_threshold == kb.promotion_threshold


def _populated_kb():
    kb = KnowledgeBase(promotion_threshold=2)
    kb.update_stats(S, 0.494)
    kb.update_stats(S, 1.57)
    kb.update_stats(C, 3.3333333333333335)
    kb.update_stats(K, 17.88)
    kb.record_exception(ExceptionSignature.build(["vanish"], False, "impossible", "possible"))
    sig = ExceptionSignature.build(["appear", "vanish"], True, "possible", "impossible")
    kb.record_exception(sig)
    kb.record_exception(sig)
    return kb


def test_populated_kb_round_trip_is_lossless():
    kb = _populated_kb()
    loaded = load_kb(save_kb(kb))
    assert loaded.promotion_threshold == kb.promotion_threshold
    assert loaded.stats() == kb.stats()
    assert loaded.exceptions() == kb.exceptions()
    # and means survive bit-exact
    assert _stats_of(loaded, C).a_mean == _stats_of(kb, C).a_mean


def test_load_rejects_corruption():
    payload = save_kb(_populated_kb())
    with pytest.raises(KnowledgeLoadError):
        load_kb(payload[: len(payload) // 2])
    with pytest.raises(KnowledgeLoadError, match="version"):
        doc = json.loads(payload)
        doc["version"] = 99
        load_kb(json.dumps(doc).encode())
    with pytest.raises(KnowledgeLoadError, match="class_stats"):
        doc = json.loads(payload)
        doc["class_stats"][0]["count"] = -3
        load_kb(json.dumps(doc).encode())
    with pytest.raises(KnowledgeLoadError):
        doc = json.loads(payload)
        doc["class_stats"][0]["class"] = "wall"
        load_kb(json.dumps(doc).encode())
    with pytest.raises(KnowledgeLoadError, match="promotion_threshold"):
        doc = json.loads(payload)
        doc["promotion_threshold"] = True
        load_kb(json.dumps(doc).encode())
    with pytest.raises(KnowledgeLoadError):
        load_kb(b"\xff\xfe not utf8 json")


def test_load_rejects_a_document_that_is_not_an_object():
    with pytest.raises(KnowledgeLoadError) as excinfo:
        load_kb(b"[]")
    assert str(excinfo.value) == "knowledge base unreadable: top-level document must be an object"


def test_load_rejects_zero_occurrences():
    doc = json.loads(save_kb(_populated_kb()))
    doc["exceptions"][1]["occurrences"] = 0
    with pytest.raises(KnowledgeLoadError) as excinfo:
        load_kb(json.dumps(doc).encode())
    assert str(excinfo.value) == (
        "knowledge base unreadable: exceptions[1]: occurrences must be >= 1"
    )


def test_load_promotes_a_record_that_reached_the_threshold():
    # a record at or past the threshold is promoted, as set_promotion_threshold
    # would promote it; one below it stays pending
    doc = json.loads(save_kb(_populated_kb()))
    assert doc["promotion_threshold"] == 2
    doc["exceptions"][0].update(occurrences=2, promoted=False)
    doc["exceptions"][1].update(occurrences=1, promoted=False)
    loaded = load_kb(json.dumps(doc).encode())
    assert [(r.occurrences, r.promoted) for r in loaded.exceptions()] == [(2, True), (1, False)]


@pytest.mark.parametrize("field", ["occluder_present", "promoted"])
def test_load_rejects_string_booleans(field):
    doc = json.loads(save_kb(_populated_kb()))
    doc["exceptions"][1][field] = "false"
    with pytest.raises(KnowledgeLoadError, match=rf"exceptions\[1\]: {field} must be a boolean"):
        load_kb(json.dumps(doc).encode())


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("class_stats", "mean", float("nan"), "mean must be a finite number"),
        ("class_stats", "count", 1.9, "count must be an integer"),
        ("exceptions", "occurrences", 1.9, "occurrences must be an integer"),
        ("exceptions", "violation_kinds", ["vanish", "bogus"], "violation_kinds must be an array of"),
        ("exceptions", "verdict_agent", "maybe", "verdict_agent must be one of"),
        ("exceptions", "verdict_ground_truth", True, "verdict_ground_truth must be one of"),
        ("class_stats", "mean", 10**400, "mean must be a finite number"),
        ("class_stats", "count", 10**400, "count must be an integer a float can hold"),
        ("class_stats", "class", 5, "class must be a string"),
    ],
)
def test_load_rejects_mistyped_fields(section, field, value, message):
    doc = json.loads(save_kb(_populated_kb()))
    doc[section][1][field] = value
    with pytest.raises(KnowledgeLoadError, match=rf"{section}\[1\]: {message}"):
        load_kb(json.dumps(doc).encode())


def test_load_rejects_repeated_entries():
    # class names ignore case, and a signature's kinds are kept sorted
    doc = json.loads(save_kb(_populated_kb()))
    doc["class_stats"].append(dict(doc["class_stats"][0], **{"class": "Sphere", "count": 9}))
    with pytest.raises(KnowledgeLoadError) as excinfo:
        load_kb(json.dumps(doc).encode())
    assert str(excinfo.value) == (
        "knowledge base unreadable: class_stats[3]: class sphere appears twice"
    )

    doc = json.loads(save_kb(_populated_kb()))
    first = doc["exceptions"][0]
    assert first["violation_kinds"] == ["appear", "vanish"]
    doc["exceptions"].append(dict(first, violation_kinds=["vanish", "appear"], occurrences=7))
    with pytest.raises(KnowledgeLoadError) as excinfo:
        load_kb(json.dumps(doc).encode())
    assert str(excinfo.value) == (
        "knowledge base unreadable: exceptions[2]: repeats the signature of an earlier entry"
    )


@pytest.mark.parametrize("section", ["class_stats", "exceptions"])
@pytest.mark.parametrize("value", [5, "cube", {"class": "cube"}, None])
def test_load_rejects_a_section_that_is_not_an_array(section, value):
    doc = json.loads(save_kb(_populated_kb()))
    doc[section] = value
    with pytest.raises(KnowledgeLoadError) as excinfo:
        load_kb(json.dumps(doc).encode())
    assert str(excinfo.value) == (
        f"knowledge base unreadable: {section} must be an array, got {value!r}"
    )


def test_kb_file_round_trip_and_atomicity(tmp_path):
    path = tmp_path / "kb.json"
    kb = _populated_kb()
    save_kb_file(kb, path)
    assert load_kb_file(path).stats() == kb.stats()
    # overwrite with new content; no temp droppings left behind
    kb.update_stats(S, 9.0)
    save_kb_file(kb, path)
    assert _stats_of(load_kb_file(path), S).count == 3
    assert [p.name for p in tmp_path.iterdir()] == ["kb.json"]


def test_a_failed_kb_save_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "kb.json"
    save_kb_file(KnowledgeBase(), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        save_kb_file(_populated_kb(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["kb.json"]


def test_random_kb_round_trips():
    rng = random.Random(77)
    kinds = ["vanish", "appear", "jump", "shape-switch"]
    for _ in range(50):
        kb = KnowledgeBase(promotion_threshold=rng.randint(1, 6))
        for cls in (S, C, K):
            for _ in range(rng.randrange(0, 5)):
                kb.update_stats(cls, rng.uniform(0, 30))
        for _ in range(rng.randrange(0, 4)):
            sig = ExceptionSignature.build(
                rng.sample(kinds, rng.randint(1, 3)),
                rng.random() < 0.5,
                rng.choice(["possible", "impossible"]),
                rng.choice(["possible", "impossible"]),
            )
            for _ in range(rng.randint(1, 4)):
                kb.record_exception(sig)
        loaded = load_kb(save_kb(kb))
        assert loaded.stats() == kb.stats()
        assert loaded.exceptions() == kb.exceptions()
        assert loaded.promotion_threshold == kb.promotion_threshold


def test_normalization_property_random():
    rng = random.Random(123)
    for _ in range(300):
        stats = [
            ClassStats(cls, rng.uniform(0.05, 30.0), rng.randint(1, 40))
            for cls in (S, C, K)
        ]
        b = confidence(rng.uniform(0, 40), stats)
        assert sum(b.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for v in b.values())
