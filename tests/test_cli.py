import json
import os
import re
import subprocess
import sys
from xml.etree import ElementTree

import pytest

import curiophys
from curiophys import ObjectClass
from curiophys.cli import main
from curiophys.ingest import write_trace_file
from curiophys.knowledge import load_kb_file
from curiophys.trace_model import Detection, EventTrace
from trace_builders import build_trace, linear_script

VISIBLE = "possible-visible-sphere-f90-s0.jsonl"


def _generate(tmp_path, *extra):
    assert main(["--out", str(tmp_path), "generate", "--kind", "possible-visible", *extra]) == 0
    return tmp_path / VISIBLE


def test_generate_writes_trace(tmp_path, capsys):
    path = _generate(tmp_path)
    assert path.is_file()
    out = capsys.readouterr().out
    assert out == f"possible-visible-sphere-f90-s0 -> {path}\n"


def test_generate_is_reproducible(tmp_path):
    first = _generate(tmp_path / "a").read_bytes()
    second = _generate(tmp_path / "b").read_bytes()
    assert first == second


def test_generate_rejects_bad_arguments(tmp_path, capsys):
    args = ["--out", str(tmp_path), "generate", "--kind", "possible-visible"]
    assert main(args + ["--frames", "5"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(args + ["--velocity", "3;0"]) == 1
    assert "--velocity" in capsys.readouterr().err
    assert main(args + ["--velocity", "fast,0"]) == 1
    assert "two numbers" in capsys.readouterr().err
    assert main(args + ["--velocity", "nan,0"]) == 1
    assert "velocity must be two finite numbers" in capsys.readouterr().err
    assert main(args + ["--velocity", "1,2,3"]) == 1
    assert capsys.readouterr().err == "error: --velocity expects 'vx,vy', got '1,2,3'\n"


def test_classify_writes_verdicts_and_kb(tmp_path, capsys):
    traces = [
        str(_generate(tmp_path)),
        str(tmp_path / "impossible-teleport-sphere-f90-s0.jsonl"),
        str(tmp_path / "impossible-disappear-sphere-f90-s0.jsonl"),
    ]
    assert main(["--out", str(tmp_path), "generate", "--kind", "impossible-teleport"]) == 0
    assert main(["--out", str(tmp_path), "generate", "--kind", "impossible-disappear"]) == 0
    capsys.readouterr()

    out_dir = tmp_path / "results"
    assert main(["--out", str(out_dir), "classify", *traces]) == 0
    out = capsys.readouterr().out
    assert "possible-visible-sphere-f90-s0: possible" in out
    assert "impossible-teleport-sphere-f90-s0: impossible" in out
    assert "impossible-disappear-sphere-f90-s0: impossible" in out

    lines = (out_dir / "verdicts.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert [json.loads(l)["flag"] for l in lines] == ["possible", "impossible", "impossible"]

    kb = load_kb_file(out_dir / "kb.json")
    (st,) = kb.stats()
    assert st.count == 3  # every verdict matched its label


def test_classify_accumulates_kb_across_runs(tmp_path):
    trace = str(_generate(tmp_path))
    out = str(tmp_path / "results")
    assert main(["--out", out, "classify", trace]) == 0
    assert main(["--out", out, "classify", trace]) == 0
    kb = load_kb_file(tmp_path / "results" / "kb.json")
    assert kb.stats()[0].count == 2


def test_classify_is_reproducible(tmp_path):
    trace = str(_generate(tmp_path))
    for sub in ("a", "b"):
        assert main(["--out", str(tmp_path / sub), "classify", trace]) == 0
    for name in ("verdicts.jsonl", "kb.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_classify_writes_the_kb_and_the_report_with_the_same_mode(tmp_path):
    trace = str(_generate(tmp_path))
    out_dir = tmp_path / "res"
    umask = os.umask(0o027)
    try:
        assert main(["--out", str(out_dir), "classify", trace]) == 0
    finally:
        os.umask(umask)
    modes = [(out_dir / name).stat().st_mode & 0o777 for name in ("kb.json", "verdicts.jsonl")]
    assert modes == [0o640, 0o640]


def test_classify_respects_kb_flag(tmp_path):
    trace = str(_generate(tmp_path))
    kb_path = tmp_path / "custom" / "kb-main.json"
    kb_path.parent.mkdir()
    out = str(tmp_path / "results")
    assert main(["--out", out, "--kb", str(kb_path), "classify", trace]) == 0
    assert kb_path.is_file()
    assert not (tmp_path / "results" / "kb.json").exists()


def test_classify_with_no_traces_is_a_noop(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["--out", str(out_dir), "classify"]) == 0
    assert "nothing to do" in capsys.readouterr().out
    assert not (out_dir / "verdicts.jsonl").exists()


def test_classify_corrupt_kb_fails_without_touching_it(tmp_path, capsys):
    trace = str(_generate(tmp_path))
    kb_path = tmp_path / "kb.json"
    kb_path.write_bytes(b"{broken")
    assert main(["--out", str(tmp_path), "classify", trace]) == 1
    assert "error:" in capsys.readouterr().err
    assert kb_path.read_bytes() == b"{broken"
    assert not (tmp_path / "verdicts.jsonl").exists()


@pytest.mark.parametrize("old_report", [None, b"old\n"])
def test_classify_writes_no_report_when_the_kb_cannot_be_saved(tmp_path, capsys, old_report):
    trace = str(_generate(tmp_path / "in"))
    out_dir = tmp_path / "res"
    out_dir.mkdir()
    if old_report is not None:
        (out_dir / "verdicts.jsonl").write_bytes(old_report)
    kb_path = tmp_path / "missing" / "kb.json"
    capsys.readouterr()
    assert main(["--out", str(out_dir), "--kb", str(kb_path), "classify", trace]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write knowledge base {kb_path}: No such file or directory\n"
    )
    # no report and no staged temp file; an old report is left as it was
    assert [p.name for p in out_dir.iterdir()] == ([] if old_report is None else ["verdicts.jsonl"])
    if old_report is not None:
        assert (out_dir / "verdicts.jsonl").read_bytes() == old_report


def test_classify_rejects_a_null_event_id(tmp_path, capsys):
    path = tmp_path / "null-id.jsonl"
    path.write_text('{"event_id": null, "frame_count": 1}\n{"frame_index": 0}\n')
    assert main(["--out", str(tmp_path), "classify", str(path)]) == 1
    assert "line 1: event_id must be a string, got None" in capsys.readouterr().err
    assert not (tmp_path / "verdicts.jsonl").exists()


def test_classify_missing_trace_fails(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "classify", str(tmp_path / "nope.jsonl")]) == 1
    assert "nope.jsonl" in capsys.readouterr().err


def test_classify_partial_failure_exit_code(tmp_path, capsys):
    good = str(_generate(tmp_path))
    bad = tmp_path / "walls-only.jsonl"
    write_trace_file(
        build_trace("walls-only", 10, [], wall_bbox=(10.0, 10.0, 40.0, 40.0)), bad
    )
    out_dir = tmp_path / "results"
    assert main(["--out", str(out_dir), "classify", good, str(bad)]) == 2
    out = capsys.readouterr().out
    assert "walls-only: error" in out
    lines = (out_dir / "verdicts.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert "error" in json.loads(lines[1])


def test_classify_rejects_an_overflowing_bbox_center(tmp_path, capsys):
    det = Detection(ObjectClass.SPHERE, 0.6, (1.7e308, 100.0, 1e308, 20.0), (1.0, 0.01))
    trace = EventTrace("overflow", ((det,),), None)
    path = tmp_path / "overflow.jsonl"
    write_trace_file(trace, path)
    assert main(["--out", str(tmp_path / "results"), "classify", str(path)]) == 1
    assert "line 2: detection 0: bbox center x inf is not finite" in capsys.readouterr().err
    assert not (tmp_path / "results" / "verdicts.jsonl").exists()


def test_classify_rejects_a_number_too_large_for_a_float(tmp_path, capsys):
    det = Detection(ObjectClass.SPHERE, 0.6, (123.25, 100.0, 20.0, 20.0), (1.0, 0.01))
    path = tmp_path / "huge.jsonl"
    write_trace_file(EventTrace("huge", ((det,),), None), path)
    # a JSON integer literal of 401 digits decodes to an int no float can hold
    path.write_text(path.read_text().replace("123.25", "1" + "0" * 400))
    assert main(["--out", str(tmp_path / "results"), "classify", str(path)]) == 1
    assert "line 2: bbox[0] must be a finite number, got 1000" in capsys.readouterr().err


def test_classify_rejects_an_empty_shape_descriptor(tmp_path, capsys):
    det = Detection(ObjectClass.CUBE, 0.6, (100.0, 100.0, 20.0, 20.0), ())
    trace = EventTrace("empty-descriptor", ((det,),) * 3, None)
    path = tmp_path / "empty-descriptor.jsonl"
    write_trace_file(trace, path)
    assert main(["--out", str(tmp_path / "results"), "classify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line 2: detection 0: shape_descriptor must not be empty" in err
    assert not (tmp_path / "results" / "verdicts.jsonl").exists()


def test_classify_scores_descriptors_whose_squares_overflow(tmp_path, capsys):
    # finite entries whose difference squared exceeds the float range
    frames = tuple(
        (Detection(ObjectClass.CUBE, 0.6, (100.0 + 3 * t, 100.0, 20.0, 20.0), d),)
        for t, d in enumerate([(1e200, 1.0), (-1e200, 1.0)])
    )
    path = tmp_path / "huge-descriptor.jsonl"
    write_trace_file(EventTrace("huge-descriptor", frames, None), path)
    assert main(["--out", str(tmp_path / "results"), "classify", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    verdict = json.loads((tmp_path / "results" / "verdicts.jsonl").read_text())
    assert verdict["flag"] in ("possible", "impossible")
    # distance 1.0 between the two descriptors: shape constancy 0
    assert [t["s_sc"] for t in verdict["track_scores"]] == [0.0]


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _strict_lines(path):
    return [json.loads(line, parse_constant=_reject_constant) for line in path.read_text().splitlines()]


def test_a_score_that_overflows_is_an_error_line(tmp_path, capsys):
    # 54 detections x 0.6 x 1e307 / 1000 exceeds the float range
    trace = str(_generate(tmp_path))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"impact_values": {"sphere": 1e307, "cone": 100.0, "cube": 1000.0}}))
    out_dir = tmp_path / "results"
    message = "track 0 (sphere): s_op is inf, not a finite number"
    for _ in range(2):  # the second run reloads the first run's knowledge base
        assert main(["--config", str(config), "--out", str(out_dir), "classify", trace]) == 2
        assert f"possible-visible-sphere-f90-s0: error ({message})" in capsys.readouterr().out
        assert _strict_lines(out_dir / "verdicts.jsonl") == [
            {"event_id": "possible-visible-sphere-f90-s0", "error": message}
        ]
        json.loads((out_dir / "kb.json").read_text(), parse_constant=_reject_constant)
        assert load_kb_file(out_dir / "kb.json").stats() == []


def test_relative_distances_that_overflow_leave_the_z_number_null(tmp_path, capsys):
    # |1e-320 - 0.838| / 1e-320 exceeds the float range
    trace = str(_generate(tmp_path))
    kb_path = tmp_path / "kb.json"
    stats = [{"class": "sphere", "mean": 1e-320, "count": 1}, {"class": "cube", "mean": 5.0, "count": 1}]
    kb_path.write_text(json.dumps({"version": 1, "class_stats": stats}))
    out_dir = tmp_path / "results"
    assert main(["--kb", str(kb_path), "--out", str(out_dir), "classify", trace]) == 0
    (verdict,) = _strict_lines(out_dir / "verdicts.jsonl")
    assert verdict["flag"] == "possible"
    assert verdict["z_number"] is None and verdict["raw_distances"] is None
    json.loads(kb_path.read_text(), parse_constant=_reject_constant)
    assert [st.count for st in load_kb_file(kb_path).stats()] == [2, 1]


def test_a_class_mean_of_zero_loads_and_leaves_the_z_number_null(tmp_path, capsys):
    # a mean of exactly 0 is a valid record, but no relative distance to it exists
    trace = str(_generate(tmp_path))
    kb_path = tmp_path / "kb.json"
    stats = [{"class": "sphere", "mean": 0.0, "count": 1}, {"class": "cube", "mean": 5.0, "count": 1}]
    kb_path.write_text(json.dumps({"version": 1, "class_stats": stats}))
    out_dir = tmp_path / "results"
    assert main(["--kb", str(kb_path), "--out", str(out_dir), "classify", trace]) == 0
    (verdict,) = _strict_lines(out_dir / "verdicts.jsonl")
    assert verdict["flag"] == "possible"
    assert verdict["z_number"] is None and verdict["raw_distances"] is None


def test_plot_writes_svg_and_csv(tmp_path, capsys):
    trace = str(_generate(tmp_path))
    out_dir = tmp_path / "plots"
    capsys.readouterr()
    assert main(["--out", str(out_dir), "plot", trace]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        str(out_dir / "possible-visible-sphere-f90-s0.svg"),
        str(out_dir / "possible-visible-sphere-f90-s0-track0.csv"),
    ]
    assert (out_dir / "possible-visible-sphere-f90-s0.svg").is_file()


def test_plot_rejects_verdict_reports(tmp_path, capsys):
    trace = str(_generate(tmp_path))
    assert main(["--out", str(tmp_path), "classify", trace]) == 0
    capsys.readouterr()
    report = tmp_path / "verdicts.jsonl"
    assert main(["--out", str(tmp_path), "plot", str(report)]) == 1
    err = capsys.readouterr().err
    assert "verdict report" in err and "trace file" in err


def test_plot_reports_a_parse_error_after_a_trace_header(tmp_path, capsys):
    path = tmp_path / "late.jsonl"
    path.write_text('{"event_id": "e", "frame_count": 2}\n{"frame_index": 0}\n{broken\n')
    assert main(["--out", str(tmp_path), "plot", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3: invalid JSON") and "verdict report" not in err


@pytest.mark.parametrize("absolute", [False, True])
def test_plot_keeps_its_files_inside_the_output_directory(tmp_path, capsys, absolute):
    # the output files are named after the event id, which the trace file sets
    event_id = str(tmp_path / "escaped") if absolute else "../escaped"
    trace = build_trace(event_id, 5, [linear_script((50.0, 100.0), (3.0, 0.0), range(5))])
    path = tmp_path / "in" / "trace.jsonl"
    path.parent.mkdir()
    write_trace_file(trace, path)
    assert main(["--out", str(tmp_path / "out"), "plot", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: event_id {event_id!r} cannot name a file inside the output directory\n"
    )
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]


@pytest.mark.parametrize(
    "detections",
    [
        # a span wider than the float range: the tick step used to overflow
        (
            Detection(ObjectClass.SPHERE, 0.6, (-1e308, 0.0, 10.0, 10.0), (1.0, 0.1)),
            Detection(ObjectClass.CUBE, 0.6, (1e308, 0.0, 10.0, 10.0), (1.0, 0.1)),
        ),
        # one value so large that widening it by 1 rounds back to it
        (Detection(ObjectClass.SPHERE, 0.6, (1e17, 0.0, 10.0, 10.0), (1.0, 0.1)),),
    ],
    ids=["span-beyond-float-range", "value-beyond-unit-precision"],
)
def test_plot_draws_values_at_the_edge_of_the_float_range(tmp_path, capsys, detections):
    path = tmp_path / "far.jsonl"
    write_trace_file(EventTrace("far", (detections,), None), path)
    assert main(["--out", str(tmp_path / "classified"), "classify", str(path)]) == 0
    assert main(["--out", str(tmp_path / "plots"), "plot", str(path)]) == 0
    svg = (tmp_path / "plots" / "far.svg").read_text()
    ElementTree.fromstring(svg)
    assert not re.search(r"\b(nan|inf)\b", svg, re.IGNORECASE)


@pytest.mark.parametrize("command", ["classify", "plot"])
def test_filter_settings_beyond_its_arithmetic_are_a_clean_error(tmp_path, capsys, command):
    trace = str(_generate(tmp_path / "events"))
    config = tmp_path / "config.json"
    config.write_text('{"p0": 1e20}')
    out_dir = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out_dir), command, trace]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the filter settings q=1.0, r=2.0, p0=1e+20 exceed its arithmetic: ")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_a_scene_area_that_underflows_is_a_clean_error(tmp_path, capsys):
    # the detection carries no descriptor, so one would be derived from the area
    trace = tmp_path / "e.jsonl"
    trace.write_text(
        '{"event_id": "e", "frame_count": 1}\n'
        '{"frame_index": 0, "detections": [{"class": "sphere", "confidence": 0.6, '
        '"bbox": [10.0, 10.0, 20.0, 20.0]}]}\n'
    )
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scene_width": 1e-200, "scene_height": 1e-200}))
    out_dir = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out_dir), "classify", str(trace)]) == 1
    assert capsys.readouterr().err == (
        "error: scene width * height must be > 0, got 1e-200 * 1e-200\n"
    )
    assert not out_dir.exists()


def test_plot_missing_file(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "absent.jsonl")]) == 1
    assert "absent.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "plot"])
def test_a_trace_that_is_not_utf8_is_a_clean_error(tmp_path, capsys, command):
    path = tmp_path / "utf16.jsonl"
    path.write_bytes(b'\xff\xfe{"event_id": "e", "frame_count": 1}\n')
    assert main(["--out", str(tmp_path), command, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 1: not valid UTF-8 (invalid start byte at byte 0)\n"
    )


def test_kb_show_requires_existing_file(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "kb", "show"]) == 1
    assert "no knowledge base" in capsys.readouterr().err


def test_kb_show_reports_a_section_that_is_not_an_array(tmp_path, capsys):
    (tmp_path / "kb.json").write_text('{"version": 1, "class_stats": 5}')
    assert main(["--out", str(tmp_path), "kb", "show"]) == 1
    assert capsys.readouterr().err == (
        "error: knowledge base unreadable: class_stats must be an array, got 5\n"
    )


def test_kb_show_reports_a_document_that_is_not_an_object(tmp_path, capsys):
    (tmp_path / "kb.json").write_text("[]")
    assert main(["--out", str(tmp_path), "kb", "show"]) == 1
    assert capsys.readouterr().err == (
        "error: knowledge base unreadable: top-level document must be an object\n"
    )


def test_kb_show_lists_pending_and_promoted_exceptions(tmp_path, capsys):
    exceptions = [
        {
            "violation_kinds": kinds,
            "occluder_present": occluder,
            "verdict_agent": "impossible",
            "verdict_ground_truth": "possible",
            "occurrences": occurrences,
            "promoted": promoted,
        }
        for kinds, occluder, occurrences, promoted in (
            (["vanish"], False, 1, False),
            (["appear", "vanish"], True, 3, True),
        )
    ]
    doc = {"version": 1, "promotion_threshold": 3, "exceptions": exceptions}
    (tmp_path / "kb.json").write_text(json.dumps(doc))
    assert main(["--out", str(tmp_path), "kb", "show"]) == 0
    out = capsys.readouterr().out
    assert "0 classes, 2 exceptions" in out
    # listed in signature order
    assert out.splitlines()[-2:] == [
        "  exception [appear, vanish] occluder=yes agent=impossible truth=possible "
        "occurrences=3 (promoted)",
        "  exception [vanish] occluder=no agent=impossible truth=possible occurrences=1 (pending)",
    ]


def test_kb_reset_then_show(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "kb", "reset"]) == 0
    assert main(["--out", str(tmp_path), "kb", "show"]) == 0
    out = capsys.readouterr().out
    assert f"knowledge base: {tmp_path / 'kb.json'}" in out
    assert "promotion threshold: 3" in out
    assert "0 classes, 0 exceptions" in out


def test_kb_promote_threshold_is_persisted(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "kb", "reset"]) == 0
    assert main(["--out", str(tmp_path), "kb", "promote-threshold", "5"]) == 0
    assert load_kb_file(tmp_path / "kb.json").promotion_threshold == 5
    assert main(["--out", str(tmp_path), "kb", "show"]) == 0
    assert "promotion threshold: 5" in capsys.readouterr().out


@pytest.mark.parametrize("threshold", [0, -1])
def test_kb_promote_threshold_below_one_is_a_clean_error(tmp_path, capsys, threshold):
    assert main(["--out", str(tmp_path), "kb", "reset"]) == 0
    before = (tmp_path / "kb.json").read_bytes()
    capsys.readouterr()
    assert main(["--out", str(tmp_path), "kb", "promote-threshold", str(threshold)]) == 1
    assert capsys.readouterr().err == (
        f"error: promotion_threshold must be >= 1, got {threshold}\n"
    )
    assert (tmp_path / "kb.json").read_bytes() == before


def test_kb_show_after_classify_lists_stats(tmp_path, capsys):
    trace = str(_generate(tmp_path))
    assert main(["--out", str(tmp_path), "classify", trace]) == 0
    capsys.readouterr()
    assert main(["--out", str(tmp_path), "kb", "show"]) == 0
    out = capsys.readouterr().out
    assert "1 classes, 0 exceptions" in out
    assert "sphere: mean A" in out


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 3}))
    args = ["--config", str(config), "--out", str(tmp_path), "generate", "--kind", "possible-visible"]
    assert main(args) == 0
    assert (tmp_path / "possible-visible-sphere-f90-s3.jsonl").is_file()
    assert main(args[:2] + ["--seed", "9"] + args[2:]) == 0
    assert (tmp_path / "possible-visible-sphere-f90-s9.jsonl").is_file()


def test_config_promotion_threshold_applies_to_fresh_kb(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"promotion_threshold": 7}))
    assert main(["--config", str(config), "--out", str(tmp_path), "kb", "reset"]) == 0
    assert load_kb_file(tmp_path / "kb.json").promotion_threshold == 7


def test_config_promotion_threshold_applies_to_an_existing_kb(tmp_path):
    # a pending record at 2 occurrences is promoted once the threshold is 2
    record = {
        "violation_kinds": ["vanish"],
        "occluder_present": False,
        "verdict_agent": "impossible",
        "verdict_ground_truth": "possible",
        "occurrences": 2,
        "promoted": False,
    }
    doc = {"version": 1, "promotion_threshold": 3, "exceptions": [record]}
    (tmp_path / "kb.json").write_text(json.dumps(doc))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"promotion_threshold": 2}))
    trace = str(_generate(tmp_path / "in"))
    assert main(["--config", str(config), "--out", str(tmp_path), "classify", trace]) == 0
    kb = load_kb_file(tmp_path / "kb.json")
    assert kb.promotion_threshold == 2
    assert [(r.occurrences, r.promoted) for r in kb.exceptions()] == [(2, True)]


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sigma": 2.0}))
    assert main(["--config", str(config), "--out", str(tmp_path), "kb", "reset"]) == 1
    assert "sigma" in capsys.readouterr().err


def test_unknown_subcommand_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_package_needs_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(curiophys.__file__))
    code = "import curiophys.cli, sys; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


def test_cli_import_skips_the_xml_and_url_libraries():
    # xml.sax.saxutils pulls in urllib.request, http.client, email and ssl
    src = os.path.dirname(os.path.dirname(curiophys.__file__))
    code = "import curiophys.cli, sys; print(sorted({'xml.sax', 'urllib.request'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_cli_import_skips_the_plot_module():
    # only the plot command renders SVG; it imports the module itself
    src = os.path.dirname(os.path.dirname(curiophys.__file__))
    code = "import curiophys.cli, sys; print('curiophys.plot' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


def test_cli_import_skips_the_csv_module():
    # only the plot command writes CSV, through the plot module
    src = os.path.dirname(os.path.dirname(curiophys.__file__))
    code = "import curiophys.cli, sys; print('csv' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"
