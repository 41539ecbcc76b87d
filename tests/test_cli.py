import json
import os
import subprocess
import sys

import pytest

import curiophys
from curiophys import (
    Detection,
    EventTrace,
    FrameRecord,
    ObjectClass,
    load_kb_file,
    write_trace_file,
)
from curiophys.cli import main
from trace_builders import build_trace

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
    trace = EventTrace("overflow", (FrameRecord(0, (det,)),), None)
    path = tmp_path / "overflow.jsonl"
    write_trace_file(trace, path)
    assert main(["--out", str(tmp_path / "results"), "classify", str(path)]) == 1
    assert "frame 0, detection 0: bbox center x inf is not finite" in capsys.readouterr().err
    assert not (tmp_path / "results" / "verdicts.jsonl").exists()


def test_classify_rejects_a_number_too_large_for_a_float(tmp_path, capsys):
    det = Detection(ObjectClass.SPHERE, 0.6, (123.25, 100.0, 20.0, 20.0), (1.0, 0.01))
    path = tmp_path / "huge.jsonl"
    write_trace_file(EventTrace("huge", (FrameRecord(0, (det,)),), None), path)
    # a JSON integer literal of 401 digits decodes to an int no float can hold
    path.write_text(path.read_text().replace("123.25", "1" + "0" * 400))
    assert main(["--out", str(tmp_path / "results"), "classify", str(path)]) == 1
    assert "line 2: bbox[0] must be a finite number, got 1000" in capsys.readouterr().err


def test_classify_rejects_an_empty_shape_descriptor(tmp_path, capsys):
    det = Detection(ObjectClass.CUBE, 0.6, (100.0, 100.0, 20.0, 20.0), ())
    trace = EventTrace("empty-descriptor", tuple(FrameRecord(t, (det,)) for t in range(3)), None)
    path = tmp_path / "empty-descriptor.jsonl"
    write_trace_file(trace, path)
    assert main(["--out", str(tmp_path / "results"), "classify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line 2: shape_descriptor must not be empty" in err
    assert not (tmp_path / "results" / "verdicts.jsonl").exists()


def test_classify_scores_descriptors_whose_squares_overflow(tmp_path, capsys):
    # finite entries whose difference squared exceeds the float range
    frames = tuple(
        FrameRecord(t, (Detection(ObjectClass.CUBE, 0.6, (100.0 + 3 * t, 100.0, 20.0, 20.0), d),))
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
