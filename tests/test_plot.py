import io
import json
import os
import re
import subprocess
import sys

import pytest

import curiophys
from curiophys import ObjectClass, ScenarioKind, build_spec, generate_event, track_event
from curiophys.ingest import write_trace_file
from curiophys.plot import _nice_ticks, _tick_labels, plot_event, render_event_svg, write_track_csv
from curiophys.tracker import trace_discontinuities
from curiophys.trace_model import Detection, EventTrace
from trace_builders import ObjectScript, build_trace, linear_script


def _render(trace):
    tracks = track_event(trace)
    return render_event_svg(trace, tracks, trace_discontinuities(tracks, trace.frame_count))


def test_svg_structure_for_occluded_event():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_OCCLUDED))
    svg = _render(trace)
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert trace.event_id in svg  # title
    assert svg.count("<polyline") >= 4  # observed + predicted, two panels
    assert 'stroke-dasharray="6,4"' in svg  # predicted paths are dashed
    assert "track 0 (sphere)" in svg and "track 1 (wall)" in svg
    assert "solid: observed" in svg and "dashed: predicted" in svg
    assert "x (px)" in svg and "y (px)" in svg
    # the vanish/appear pair shades one span per panel
    assert svg.count('fill="#c44"') == 2


def test_clean_event_has_no_shaded_spans():
    trace = generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE))
    assert 'fill="#c44"' not in _render(trace)


def test_single_detection_renders_as_point():
    trace = build_trace("one-frame", 1, [ObjectScript({0: (50.0, 100.0)})])
    svg = _render(trace)
    assert "<circle" in svg


def test_event_id_is_escaped():
    trace = build_trace('a<b&c>"d', 5, [linear_script((50.0, 100.0), (3.0, 0.0), range(5))])
    svg = _render(trace)
    # text content: &, < and > are escaped, a double quote is left as it is
    assert 'a&lt;b&amp;c&gt;"d</text>' in svg
    assert "a<b&c" not in svg


def test_plot_event_writes_svg_and_per_track_csv(tmp_path):
    trace = build_trace(
        "pair",
        10,
        [
            linear_script((50.0, 80.0), (3.0, 0.0), range(10)),
            linear_script((50.0, 220.0), (3.0, 0.0), range(10)),
        ],
    )
    written = plot_event(trace, tmp_path)
    assert [os.path.basename(p) for p in written] == [
        "pair.svg",
        "pair-track0.csv",
        "pair-track1.csv",
    ]
    for path in written:
        assert os.path.isfile(path)
    csv_lines = open(written[1], encoding="utf-8").read().splitlines()
    assert csv_lines[0] == "frame,observed_x,observed_y,predicted_x,predicted_y,residual,present"
    assert len(csv_lines) == 11


@pytest.mark.parametrize("event_id", ["", ".", "..", "../up", "a/b", "ABSOLUTE", "nul\0byte"])
def test_plot_event_rejects_an_event_id_that_is_not_a_file_stem(tmp_path, event_id):
    if event_id == "ABSOLUTE":
        event_id = str(tmp_path / "abs")
    trace = build_trace(event_id, 5, [linear_script((50.0, 100.0), (3.0, 0.0), range(5))])
    with pytest.raises(ValueError, match="cannot name a file inside the output directory"):
        plot_event(trace, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_plot_output_is_deterministic(tmp_path):
    trace = generate_event(
        build_spec(ScenarioKind.IMPOSSIBLE_TELEPORT, noise_sigma=0.4, seed=5)
    )
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    for first, second in zip(plot_event(trace, a_dir), plot_event(trace, b_dir)):
        assert open(first, "rb").read() == open(second, "rb").read()


# A child that loops without end is cut by its timeout, and one that grows a
# list without end by its address-space cap, so neither hangs the suite.
_CHILD_SECONDS = 30
_CHILD_ADDRESS_SPACE = 512 * 2**20


def _run_bounded(args, cwd):
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    src = os.path.dirname(os.path.dirname(curiophys.__file__))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=_CHILD_SECONDS,
        preexec_fn=cap,
    )


def test_plot_ends_when_positions_span_a_few_ulps(tmp_path):
    # near 1e16 floats are 2 apart: the two centers are neighbours, and a
    # tick step of 0.5 used to leave the tick loop where it started
    trace = EventTrace(
        "ulps",
        tuple(
            (Detection(ObjectClass.SPHERE, 0.6, (x, 100.0, 4.0, 20.0), (1.0, 0.1)),)
            for x in (9999999999999996.0, 9999999999999998.0)
        ),
        None,
    )
    write_trace_file(trace, tmp_path / "t.jsonl")
    for command in ("classify", "plot"):
        result = _run_bounded(
            ["-m", "curiophys.cli", "--out", command, command, "t.jsonl"], tmp_path
        )
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "plot" / "ulps.svg").is_file()


def test_ticks_are_few_distinct_and_inside_the_range(tmp_path):
    ranges = [
        (0.0, 89.0),
        (-12.5, 647.25),
        (9999999999999996.0, 9999999999999998.0),  # float spacing 2, step 0.5
        (1e17 - 16.0, 1e17 + 16.0),
        (2.0**60, 2.0**60 + 2.0**8),
        (100.0, 100.000000001),  # steps finer than the 9 rounded digits
        (0.0, 1e-300),
        (-1.7e308, 1.7e308),
    ]
    code = (
        "import json, sys; from curiophys.plot import _nice_ticks; "
        "print(json.dumps([_nice_ticks(lo, hi) for lo, hi in json.loads(sys.argv[1])]))"
    )
    result = _run_bounded(["-c", code, json.dumps(ranges)], tmp_path)
    assert result.returncode == 0, result.stderr
    for (lo, hi), ticks in zip(ranges, json.loads(result.stdout)):
        assert 1 <= len(ticks) <= 11, (lo, hi, ticks)
        assert all(lo <= t <= hi for t in ticks), (lo, hi, ticks)
        assert ticks == sorted(set(ticks)), (lo, hi, ticks)


def _value_axis_labels(svg):
    """The value-axis tick labels of each panel, x panel first."""
    panels = svg.split('fill="var(--panel, #fafafa)"')[1:]
    return [re.findall(r'text-anchor="end" font-size="10">([^<]*)</text>', p) for p in panels]


@pytest.mark.parametrize(
    "xs",
    [
        [1000000.0 + f for f in range(4)],  # `:g` reads 1e+06 for each
        [9999999999999996.0, 9999999999999998.0],  # `:g` reads 1e+16 for both
    ],
    ids=["million", "ulps"],
)
def test_tick_labels_tell_ticks_apart_far_from_zero(xs):
    trace = EventTrace(
        "far",
        tuple((Detection(ObjectClass.SPHERE, 0.6, (x, 100.0, 4.0, 20.0), (1.0, 0.1)),) for x in xs),
        None,
    )
    for labels in _value_axis_labels(_render(trace)):
        assert len(labels) >= 2
        assert len(set(labels)) == len(labels), labels


def test_tick_labels_add_digits_only_where_g_repeats():
    assert _tick_labels([-50.0, 0.0, 50.0, 100.0, 150.0]) == ["-50", "0", "50", "100", "150"]
    assert _tick_labels([1000012.0, 1000013.0]) == ["1000012", "1000013"]
    assert _tick_labels([0.1, 0.2]) == ["0.1", "0.2"]


def test_ticks_take_the_smallest_round_step_that_fits():
    assert _nice_ticks(0, 50) == [0, 10, 20, 30, 40, 50]
    assert _nice_ticks(0, 89) == [0, 20, 40, 60, 80]


def test_tracks_span_the_panel_from_the_first_frame_to_the_last():
    svg = _render(generate_event(build_spec(ScenarioKind.POSSIBLE_VISIBLE)))
    lines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert len(lines) == 4  # observed and predicted, two panels
    for points in lines:
        xs = [p.split(",")[0] for p in points.split()]
        assert (xs[0], xs[-1]) == ("56.00", "696.00")


def test_track_csv_rows():
    frames = [t for t in range(10) if t not in (4, 5)]
    script = linear_script((50.0, 100.0), (3.0, 0.0), frames)
    [track] = track_event(build_trace("csv", 10, [script]))
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
