import os

import pytest

from curiophys import ScenarioKind, build_spec, generate_event, track_event
from curiophys.plot import plot_event, render_event_svg
from curiophys.tracker import trace_discontinuities
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
