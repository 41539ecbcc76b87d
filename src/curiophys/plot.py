"""Linear position-over-time plots of tracked events.

Renders one SVG per event: two stacked panels (x and y coordinate against
frame number), solid lines for the observed path, dashed for the filter's
predicted path, one color per track, with continuity-break spans shaded.
SVG is built by hand so plotting pulls in no raster dependencies; the CSV
files written alongside are the canonical data export.
"""
from __future__ import annotations

import csv
import math
import os
import sys
from typing import IO, Iterator, Sequence, Tuple

from .trace_model import EventTrace
from .tracker import (
    Discontinuity,
    Track,
    TrackerParams,
    trace_discontinuities,
    track_event,
)

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_PANEL_W = 640
_PANEL_H = 180
_MARGIN_L = 56
_MARGIN_R = 170
_MARGIN_T = 34
_PANEL_GAP = 36
_MARGIN_B = 30


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text content."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round-valued ticks inside [lo, hi], for lo < hi."""
    # halved, so a span wider than the float range does not overflow
    raw_step = (hi / 2 - lo / 2) / target * 2
    mag = 10 ** math.floor(math.log10(raw_step))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if raw_step <= step:
            break
    # a step below the float spacing at the range's edge would not advance
    # t (near 1e16 a step of 0.5 is a quarter of that spacing)
    step = max(step, math.ulp(max(abs(lo), abs(hi))))
    first = math.ceil(lo / step) * step
    # counted up front, so the loop is bounded; the slack keeps a last tick
    # that the summed steps put a hair past hi
    count = math.floor((hi / 2 - first / 2) / step * 2 + 1e-9) + 1
    ticks: list[float] = []
    t = first
    for _ in range(count):
        tick = round(t, 9)
        # rounding may merge neighbours or leave the range
        if lo <= tick <= hi and (not ticks or tick > ticks[-1]):
            ticks.append(tick)
        t += step
    return ticks


def _tick_labels(ticks: Sequence[float]) -> list[str]:
    """One label per tick of an axis: `:g` where those tell the ticks apart,
    else the fewest significant digits that do (17 tell any floats apart)."""
    labels = [f"{t:g}" for t in ticks]
    digits = 6
    while len(set(labels)) < len(labels) and digits < 17:
        digits += 1
        labels = [f"{t:.{digits}g}" for t in ticks]
    return labels


class _Panel:
    """Maps (frame, value) to pixel coordinates for one stacked panel whose
    frame axis runs from 0 to last (> 0)."""

    def __init__(self, top: float, last: int, values: Tuple[float, float]):
        self.top = top
        self.last = last
        lo, hi = values
        if hi - lo < 1e-9:
            # wide enough to survive rounding at the value's magnitude
            widen = max(1.0, abs(lo) * 1e-9)
            lo, hi = lo - widen, hi + widen
        # spans are halved, and the range clamped, so no step overflows
        pad = 0.1 * (hi / 2 - lo / 2)
        self.v_lo = max(lo - pad, -sys.float_info.max)
        self.v_hi = min(hi + pad, sys.float_info.max)

    def fx(self, frame: float) -> float:
        return _MARGIN_L + frame / self.last * _PANEL_W

    def fy(self, value: float) -> float:
        span = self.v_hi / 2 - self.v_lo / 2
        return self.top + _PANEL_H - (value / 2 - self.v_lo / 2) / span * _PANEL_H


def _polyline(points: Sequence[Tuple[float, float]], color: str, dashed: bool) -> str:
    dash = ' stroke-dasharray="6,4" opacity="0.75"' if dashed else ""
    if len(points) == 1:
        x, y = points[0]
        fill = color if not dashed else "none"
        stroke = f' stroke="{color}"' if dashed else ""
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{fill}"{stroke}{dash}/>'
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.6"{dash}/>'
    )


def _observed_segments(track: Track, axis: int) -> list[list[Tuple[int, float]]]:
    """Consecutive observed runs as (frame, value) lists; gaps split segments."""
    segments: list[list[Tuple[int, float]]] = []
    current: list[Tuple[int, float]] = []
    for i, det in enumerate(track.detections):
        if det is not None:
            current.append((track.first_frame + i, det.center[axis]))
        elif current:
            segments.append(current)
            current = []
    if current:
        segments.append(current)
    return segments


def _panel_svg(
    tracks: Sequence[Track],
    discontinuities: Sequence[Discontinuity],
    frame_count: int,
    axis: int,
    label: str,
    top: float,
) -> list[str]:
    values = []
    for track in tracks:
        values.extend(c[axis] for c in track.centers_predicted)
        values.extend(det.center[axis] for _, det in track.observed())
    last = max(frame_count - 1, 1)
    panel = _Panel(top, last, (min(values), max(values)))

    parts = [
        f'<rect x="{_MARGIN_L}" y="{top}" width="{_PANEL_W}" height="{_PANEL_H}" '
        f'fill="var(--panel, #fafafa)" stroke="#888" stroke-width="1"/>'
    ]

    # shaded continuity-break spans (deduplicated; vanish/appear pairs share one)
    seen: set[Tuple[int, int]] = set()
    for disc in discontinuities:
        span = (disc.start_frame, disc.end_frame)
        if span in seen:
            continue
        seen.add(span)
        x0 = panel.fx(disc.start_frame)
        x1 = max(panel.fx(disc.end_frame), x0 + 2.0)
        parts.append(
            f'<rect x="{x0:.2f}" y="{top}" width="{x1 - x0:.2f}" height="{_PANEL_H}" '
            f'fill="#c44" opacity="0.12"/>'
        )

    ticks = _nice_ticks(panel.v_lo, panel.v_hi)
    for tick, text in zip(ticks, _tick_labels(ticks)):
        y = panel.fy(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" stroke="#888"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 7}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-size="10">{text}</text>'
        )
    ticks = _nice_ticks(0, last)
    for tick, text in zip(ticks, _tick_labels(ticks)):
        x = panel.fx(tick)
        y = top + _PANEL_H
        parts.append(f'<line x1="{x:.2f}" y1="{y}" x2="{x:.2f}" y2="{y + 4}" stroke="#888"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y + 14}" text-anchor="middle" '
            f'font-size="10">{text}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L - 40}" y="{top + _PANEL_H / 2:.2f}" font-size="11" '
        f'transform="rotate(-90 {_MARGIN_L - 40} {top + _PANEL_H / 2:.2f})" '
        f'text-anchor="middle">{label}</text>'
    )

    for track in tracks:
        color = PALETTE[track.track_id % len(PALETTE)]
        predicted = [
            (panel.fx(track.first_frame + i), panel.fy(c[axis]))
            for i, c in enumerate(track.centers_predicted)
        ]
        parts.append(_polyline(predicted, color, dashed=True))
        for segment in _observed_segments(track, axis):
            parts.append(_polyline([(panel.fx(f), panel.fy(v)) for f, v in segment], color, False))
    return parts


def render_event_svg(
    trace: EventTrace,
    tracks: Sequence[Track],
    discontinuities: Sequence[Discontinuity],
) -> str:
    height = _MARGIN_T + 2 * _PANEL_H + _PANEL_GAP + _MARGIN_B
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="20" font-size="13" font-weight="bold">'
        f"{_escape(trace.event_id)}</text>",
    ]
    parts.extend(
        _panel_svg(tracks, discontinuities, trace.frame_count, 0, "x (px)", _MARGIN_T)
    )
    parts.extend(
        _panel_svg(
            tracks, discontinuities, trace.frame_count, 1, "y (px)",
            _MARGIN_T + _PANEL_H + _PANEL_GAP,
        )
    )

    lx = _MARGIN_L + _PANEL_W + 14
    ly = _MARGIN_T + 6
    for track in tracks:
        color = PALETTE[track.track_id % len(PALETTE)]
        kind = "wall" if track.is_occluder else track.resolved_class.value
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 24}" y="{ly + 4}" font-size="11">track {track.track_id} '
            f"({_escape(kind)})</text>"
        )
        ly += 16
    parts.append(
        f'<text x="{lx}" y="{ly + 8}" font-size="10" fill="#555">solid: observed</text>'
    )
    parts.append(
        f'<text x="{lx}" y="{ly + 22}" font-size="10" fill="#555">dashed: predicted</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# CSV report
# ---------------------------------------------------------------------------

TRACK_CSV_FIELDS = (
    "frame",
    "observed_x",
    "observed_y",
    "predicted_x",
    "predicted_y",
    "residual",
    "present",
)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def track_csv_rows(track: Track) -> Iterator[tuple]:
    """Rows for one track in TRACK_CSV_FIELDS order; absent frames leave the
    observation and residual cells empty."""
    for i, det in enumerate(track.detections):
        frame = track.first_frame + i
        px, py = track.centers_predicted[i]
        if det is not None:
            ox, oy = det.center
            residual = track.residuals[i]
            assert residual is not None
            yield (frame, _fmt(ox), _fmt(oy), _fmt(px), _fmt(py), _fmt(residual), 1)
        else:
            yield (frame, "", "", _fmt(px), _fmt(py), "", 0)


def write_track_csv(track: Track, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(TRACK_CSV_FIELDS)
    writer.writerows(track_csv_rows(track))


def plot_event(
    trace: EventTrace,
    out_dir,
    params: TrackerParams = TrackerParams(),
) -> list[str]:
    """Track the event and write its SVG plot plus one CSV per track into
    out_dir (created if absent), each named after the event id; returns the
    written paths.  An event id that could name a file outside out_dir
    (empty, "." or "..", or holding a path separator or NUL) raises
    ValueError before anything is written."""
    event_id = trace.event_id
    if event_id in ("", ".", "..") or any(
        sep and sep in event_id for sep in (os.sep, os.altsep, "\0")
    ):
        raise ValueError(f"event_id {event_id!r} cannot name a file inside the output directory")
    tracks = track_event(trace, params)
    svg = render_event_svg(trace, tracks, trace_discontinuities(tracks, trace.frame_count, params))
    os.makedirs(out_dir, exist_ok=True)
    written = []

    svg_path = os.path.join(out_dir, f"{event_id}.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    written.append(svg_path)

    for track in tracks:
        csv_path = os.path.join(out_dir, f"{event_id}-track{track.track_id}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            write_track_csv(track, fh)
        written.append(csv_path)
    return written
