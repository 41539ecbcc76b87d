"""Linear position-over-time plots of tracked events.

Renders one SVG per event: two stacked panels (x and y coordinate against
frame number), solid lines for the observed path, dashed for the filter's
predicted path, one color per track, with continuity-break spans shaded.
SVG is built by hand so plotting pulls in no raster dependencies; the CSV
files written alongside are the canonical data export.
"""
from __future__ import annotations

import math
import os
from typing import Sequence, Tuple

from .trace_model import EventTrace
from .tracker import (
    Discontinuity,
    Track,
    TrackerParams,
    trace_discontinuities,
    track_event,
    write_track_csv,
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
    if hi <= lo:
        return [lo]
    raw_step = (hi - lo) / target
    mag = 10 ** math.floor(math.log10(raw_step))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if raw_step <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9:
        ticks.append(round(t, 9))
        t += step
    return ticks


def _fmt_num(v: float) -> str:
    return f"{v:g}"


class _Panel:
    """Maps (frame, value) to pixel coordinates for one stacked panel."""

    def __init__(self, top: float, frames: Tuple[float, float], values: Tuple[float, float]):
        self.top = top
        self.f_lo, self.f_hi = frames
        lo, hi = values
        if hi - lo < 1e-9:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.05 * (hi - lo)
        self.v_lo, self.v_hi = lo - pad, hi + pad

    def fx(self, frame: float) -> float:
        if self.f_hi == self.f_lo:
            return _MARGIN_L + _PANEL_W / 2
        return _MARGIN_L + (frame - self.f_lo) / (self.f_hi - self.f_lo) * _PANEL_W

    def fy(self, value: float) -> float:
        return self.top + _PANEL_H - (value - self.v_lo) / (self.v_hi - self.v_lo) * _PANEL_H


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
    panel = _Panel(top, (0.0, max(frame_count - 1, 1)), (min(values), max(values)))

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

    for tick in _nice_ticks(panel.v_lo, panel.v_hi):
        y = panel.fy(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" stroke="#888"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 7}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-size="10">{_fmt_num(tick)}</text>'
        )
    for tick in _nice_ticks(0, max(frame_count - 1, 1)):
        x = panel.fx(tick)
        y = top + _PANEL_H
        parts.append(f'<line x1="{x:.2f}" y1="{y}" x2="{x:.2f}" y2="{y + 4}" stroke="#888"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y + 14}" text-anchor="middle" '
            f'font-size="10">{_fmt_num(tick)}</text>'
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


def plot_event(
    trace: EventTrace,
    out_dir,
    params: TrackerParams = TrackerParams(),
) -> list[str]:
    """Track the event and write its SVG plot plus one CSV per track, each
    named after the event id; returns the written paths."""
    tracks = track_event(trace, params)
    discontinuities = trace_discontinuities(tracks, trace.frame_count, params)
    written = []

    svg_path = os.path.join(out_dir, f"{trace.event_id}.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_event_svg(trace, tracks, discontinuities))
    written.append(svg_path)

    for track in tracks:
        csv_path = os.path.join(out_dir, f"{trace.event_id}-track{track.track_id}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            write_track_csv(track, fh)
        written.append(csv_path)
    return written
