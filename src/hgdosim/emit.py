"""File emitters: CSV traces, JSON reports, and dependency-free SVG plots.

CSV cells use Python's shortest round-trip float formatting, so a parsed-back
trace is bit-identical to the in-memory one. The SVG writer draws plain
polyline panels (axes, ticks, legend) without any plotting runtime.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sim import TRACE_COLUMNS, SimTrace


class EmitError(RuntimeError):
    """File could not be written or read back; message carries the path."""


def emit_csv(trace: SimTrace, path) -> None:
    """Write the fixed header, then one CRLF-terminated line per row.

    Cells are `repr` of the float (shortest round trip); no cell needs
    quoting. Rows are formatted and written one at a time, so memory stays
    bounded by one line whatever the trace length.
    """
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            fh.write(",".join(trace.columns) + "\r\n")
            for row in trace.data:
                fh.write(",".join(map(repr, row.tolist())) + "\r\n")
    except OSError as exc:
        raise EmitError(f"{path}: {exc}") from exc


def read_csv(path) -> SimTrace:
    """Parse a trace written by emit_csv back into a SimTrace (no config).

    Lines may end in CRLF or LF. Cells go through the same string-to-double
    conversion as float(), so the round trip is bit-identical.
    """
    path = Path(path)
    try:
        with path.open() as fh:
            header = fh.readline()
            if not header:
                raise EmitError(f"{path}: empty file")
            if header.rstrip("\n").split(",") != list(TRACE_COLUMNS):
                raise EmitError(f"{path}: unexpected trace header")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except OSError as exc:
        raise EmitError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise EmitError(f"{path}: bad cell: {exc}") from exc
    if data.size == 0:
        data = data.reshape(0, len(TRACE_COLUMNS))
    elif data.shape[1] != len(TRACE_COLUMNS):
        raise EmitError(f"{path}: bad cell count: {data.shape[1]} per row, "
                        f"want {len(TRACE_COLUMNS)}")
    return SimTrace(data, {"source": str(path)})


def emit_json(report: dict, path) -> None:
    """Write a metrics report; keys keep their insertion order."""
    path = Path(path)
    try:
        path.write_text(json.dumps(report, indent=2) + "\n")
    except OSError as exc:
        raise EmitError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise EmitError(f"{path}: report not serializable: {exc}") from exc


# ---------------------------------------------------------------------------
# SVG plotting

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#e377c2", "#bcbd22", "#7f7f7f")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 30.0, 42.0


@dataclass
class Series:
    """One polyline: x and y arrays plus a legend label."""

    x: np.ndarray
    y: np.ndarray
    label: str
    dash: bool = False


@dataclass
class Panel:
    """One set of axes with any number of series."""

    title: str
    series: list = field(default_factory=list)
    xlabel: str = ""
    ylabel: str = ""


def _decimate(arr: np.ndarray, max_points: int) -> np.ndarray:
    if arr.size <= max_points:
        return arr
    stride = int(math.ceil(arr.size / max_points))
    return arr[::stride]


def _bounds(values) -> tuple:
    lo = min((float(np.min(v)) for v in values if v.size), default=0.0)
    hi = max((float(np.max(v)) for v in values if v.size), default=1.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = 0.0, 1.0
    if hi <= lo:
        pad = 0.5 if lo == 0.0 else 0.05 * abs(lo)
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    return lo - 0.04 * span, hi + 0.04 * span


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _escape(text: str) -> str:
    """Escape &, > and < for SVG text, in that order, as
    `xml.sax.saxutils.escape` does; importing that module would pull in
    urllib, http, email and ssl."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _panel_svg(panel: Panel, width: float, height: float, y0: float,
               max_points: int) -> list:
    x_all = [_decimate(np.asarray(s.x, dtype=float), max_points) for s in panel.series]
    y_all = [_decimate(np.asarray(s.y, dtype=float), max_points) for s in panel.series]
    x_lo, x_hi = _bounds(x_all)
    y_lo, y_hi = _bounds(y_all)
    px0, px1 = _MARGIN_L, width - _MARGIN_R
    py0, py1 = y0 + _MARGIN_T, y0 + height - _MARGIN_B

    def sx(v):
        return px0 + (v - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v):
        return py1 - (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out = [f'<rect x="{px0:.1f}" y="{py0:.1f}" width="{px1 - px0:.1f}" '
           f'height="{py1 - py0:.1f}" fill="white" stroke="#333"/>']
    out.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{y0 + 19:.1f}" '
               f'text-anchor="middle" font-size="14" font-weight="bold">'
               f'{_escape(panel.title)}</text>')

    for tick in np.linspace(x_lo, x_hi, 5):
        tx = sx(tick)
        out.append(f'<line x1="{tx:.1f}" y1="{py1:.1f}" x2="{tx:.1f}" '
                   f'y2="{py1 + 4:.1f}" stroke="#333"/>')
        out.append(f'<text x="{tx:.1f}" y="{py1 + 17:.1f}" text-anchor="middle" '
                   f'font-size="11">{_escape(_fmt(tick))}</text>')
    for tick in np.linspace(y_lo, y_hi, 5):
        ty = sy(tick)
        out.append(f'<line x1="{px0 - 4:.1f}" y1="{ty:.1f}" x2="{px0:.1f}" '
                   f'y2="{ty:.1f}" stroke="#333"/>')
        out.append(f'<text x="{px0 - 7:.1f}" y="{ty + 4:.1f}" text-anchor="end" '
                   f'font-size="11">{_escape(_fmt(tick))}</text>')
    if panel.xlabel:
        out.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{py1 + 33:.1f}" '
                   f'text-anchor="middle" font-size="12">{_escape(panel.xlabel)}</text>')
    if panel.ylabel:
        cx, cy = px0 - 48.0, (py0 + py1) / 2.0
        out.append(f'<text x="{cx:.1f}" y="{cy:.1f}" text-anchor="middle" '
                   f'font-size="12" transform="rotate(-90 {cx:.1f} {cy:.1f})">'
                   f'{_escape(panel.ylabel)}</text>')

    for i, (sxs, sys_, s) in enumerate(zip(x_all, y_all, panel.series)):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dash else ""
        xy = np.empty(2 * sxs.size)
        xy[0::2], xy[1::2] = sx(sxs), sy(sys_)
        pts = " ".join(["%.2f,%.2f"] * sxs.size) % tuple(xy.tolist())
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.4"{dash}/>')
        ly = py0 + 14 + 15 * i
        lx = px1 - 130
        out.append(f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" '
                   f'y2="{ly - 4:.1f}" stroke="{color}" stroke-width="2"{dash}/>')
        out.append(f'<text x="{lx + 27:.1f}" y="{ly:.1f}" font-size="11">'
                   f'{_escape(s.label)}</text>')
    return out


def emit_svg(panels, path, width: int = 960, panel_height: int = 280,
             max_points: int = 4000) -> None:
    """Render stacked panels of line plots to an SVG file."""
    panels = list(panels)
    if not panels:
        raise ValueError("need at least one panel")
    total_h = panel_height * len(panels)
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{total_h}" viewBox="0 0 {width} {total_h}" '
            f'font-family="sans-serif">',
            f'<rect width="{width}" height="{total_h}" fill="white"/>']
    for i, panel in enumerate(panels):
        body.extend(_panel_svg(panel, width, panel_height, i * panel_height,
                               max_points))
    body.append("</svg>")
    path = Path(path)
    try:
        path.write_text("\n".join(body) + "\n")
    except OSError as exc:
        raise EmitError(f"{path}: {exc}") from exc


def plot_xy(trace: SimTrace) -> list:
    """Horizontal-plane path against its reference."""
    return [Panel("Horizontal path",
                  [Series(trace.col("x"), trace.col("y"), "flown"),
                   Series(trace.col("x_ref"), trace.col("y_ref"),
                          "reference", dash=True)],
                  xlabel="x [m]", ylabel="y [m]")]


def plot_timeseries(trace: SimTrace) -> list:
    """Position and attitude tracking over time."""
    t = trace.t
    pos = Panel("Position", xlabel="t [s]", ylabel="[m]")
    for name in ("x", "y", "z"):
        pos.series.append(Series(t, trace.col(name), name))
        pos.series.append(Series(t, trace.col(f"{name}_ref"),
                                 f"{name} ref", dash=True))
    err = Panel("Position error", xlabel="t [s]", ylabel="[m]")
    for name in ("ex", "ey", "ez"):
        err.series.append(Series(t, trace.col(name), name))
    att = Panel("Attitude", xlabel="t [s]", ylabel="[rad]")
    for name in ("phi", "theta", "psi"):
        att.series.append(Series(t, trace.col(name), name))
        att.series.append(Series(t, trace.col(f"{name}_ref"),
                                 f"{name} ref", dash=True))
    return [pos, err, att]


def plot_estimates(trace: SimTrace) -> list:
    """Disturbance estimates against the injected truth, both loops."""
    t = trace.t
    force = Panel("Translational disturbance", xlabel="t [s]", ylabel="[m/s^2]")
    for ax in ("x", "y", "z"):
        force.series.append(Series(t, trace.col(f"d1{ax}_true"),
                                   f"d1{ax} true", dash=True))
        force.series.append(Series(t, trace.col(f"d1{ax}_hat"), f"d1{ax} est"))
    torque = Panel("Rotational disturbance", xlabel="t [s]", ylabel="[rad/s^2]")
    for ax in ("x", "y", "z"):
        torque.series.append(Series(t, trace.col(f"d2{ax}_true"),
                                    f"d2{ax} true", dash=True))
        torque.series.append(Series(t, trace.col(f"d2{ax}_hat"), f"d2{ax} est"))
    return [force, torque]


PLOT_KINDS = {
    "xy": plot_xy,
    "timeseries": plot_timeseries,
    "estimates": plot_estimates,
}
