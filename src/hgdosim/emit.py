"""File emitters: CSV traces, JSON reports, and dependency-free SVG plots.

CSV cells use Python's shortest round-trip float formatting, so a parsed-back
trace is bit-identical to the in-memory one. The SVG writer draws plain
polyline panels (axes, ticks, legend) without any plotting runtime.
"""

from __future__ import annotations

import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sim import TRACE_COLUMNS, SimTrace


class EmitError(RuntimeError):
    """File could not be written or read back; message carries the path."""


# One forked helper takes half of a trace when it has at least this many rows
# (emit_csv) or bytes (read_csv). In a ~95 MB process on two CPUs, the fork,
# exit and wait cost about 5 ms, and the helper breaks even at about 500 rows
# written and 1 MB read. The smallest shipped traces are 3001 rows
# (bound_check) and 2.2 MB (ground_effect).
_HELPER_MIN_ROWS = 1000
_HELPER_MIN_BYTES = 1_000_000


def _helper_allowed(size: int, minimum: int) -> bool:
    """Whether one forked helper may take half of `size` units of work."""
    if size < minimum or not (hasattr(os, "fork") and hasattr(os, "memfd_create")):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _fork(work, *args):
    """Start one helper process running `work(*args)`; return its pid, or
    None when the system refuses the fork and the caller does the work.

    The helper leaves through `os._exit` (0 if `work` returned, 1 if it
    raised), so it never returns into the caller, runs no atexit handler and
    flushes no inherited buffer. Forking beside numpy's idle OpenBLAS thread
    is safe: the helper only calls repr, string-to-double and os writes,
    never BLAS, so it needs no lock that thread could hold.
    """
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on any fork beside another thread
            warnings.filterwarnings("ignore", "This process", DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            work(*args)
            code = 0
        finally:
            os._exit(code)
    return pid


def _reap(pid: int, kill: bool = False) -> bool:
    """Wait for a helper, after killing it if asked; True if it exited 0.

    With SIGCHLD ignored the kernel reaps the helper itself and its exit
    status is lost, so that counts as a failed helper.
    """
    try:
        if kill:
            os.kill(pid, 9)  # SIGKILL; importing `signal` costs 1 ms of start-up
        _, status = os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):
        return False
    return os.waitstatus_to_exitcode(status) == 0


def _write_rows(fh, rows) -> None:
    """The row formatter: one CRLF-terminated line of repr cells per row."""
    for row in rows:
        fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def _write_rows_to_fd(fd: int, rows) -> None:
    """Helper body: format `rows` into the file `fd`."""
    with open(fd, "w", newline="", closefd=False) as out:
        _write_rows(out, rows)


def _append(fh, fd: int) -> bool:
    """Copy all bytes of `fd` to the end of `fh`; False if the kernel refused
    the first copy (a file it cannot splice into), so nothing was written."""
    fh.flush()
    size, sent = os.fstat(fd).st_size, 0
    while sent < size:
        try:
            n = os.sendfile(fh.fileno(), fd, sent, size - sent)
        except OSError:
            if sent:
                raise
            return False
        if n == 0:
            raise OSError("helper output ended early")
        sent += n
    return True


def emit_csv(trace: SimTrace, path) -> None:
    """Write the fixed header, then one CRLF-terminated line per row.

    Cells are `repr` of the float (shortest round trip); no cell needs
    quoting. Rows are formatted and written one at a time. On a long trace
    with two usable CPUs, one forked helper formats the second half of the
    rows into an anonymous in-memory file while this process writes the
    first half; its bytes are then appended, and if it failed this process
    formats them.
    """
    path = Path(path)
    data = trace.data
    mid, memfd, pid = len(data), None, None
    try:
        if _helper_allowed(len(data), _HELPER_MIN_ROWS):
            try:
                memfd = os.memfd_create("hgdosim-csv")
            except OSError:  # refused by the kernel or a seccomp filter
                pass
            else:
                pid = _fork(_write_rows_to_fd, memfd, data[len(data) // 2:])
                if pid is not None:
                    mid = len(data) // 2
        with path.open("w", newline="") as fh:
            fh.write(",".join(trace.columns) + "\r\n")
            _write_rows(fh, data[:mid])
            if pid is not None:
                done, pid = _reap(pid), None
                if not (done and _append(fh, memfd)):
                    _write_rows(fh, data[mid:])
    except OSError as exc:
        raise EmitError(f"{path}: {exc}") from exc
    finally:
        if pid is not None:
            _reap(pid, kill=True)
        if memfd is not None:
            os.close(memfd)


def _parse(lines) -> np.ndarray:
    """The row parser: float64 cells, one row per non-blank line, 2-D."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _read_exact(fd: int, buf: np.ndarray) -> bool:
    """Fill `buf` from `fd`; False if the stream ended first."""
    view = memoryview(buf).cast("B")
    while view:
        n = os.readv(fd, [view])
        if n == 0:
            return False
        view = view[n:]
    return True


class _Span(io.RawIOBase):
    """Bytes [pos, stop) of a file, read with pread so that the file
    offset, which a forked helper shares, never moves."""

    def __init__(self, fd: int, pos: int, stop: int):
        self.fd, self.pos, self.stop = fd, pos, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = os.preadv(self.fd, [memoryview(buf)[:self.stop - self.pos]], self.pos)
        self.pos += n
        return n


def _parse_span(fd: int, start: int, stop: int, encoding: str) -> np.ndarray:
    """Parse bytes [start, stop) of `fd`, decoded as the whole file would be."""
    return _parse(io.TextIOWrapper(io.BufferedReader(_Span(fd, start, stop)),
                                   encoding=encoding))


def _parse_to_pipe(rfd: int, wfd: int, *span) -> None:
    """Helper body: parse a span of the file, then send the shape (two
    int64) and the float64 rows down `wfd`."""
    os.close(rfd)  # so a dead reader gives EPIPE here, not a blocked write
    data = _parse_span(*span)
    with open(wfd, "wb", closefd=False) as out:
        out.write(np.array(data.shape, dtype=np.int64).tobytes())
        out.write(data)


def _read_halves(fh, start: int, split: int, stop: int):
    """Parse bytes [start, split) of `fh` here and [split, stop) in a helper.

    Returns the rows of both in one array, or None when the halves do not
    join into the table one parse would give (a bad cell, a changed cell
    count, a failed helper), so the caller parses the whole file itself.
    """
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None
    fd, encoding = fh.fileno(), fh.encoding
    try:
        pid = _fork(_parse_to_pipe, rfd, wfd, fd, split, stop, encoding)
    finally:
        os.close(wfd)
    try:
        if pid is None:
            return None
        try:
            data = _parse_span(fd, start, split, encoding)
            rows = len(data)
            shape = np.empty(2, dtype=np.int64)
            if not _read_exact(rfd, shape):
                return None
            more, cols = shape.tolist()
            if more < 0 or cols != data.shape[1]:
                return None
            # in place, so this half and the whole are never both held
            data.resize((rows + more, cols), refcheck=False)
        except ValueError:  # a bad cell, or rows that are a view (one row)
            return None
        if not _read_exact(rfd, data[rows:]):
            return None
        done, pid = _reap(pid), None
        return data if done else None
    finally:
        os.close(rfd)
        if pid is not None:
            _reap(pid, kill=True)


def _read_rows(fh) -> np.ndarray:
    """Parse every row after the header. On a long file with two usable
    CPUs, a forked helper parses the second half of the bytes, cut at a
    line break, while this process parses the first half."""
    size = os.fstat(fh.fileno()).st_size  # 0 for a pipe, which cannot seek
    if _helper_allowed(size, _HELPER_MIN_BYTES):
        start = fh.tell()
        mid = start + (size - start) // 2
        split = mid + os.pread(fh.fileno(), 1 << 16, mid).find(b"\n") + 1
        if mid < split < size:
            data = _read_halves(fh, start, split, size)
            if data is not None:
                return data
    return _parse(fh)


def read_csv(path) -> SimTrace:
    """Parse a trace written by emit_csv back into a SimTrace (no config).

    Lines may end in CRLF or LF, and blank lines are skipped. Cells go
    through the same string-to-double conversion as float(), so the round
    trip is bit-identical.
    """
    path = Path(path)
    try:
        with path.open() as fh:
            header = fh.readline()
            if not header:
                raise EmitError(f"{path}: empty file")
            if header.rstrip("\n").split(",") != list(TRACE_COLUMNS):
                raise EmitError(f"{path}: unexpected trace header")
            data = _read_rows(fh)
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
