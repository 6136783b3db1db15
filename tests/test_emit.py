"""Emitter tests: CSV round trips, JSON reports, SVG rendering."""

import csv
import json
import os
import signal
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest

import hgdosim
from hgdosim import emit
from hgdosim.config import validate_metrics
from hgdosim.disturbances import CompositeSinusoid, Constant
from hgdosim.emit import (
    EmitError,
    Panel,
    Series,
    _escape,
    emit_csv,
    emit_json,
    emit_svg,
    plot_estimates,
    plot_timeseries,
    plot_xy,
    read_csv,
)
from hgdosim.metrics import metrics_report
from hgdosim.sim import TRACE_COLUMNS, ScenarioConfig, SimTrace, run_scenario
from hgdosim.trajectories import HoverRamp


@pytest.fixture(scope="module")
def short_trace():
    cfg = ScenarioConfig(name="emit", duration=1.0, dt=0.002, outer_divisor=1,
                         trajectory=HoverRamp(target=np.array([0.0, 0.0, 0.5])),
                         pos0=np.array([0.0, 0.0, 0.5]),
                         force_signals=(CompositeSinusoid(), Constant(-0.2), None))
    return run_scenario(cfg)


def csv_module_writer(trace, path):
    """Reference writer: the csv module with repr(float) cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace.columns)
        for row in trace.data:
            writer.writerow([repr(float(v)) for v in row])


@pytest.fixture
def edge_trace(short_trace):
    data = short_trace.data[:5].copy()
    data[1, :6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]
    data[3, 10:13] = [-5e-324, -1e300, 0.1 + 0.2]
    return SimTrace(data, {})


class TestCsv:
    def test_round_trip_bit_exact(self, short_trace, edge_trace, tmp_path):
        for trace in (short_trace, edge_trace):
            path = tmp_path / "trace.csv"
            emit_csv(trace, path)
            back = read_csv(path)
            assert back.columns == list(TRACE_COLUMNS)
            assert back.data.tobytes() == trace.data.tobytes()

    def test_bytes_match_csv_module_writer(self, short_trace, edge_trace, tmp_path):
        for trace in (short_trace, edge_trace):
            ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
            emit_csv(trace, ours)
            csv_module_writer(trace, ref)
            assert ours.read_bytes() == ref.read_bytes()

    def test_lf_and_crlf_files_read_the_same(self, edge_trace, tmp_path):
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        emit_csv(edge_trace, crlf)
        assert crlf.read_bytes().count(b"\r\n") == len(edge_trace) + 1
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        assert read_csv(lf).data.tobytes() == read_csv(crlf).data.tobytes()

    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SimTrace(np.empty((0, len(TRACE_COLUMNS))), {}), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == list(TRACE_COLUMNS)
        assert read_csv(path).data.shape == (0, len(TRACE_COLUMNS))

    def test_cells_are_shortest_round_trip(self, short_trace, tmp_path):
        path = tmp_path / "trace.csv"
        emit_csv(short_trace, path)
        line = path.read_text().splitlines()[3]
        assert '"' not in line
        cell = line.split(",")[13]
        assert float(cell) == short_trace.data[2, 13]

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(EmitError, match="header"):
            read_csv(path)

    def test_bad_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n" +
                        ",".join(["nope"] * len(TRACE_COLUMNS)) + "\n")
        with pytest.raises(EmitError, match="bad cell"):
            read_csv(path)

    def test_truncated_row_rejected(self, short_trace, tmp_path):
        path = tmp_path / "cut.csv"
        emit_csv(short_trace, path)
        text = path.read_bytes()
        path.write_bytes(text[:text.rindex(b",", 0, len(text) // 2)])
        with pytest.raises(EmitError, match="bad cell"):
            read_csv(path)

    def test_short_rows_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n" +
                        ",".join(["1.0"] * (len(TRACE_COLUMNS) - 1)) + "\n")
        with pytest.raises(EmitError, match="bad cell"):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EmitError, match="none.csv"):
            read_csv(tmp_path / "none.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("")
        with pytest.raises(EmitError, match="empty"):
            read_csv(path)

    def test_write_error_carries_path(self, short_trace, tmp_path):
        with pytest.raises(EmitError, match=str(tmp_path)):
            emit_csv(short_trace, tmp_path)


@pytest.fixture(scope="module")
def long_trace(short_trace):
    """short_trace's rows tiled past the row threshold of the CSV helper."""
    reps = 2 * emit._HELPER_MIN_ROWS // len(short_trace) + 1
    return SimTrace(np.tile(short_trace.data, (reps, 1)), {})


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "memfd_create")),
                    reason="the CSV helper needs os.fork and os.memfd_create")
class TestCsvHelper:
    """The forked helper that writes and reads the second half of a trace."""

    @pytest.fixture(autouse=True)
    def two_cpus_and_no_leaks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fds = len(os.listdir("/proc/self/fd"))
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no helper left unreaped
        assert len(os.listdir("/proc/self/fd")) == fds
        assert all(p.suffix == ".csv" for p in tmp_path.iterdir())

    @pytest.fixture
    def forks(self, monkeypatch):
        """Count the forks this process makes."""
        calls, real = [], os.fork

        def fork():
            calls.append(1)
            return real()
        monkeypatch.setattr(os, "fork", fork)
        return calls

    @staticmethod
    def fail(monkeypatch, name, exc, in_helper):
        """Make emit.<name> raise `exc`, in a helper only or here only."""
        parent, real = os.getpid(), getattr(emit, name)

        def wrapped(*args):
            if (os.getpid() != parent) == in_helper:
                raise exc
            return real(*args)
        monkeypatch.setattr(emit, name, wrapped)

    def test_bytes_and_round_trip(self, long_trace, tmp_path, forks):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        emit_csv(long_trace, ours)
        assert len(forks) == 1
        csv_module_writer(long_trace, ref)
        assert ours.read_bytes() == ref.read_bytes()
        assert ours.stat().st_size > emit._HELPER_MIN_BYTES
        assert read_csv(ours).data.tobytes() == long_trace.data.tobytes()
        assert len(forks) == 2

    @pytest.mark.parametrize("layout", ["crlf", "lf", "blank_lines"])
    def test_read_layouts(self, long_trace, tmp_path, forks, layout):
        path = tmp_path / "trace.csv"
        emit_csv(long_trace, path)
        lines = path.read_bytes().split(b"\r\n")
        if layout == "lf":
            lines = b"\n".join(lines).split(b"\r\n")
            path.write_bytes(b"\n".join(lines))
        elif layout == "blank_lines":
            n = len(lines)
            for at in sorted((2, n // 4, n // 2 - 1, n // 2, 3 * n // 4, n - 2),
                             reverse=True):
                lines.insert(at, b"")
            path.write_bytes(b"\r\n".join(lines) + b"\n\r\n")
        assert read_csv(path).data.tobytes() == long_trace.data.tobytes()
        assert len(forks) == 2

    @staticmethod
    def narrow_half(raw, first):
        """Drop the last cell of each row in the first or second half of the
        bytes, padded with blank lines so the halves split where they did."""
        start = raw.index(b"\n") + 1
        mid = start + (len(raw) - start) // 2
        out, pos = [raw[:start]], start
        for line in raw[start:].split(b"\r\n")[:-1]:
            if (pos <= mid) == first:
                cut = line.rindex(b",")
                out.append(line[:cut] + b"\r\n" + b"\n" * (len(line) - cut))
            else:
                out.append(line + b"\r\n")
            pos += len(line) + 2
        return b"".join(out)

    @pytest.mark.parametrize("fault", ["bad_cell", "cut_row", "narrow_half"])
    @pytest.mark.parametrize("where", [0.25, 0.75])
    def test_errors_match_one_process(self, long_trace, tmp_path, forks,
                                      monkeypatch, fault, where):
        path = tmp_path / "trace.csv"
        emit_csv(long_trace, path)
        raw = path.read_bytes()
        if fault == "narrow_half":
            path.write_bytes(self.narrow_half(raw, first=where < 0.5))
        else:
            lines = raw.split(b"\r\n")
            k = int(where * len(lines))
            cells = lines[k].split(b",")
            lines[k] = b",".join(cells[:20] + ([b"nope"] + cells[21:]
                                               if fault == "bad_cell" else []))
            path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(EmitError) as helper:
            read_csv(path)
        assert len(forks) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(EmitError) as single:
            read_csv(path)
        assert len(forks) == 2
        assert str(helper.value) == str(single.value)
        assert f"{path}: bad cell" in str(single.value)

    def test_failed_helper_is_replaced(self, long_trace, tmp_path, forks,
                                       monkeypatch):
        self.fail(monkeypatch, "_write_rows", RuntimeError, in_helper=True)
        self.fail(monkeypatch, "_parse", RuntimeError, in_helper=True)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        emit_csv(long_trace, ours)
        csv_module_writer(long_trace, ref)
        assert ours.read_bytes() == ref.read_bytes()
        assert read_csv(ours).data.tobytes() == long_trace.data.tobytes()
        assert len(forks) == 2

    def test_refused_fork_and_sendfile(self, long_trace, tmp_path, monkeypatch):
        ref = tmp_path / "ref.csv"
        csv_module_writer(long_trace, ref)

        def refuse(*args):
            raise OSError(22, "refused")
        monkeypatch.setattr(os, "sendfile", refuse)
        emit_csv(long_trace, tmp_path / "a.csv")
        monkeypatch.setattr(os, "fork", refuse)
        emit_csv(long_trace, tmp_path / "b.csv")
        for name in ("a.csv", "b.csv"):
            assert (tmp_path / name).read_bytes() == ref.read_bytes()
        assert read_csv(ref).data.tobytes() == long_trace.data.tobytes()

    @pytest.mark.parametrize("system", ["one_cpu", "one_cpu_count", "no_memfd",
                                        "no_fork"])
    def test_no_fork_attempted(self, long_trace, short_trace, tmp_path,
                               monkeypatch, system):
        if system == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif system == "one_cpu_count":
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        elif system == "no_memfd":
            monkeypatch.delattr(os, "memfd_create")
        if system == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            def fork():
                raise AssertionError("fork attempted")
            monkeypatch.setattr(os, "fork", fork)
        ref = tmp_path / "ref.csv"
        csv_module_writer(long_trace, ref)
        emit_csv(long_trace, tmp_path / "ours.csv")
        assert (tmp_path / "ours.csv").read_bytes() == ref.read_bytes()
        assert read_csv(ref).data.tobytes() == long_trace.data.tobytes()

    def test_ignored_sigchld(self, long_trace, tmp_path, forks):
        # the kernel reaps the helper, so its exit status is lost
        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            emit_csv(long_trace, tmp_path / "ours.csv")
            back = read_csv(tmp_path / "ours.csv")
        finally:
            signal.signal(signal.SIGCHLD, old)
        csv_module_writer(long_trace, tmp_path / "ref.csv")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert back.data.tobytes() == long_trace.data.tobytes()
        assert len(forks) == 2

    def test_fifo_is_read_in_one_process(self, long_trace, tmp_path, forks):
        ref, fifo = tmp_path / "ref.csv", tmp_path / "fifo.csv"
        emit_csv(long_trace, ref)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(ref.read_bytes(),))
        writer.start()
        back = read_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert back.data.tobytes() == long_trace.data.tobytes()
        assert len(forks) == 1

    def test_short_trace_forks_nothing(self, short_trace, tmp_path, forks):
        emit_csv(short_trace, tmp_path / "trace.csv")
        read_csv(tmp_path / "trace.csv")
        assert forks == []

    def test_interrupt_reaps_helper(self, long_trace, tmp_path, forks,
                                    monkeypatch):
        path = tmp_path / "trace.csv"
        emit_csv(long_trace, path)
        self.fail(monkeypatch, "_write_rows", KeyboardInterrupt, in_helper=False)
        self.fail(monkeypatch, "_parse", KeyboardInterrupt, in_helper=False)
        with pytest.raises(KeyboardInterrupt):
            emit_csv(long_trace, tmp_path / "cut.csv")
        with pytest.raises(KeyboardInterrupt):
            read_csv(path)
        assert len(forks) == 3

    def test_directory_target_carries_path(self, long_trace, tmp_path, forks):
        target = tmp_path / "dir.csv"
        target.mkdir()
        with pytest.raises(EmitError, match=str(target)):
            emit_csv(long_trace, target)
        assert len(forks) == 1


class TestJson:
    def test_report_round_trip_and_schema(self, short_trace, tmp_path):
        path = tmp_path / "metrics.json"
        report = metrics_report(short_trace)
        emit_json(report, path)
        parsed = json.loads(path.read_text())
        assert list(parsed) == list(report)
        assert parsed["rms_tracking"] == report["rms_tracking"]
        validate_metrics(parsed)

    def test_unserializable_report(self, tmp_path):
        with pytest.raises(EmitError, match="serializable"):
            emit_json({"x": np.arange(3)}, tmp_path / "bad.json")


class TestSvg:
    def panel(self, n=50):
        t = np.linspace(0.0, 1.0, n)
        return Panel("demo <&>", [Series(t, np.sin(t), "sin"),
                                  Series(t, np.cos(t), "cos", dash=True)],
                     xlabel="t", ylabel="v")

    def test_valid_xml_with_polylines(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_svg([self.panel()], path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polys = root.findall(".//svg:polyline", ns)
        assert len(polys) == 2
        dashed = [p for p in polys if p.get("stroke-dasharray")]
        assert len(dashed) == 1

    def test_stacked_panels_extend_height(self, tmp_path):
        one, two = tmp_path / "one.svg", tmp_path / "two.svg"
        emit_svg([self.panel()], one, panel_height=200)
        emit_svg([self.panel(), self.panel()], two, panel_height=200)
        h1 = int(ET.parse(one).getroot().get("height"))
        h2 = int(ET.parse(two).getroot().get("height"))
        assert h2 == 2 * h1 == 400

    def test_long_series_decimated(self, tmp_path):
        t = np.linspace(0.0, 1.0, 100_000)
        panel = Panel("big", [Series(t, np.sin(40 * t), "s")])
        path = tmp_path / "big.svg"
        emit_svg([panel], path, max_points=500)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        poly = ET.parse(path).getroot().find(".//svg:polyline", ns)
        assert len(poly.get("points").split()) <= 500

    def test_flat_series_has_valid_bounds(self, tmp_path):
        t = np.linspace(0.0, 1.0, 10)
        emit_svg([Panel("flat", [Series(t, np.zeros(10), "z")])],
                 tmp_path / "f.svg")
        ET.parse(tmp_path / "f.svg")

    def test_no_panels_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], tmp_path / "x.svg")


class TestEscape:
    @pytest.mark.parametrize("text", [
        "", "plain", "a & b", "x < y > z", "<&>", "&amp; stays &amp;amp;",
        "&lt;b&gt;", "\"double\" and 'single'", "d1x_true > 0 & eps < 0.01",
    ])
    def test_matches_saxutils(self, text):
        assert _escape(text) == escape(text)


class TestImportFootprint:
    @staticmethod
    def loaded(modules, code):
        """Which of `modules` a fresh interpreter holds after running `code`."""
        code += f"; print(*[m for m in {modules!r} if m in sys.modules])"
        src = str(Path(hgdosim.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return proc.stdout.split()

    def test_import_loads_no_network_stack(self):
        # xml.sax.saxutils imports urllib.request, and with it http.client,
        # email and ssl: several MB of RSS in every run
        heavy = ("ssl", "http.client", "urllib.request", "email")
        assert self.loaded(heavy, "import sys, hgdosim") == []

    def test_load_and_validate_need_no_jsonschema(self):
        # jsonschema and its dependencies cost about 85 ms and 4.7 MB per process
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / "hover_step.json"
        code = ("import sys, dataclasses, hgdosim; "
                "from hgdosim.config import validate_metrics; "
                f"cfg = hgdosim.load_scenario({str(scenario)!r}); "
                "cfg = dataclasses.replace(cfg, duration=0.05); "
                "validate_metrics(hgdosim.metrics_report(hgdosim.run_scenario(cfg)))")
        heavy = ("jsonschema", "referencing", "rpds", "attrs")
        assert self.loaded(heavy, code) == []

    def test_import_loads_no_process_pools(self):
        # the CSV helper is a bare os.fork; these cost start-up time
        heavy = ("multiprocessing", "concurrent.futures", "subprocess")
        assert self.loaded(heavy, "import sys, hgdosim") == []


class TestPlotBuilders:
    def test_xy_layout(self, short_trace, tmp_path):
        panels = plot_xy(short_trace)
        assert len(panels) == 1
        assert [s.label for s in panels[0].series] == ["flown", "reference"]
        emit_svg(panels, tmp_path / "xy.svg")
        ET.parse(tmp_path / "xy.svg")

    def test_timeseries_layout(self, short_trace, tmp_path):
        panels = plot_timeseries(short_trace)
        assert [p.title for p in panels] == ["Position", "Position error",
                                             "Attitude"]
        assert len(panels[0].series) == 6
        emit_svg(panels, tmp_path / "ts.svg")
        ET.parse(tmp_path / "ts.svg")

    def test_estimates_layout(self, short_trace, tmp_path):
        panels = plot_estimates(short_trace)
        assert len(panels) == 2
        assert all(len(p.series) == 6 for p in panels)
        truth = [s for p in panels for s in p.series if s.dash]
        assert len(truth) == 6
        emit_svg(panels, tmp_path / "est.svg")
        ET.parse(tmp_path / "est.svg")
