"""Emitter tests: CSV round trips, JSON reports, SVG rendering."""

import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest

import hgdosim
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
