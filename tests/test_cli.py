"""End-to-end command-line tests driving main() with temp files."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hgdosim.cli import main
from hgdosim.config import validate_metrics

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GROUND_EFFECT = SCENARIOS / "ground_effect.json"
BOUND_CHECK = SCENARIOS / "bound_check.json"


def write_cfg(tmp_path, name="s.json", **extra):
    doc = {"schema": "hgdosim-scenario-1", "name": "cli", "duration": 1.0,
           "outer_divisor": 1,
           "trajectory": {"kind": "hover", "target": [0.0, 0.0, 0.5]},
           "initial": {"position": [0.0, 0.0, 0.5]},
           "disturbances": [
               {"kind": "composite", "domain": "force", "axis": "x"}]}
    doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestSimulate:
    def test_writes_trace_and_metrics(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        report = json.loads((out / "metrics.json").read_text())
        validate_metrics(report)
        assert "rms tracking" in capsys.readouterr().out

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", str(cfg), "--out", str(b)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_diverged_exit_code_and_partial_trace(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, observer="none", duration=10.0,
                        disturbances=[{"kind": "constant", "domain": "force",
                                       "axis": "z", "value": 60.0}])
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert "diverged" in capsys.readouterr().err
        assert (out / "trace.csv").exists()
        trace_rows = (out / "trace.csv").read_text().count("\n") - 1
        assert 0 < trace_rows < 5001

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "hgdosim-scenario-1",
                                    "name": "x", "bogus": 1}))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 3


class TestSeedPrecedence:
    def seed_of(self, out):
        return json.loads((out / "metrics.json").read_text())["seed"]

    def test_config_seed_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HGDO_SEED", raising=False)
        cfg = write_cfg(tmp_path, seed=11)
        out = tmp_path / "o"
        main(["simulate", str(cfg), "--out", str(out)])
        assert self.seed_of(out) == 11

    def test_env_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HGDO_SEED", "5")
        cfg = write_cfg(tmp_path, seed=11)
        out = tmp_path / "o"
        main(["simulate", str(cfg), "--out", str(out)])
        assert self.seed_of(out) == 5

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HGDO_SEED", "5")
        cfg = write_cfg(tmp_path, seed=11)
        out = tmp_path / "o"
        main(["simulate", str(cfg), "--seed", "9", "--out", str(out)])
        assert self.seed_of(out) == 9

    def test_invalid_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HGDO_SEED", "lots")
        cfg = write_cfg(tmp_path)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "HGDO_SEED" in capsys.readouterr().err


class TestSweep:
    def test_table_and_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        code = main(["sweep", str(cfg), "--eps", "0.01,0.04", "--smc-only",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "sweep.json").read_text())
        validate_metrics(report)
        assert [v["label"] for v in report["variants"]] == [
            "eps=0.01", "eps=0.04", "smc-only"]
        stdout = capsys.readouterr().out
        assert "eps=0.01" in stdout and "psi" in stdout

    def test_bad_eps_values(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "o")
        assert main(["sweep", str(cfg), "--eps", "abc", "--out", out]) == 3
        assert main(["sweep", str(cfg), "--eps", "", "--out", out]) == 3
        assert main(["sweep", str(cfg), "--eps", "-0.01", "--out", out]) == 3

    @pytest.mark.parametrize("eps", ["0.01,nan", "inf", "0.01,-inf"])
    def test_non_finite_eps_is_config_error(self, tmp_path, capsys, eps):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        assert main(["sweep", str(cfg), "--eps", eps, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: --eps needs finite positive values")
        assert not out.exists()


class TestNonFiniteConfig:
    """JSON has no NaN or Infinity; Python's json module reads them unless told
    not to, and they would reach the engine as a crash or a silent run."""

    @pytest.mark.parametrize("field,literal", [
        ("epsilon1", "NaN"), ("duration", "Infinity"), ("epsilon2", "-Infinity"),
        ("dt", "1e999")])
    @pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
    def test_rejected_with_exit_3(self, tmp_path, capsys, field, literal, command):
        cfg = write_cfg(tmp_path, **{field: "@"})
        cfg.write_text(cfg.read_text().replace('"@"', literal))
        out = tmp_path / "o"
        argv = [command, str(cfg)] + ([str(cfg)] if command == "compare" else [])
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: non-finite number {literal} ")
        assert not out.exists()


class TestOutNamesAFile:
    @pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
    def test_emit_error_exit_1(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, duration=0.2)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        argv = [command, str(cfg)] + ([str(cfg)] if command == "compare" else [])
        assert main(argv + ["--eps", "0.04"] * (command == "sweep")
                    + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"emit error: {out}: ")
        assert out.read_text() == "not a directory"


class TestCompare:
    def test_reports_delta(self, tmp_path, capsys):
        a = write_cfg(tmp_path, "a.json")
        b = write_cfg(tmp_path, "b.json", observer="none")
        out = tmp_path / "o"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        validate_metrics(report)
        assert report["rms_tracking_delta"]["x"] > 0.0
        assert "b-a:" in capsys.readouterr().out


class TestCheckBounds:
    def test_exact_observer_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, duration=6.0)
        assert main(["check-bounds", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 6

    def test_lagged_observer_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, duration=6.0, observer="naive")
        assert main(["check-bounds", str(cfg)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_stochastic_scenario_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, seed=1, disturbances=[
            {"kind": "dryden", "domain": "force", "axis": "x"}])
        assert main(["check-bounds", str(cfg)]) == 3
        assert "deterministic" in capsys.readouterr().err

    def test_gain_warning_emitted(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, duration=2.0, epsilon1=10.0, epsilon2=10.0)
        assert main(["check-bounds", str(cfg)]) == 0
        assert "switching gain" in capsys.readouterr().err


class TestPositionDependentDisturbance:
    """The shipped ground-effect scenario has no pathwise derivative, so its
    reports carry no bound or gain check; no subcommand may crash on it."""

    def test_simulate_reports_null_checks(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", str(GROUND_EFFECT), "--out", str(out)]) == 0
        report = json.loads((out / "metrics.json").read_text())
        validate_metrics(report)
        assert report["bound_check"] is None
        assert report["gain_condition"] is None

    def test_check_bounds_is_config_error(self, capsys):
        assert main(["check-bounds", str(GROUND_EFFECT)]) == 3
        assert "GroundEffect" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"kind": "ground_effect", "domain": "torque", "axis": "z"},
         "$.disturbances[1].domain: 'force' was expected"),
        ({"kind": "constant", "domain": "force", "axis": "z", "value": 0.1},
         "a ground effect must be alone on its channel; force/z has 2"),
    ], ids=["torque", "shared-channel"])
    def test_ground_effect_only_alone_on_force_z(self, tmp_path, capsys, extra, message):
        doc = json.loads(GROUND_EFFECT.read_text())
        doc["disturbances"].append(extra)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err

    def test_compare(self, tmp_path):
        out = tmp_path / "o"
        assert main(["compare", str(GROUND_EFFECT), str(GROUND_EFFECT),
                     "--out", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        validate_metrics(report)
        assert report["a"]["gain_condition"] is None
        assert report["b"]["bound_check"] is None


    def test_sweep_reports_every_variant(self, tmp_path, capsys):
        # the ground-effect channel differs per variant by design; the sweep
        # compares the remaining channels and runs to the end
        doc = json.loads(GROUND_EFFECT.read_text())
        doc["duration"] = 1.0
        cfg = tmp_path / "ground_effect.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["sweep", str(cfg), "--eps", "0.01,0.04", "--smc-only",
                     "--out", str(out)]) == 0
        report = json.loads((out / "sweep.json").read_text())
        validate_metrics(report)
        assert [v["label"] for v in report["variants"]] == [
            "eps=0.01", "eps=0.04", "smc-only"]
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        rows = [line.split() for line in captured.out.splitlines()[1:7]]
        assert [len(r) for r in rows] == [4] * 6

    def test_sweep_across_substep_counts(self, tmp_path):
        # a deterministic scenario at 4, 14 and 7 substeps per base step: the
        # variants' gridded disturbance times differ in the last bit at many
        # base steps, and the sweep still reports every variant
        doc = json.loads(BOUND_CHECK.read_text())
        doc["duration"] = 1.0
        cfg = tmp_path / "bound_check.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["sweep", str(cfg), "--eps", "0.01,0.003,0.006", "--smc-only",
                     "--out", str(out)]) == 0
        report = json.loads((out / "sweep.json").read_text())
        validate_metrics(report)
        assert len(report["variants"]) == 4


class TestPlot:
    def make_trace(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        main(["simulate", str(cfg), "--out", str(out)])
        return out / "trace.csv"

    def test_kinds_render(self, tmp_path):
        trace = self.make_trace(tmp_path)
        for kind in ("xy", "timeseries", "estimates"):
            dest = tmp_path / f"{kind}.svg"
            assert main(["plot", str(trace), "--kind", kind,
                         "--out", str(dest)]) == 0
            ET.parse(dest)

    def test_default_output_path(self, tmp_path):
        trace = self.make_trace(tmp_path)
        assert main(["plot", str(trace), "--kind", "xy"]) == 0
        assert trace.with_suffix(".xy.svg").exists()

    def test_missing_trace(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "no.csv")]) == 1
        assert "emit error" in capsys.readouterr().err

    def test_truncated_trace(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        text = trace.read_bytes()
        trace.write_bytes(text[:text.rindex(b",")])   # writer killed mid-row
        assert main(["plot", str(trace), "--kind", "xy"]) == 1
        assert "emit error" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self, tmp_path):
        trace = self.make_trace(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["plot", str(trace), "--kind", "pie"])
        assert exc.value.code == 3


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "{bad}", "--out", "{out}"],
        ["sweep", "{bad}", "--out", "{out}"],
        ["compare", "{good}", "{bad}", "--out", "{out}"],
        ["check-bounds", "{bad}"],
    ], ids=lambda argv: argv[0])
    def test_unknown_gain_key_exits_3_from_every_loader(self, tmp_path, capsys, argv):
        paths = {"good": write_cfg(tmp_path, "good.json"),
                 "bad": write_cfg(tmp_path, "bad.json", gains={"kp": [1.0, 1.0, 1.0]}),
                 "out": tmp_path / "out"}
        assert main([arg.format(**paths) for arg in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "at $.gains: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


SCENARIO_DIR = GROUND_EFFECT.parent
# check-bounds needs deterministic, position-free disturbances: 3 otherwise
CHECK_BOUNDS_CODE = {"bound_check": 0, "dryden_lemniscate": 3, "ground_effect": 3,
                     "hover_step": 3, "lemniscate_composite": 0, "noise_study": 3}


def shortened(tmp_path, name, **extra):
    """A copy of a shipped scenario in tmp_path, cut to 0.5 s."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    doc.update({"duration": 0.5, **extra})
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


class TestExitCodeMatrix:
    """Every shipped scenario through every subcommand ends in its documented
    exit code, never in a traceback."""

    @pytest.mark.parametrize("name", sorted(CHECK_BOUNDS_CODE))
    def test_every_subcommand(self, tmp_path, capsys, name):
        cfg = str(shortened(tmp_path, name))
        out = str(tmp_path / "out")
        for argv, code in (
            (["simulate", cfg, "--out", out], 0),
            (["sweep", cfg, "--out", out], 0),
            (["compare", cfg, cfg, "--out", out], 0),
            (["check-bounds", cfg], CHECK_BOUNDS_CODE[name]),
            (["plot", str(tmp_path / "out" / "trace.csv")], 0),
        ):
            assert main(argv) == code, argv
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("skip", ["0.5", "100", "nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
    def test_skip_outside_the_run_is_config_error(self, tmp_path, capsys, command, skip):
        cfg = str(shortened(tmp_path, "bound_check"))
        out = tmp_path / "out"
        files = [cfg, cfg] if command == "compare" else [cfg]
        assert main([command, *files, f"--skip={skip}", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "--skip" in err and "Traceback" not in err
        assert not out.exists()    # refused before the run

    def test_skip_inside_the_run_is_accepted(self, tmp_path):
        cfg = str(shortened(tmp_path, "bound_check"))
        assert main(["simulate", cfg, "--skip", "0.5", "--out", str(tmp_path / "o")]) == 3
        assert main(["simulate", cfg, "--skip", "0.498", "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert report["skip"] == 0.498

    def test_run_diverged_before_skip(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, observer="none", duration=10.0,
                        disturbances=[{"kind": "constant", "domain": "force",
                                       "axis": "z", "value": 60.0}])
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--skip", "9", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "diverged" in err and "no metrics" in err
        assert (out / "trace.csv").exists() and not (out / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "compare", "check-bounds"])
    def test_huge_integer_is_config_error(self, tmp_path, capsys, command):
        path = shortened(tmp_path, "bound_check")
        path.write_text(path.read_text().replace('"duration": 0.5', '"duration": 1' + "0" * 400))
        files = [str(path), str(path)] if command == "compare" else [str(path)]
        out = [] if command == "check-bounds" else ["--out", str(tmp_path / "out")]
        assert main([command, *files, *out]) == 3
        err = capsys.readouterr().err
        assert "$.duration" in err and "too large" in err and "Traceback" not in err

    def test_integer_too_long_to_parse_is_config_error(self, tmp_path, capsys):
        path = shortened(tmp_path, "bound_check")
        path.write_text(path.read_text().replace('"duration": 0.5', '"duration": 1' + "0" * 5000))
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "too long" in capsys.readouterr().err

    def test_huge_integer_seed_runs(self, tmp_path):
        path = shortened(tmp_path, "noise_study", seed=10 ** 400, duration=0.05)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
