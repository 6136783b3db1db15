"""Scenario-file validation and construction."""

import json

import numpy as np
import pytest

from hgdosim.config import (
    ConfigError,
    _check_schema,
    build_scenario,
    load_scenario,
    metrics_schema,
    parse_scenario,
    scenario_schema,
    validate_metrics,
    validate_scenario,
)
from hgdosim.disturbances import (
    CompositeSinusoid,
    Constant,
    DrydenGust,
    GroundEffect,
    Scaled,
    Sum,
    WhiteNoise,
    Zero,
)
from hgdosim.trajectories import HoverRamp, Lemniscate


def minimal(**extra):
    doc = {"schema": "hgdosim-scenario-1", "name": "t"}
    doc.update(extra)
    return doc


class TestValidation:
    def test_minimal_document_passes(self):
        validate_scenario(minimal())

    def test_missing_schema_field(self):
        with pytest.raises(ConfigError, match="schema"):
            validate_scenario({"name": "t"})

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError):
            validate_scenario({"schema": "hgdosim-scenario-9", "name": "t"})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unexpected"):
            validate_scenario(minimal(unexpected=1))

    def test_unknown_gain_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"\$\.gains"):
            validate_scenario(minimal(gains={"kp": [1, 1, 1]}))

    def test_bad_observer(self):
        with pytest.raises(ConfigError, match="observer"):
            validate_scenario(minimal(observer="kalman"))

    def test_negative_duration(self):
        with pytest.raises(ConfigError):
            validate_scenario(minimal(duration=-2.0))

    def test_bad_disturbance_entry(self):
        with pytest.raises(ConfigError):
            validate_scenario(minimal(disturbances=[
                {"kind": "constant", "domain": "force", "axis": "x"}]))

    def test_schema_dicts_are_loadable(self):
        assert scenario_schema()["$id"] == "hgdosim-scenario-1"
        assert metrics_schema()["$id"] == "hgdosim-metrics-1"

    @pytest.mark.parametrize("schema", [
        {"type": "string", "pattern": "^a"},
        {"properties": {"a": {"items": {"format": "date"}}}},
        {"oneOf": [{"$ref": "other.json#/$defs/x"}]},
        {"$ref": "#/definitions/x", "definitions": {"x": {}}},
        {"$ref": "#/$defs/missing", "$defs": {}},
        {"properties": {"a": {"$defs": {"x": {}}}}},
        {"type": "decimal"},
        {"const": 1},
        {"additionalProperties": True},
    ])
    def test_unsupported_schema_is_refused(self, schema):
        # a later schema edit must fail loudly, not be skipped by the validator
        with pytest.raises(ValueError, match="at #"):
            _check_schema(schema)

    def test_shipped_schemas_use_only_supported_keywords(self):
        _check_schema(scenario_schema())
        _check_schema(metrics_schema())


class TestBuild:
    def test_defaults(self):
        cfg = parse_scenario(minimal())
        assert cfg.name == "t"
        assert cfg.duration == 10.0
        assert cfg.dt == 0.002
        assert cfg.observer == "hgdo"
        assert isinstance(cfg.trajectory, HoverRamp)
        assert all(isinstance(s, Zero) for s in cfg.force_signals)
        assert cfg.vehicle is None and cfg.gains is None

    def test_lemniscate_trajectory(self):
        cfg = parse_scenario(minimal(trajectory={
            "kind": "lemniscate", "amplitude": 0.7, "period": 20.0,
            "height": 1.0, "yaw": 0.3}))
        tr = cfg.trajectory
        assert isinstance(tr, Lemniscate)
        assert (tr.amplitude, tr.period, tr.height, tr.yaw_angle) == (0.7, 20.0, 1.0, 0.3)

    def test_disturbance_slots(self):
        cfg = parse_scenario(minimal(seed=1, disturbances=[
            {"kind": "constant", "domain": "force", "axis": "x", "value": 0.4},
            {"kind": "composite", "domain": "force", "axis": "y", "scale": 2.0},
            {"kind": "ground_effect", "domain": "force", "axis": "z",
             "strength": 0.2, "z_ref": 0.4},
            {"kind": "dryden", "domain": "torque", "axis": "y", "accel_gain": 1.5},
            {"kind": "white_noise", "domain": "torque", "axis": "z",
             "power": 0.02, "seed": 9},
        ]))
        fx, fy, fz = cfg.force_signals
        assert isinstance(fx, Constant) and fx.value(0.0) == 0.4
        assert isinstance(fy, Scaled) and isinstance(fy.inner, CompositeSinusoid)
        assert isinstance(fz, GroundEffect) and fz.z_ref == 0.4
        tx, ty, tz = cfg.torque_signals
        assert isinstance(tx, Zero)
        assert isinstance(ty, DrydenGust) and ty.accel_gain == 1.5
        assert isinstance(tz, WhiteNoise) and tz.seed == 9

    def test_same_slot_deterministic_signals_sum(self):
        cfg = parse_scenario(minimal(disturbances=[
            {"kind": "constant", "domain": "force", "axis": "x", "value": 0.1},
            {"kind": "composite", "domain": "force", "axis": "x"},
        ]))
        sig = cfg.force_signals[0]
        assert isinstance(sig, Sum)
        assert sig.value(0.0) == pytest.approx(
            0.1 + CompositeSinusoid().value(0.0))

    def test_stochastic_cannot_share_a_slot(self):
        with pytest.raises(ConfigError, match="stochastic"):
            parse_scenario(minimal(seed=1, disturbances=[
                {"kind": "white_noise", "domain": "force", "axis": "x", "power": 0.1},
                {"kind": "constant", "domain": "force", "axis": "x", "value": 0.1},
            ]))

    def test_seed_required_with_stochastic_elements(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario(minimal(disturbances=[
                {"kind": "dryden", "domain": "force", "axis": "x"}]))
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario(minimal(noise_power=0.01))
        parse_scenario(minimal(seed=3, noise_power=0.01))

    def test_initial_state_and_scalars(self):
        cfg = parse_scenario(minimal(
            duration=4.0, dt=0.001, outer_divisor=2, epsilon1=0.04,
            epsilon2=0.08, observer="naive", plant="full", allocate=False,
            substeps=3,
            initial={"position": [1, 2, 3], "velocity": [0.1, 0, 0]}))
        assert cfg.duration == 4.0 and cfg.dt == 0.001
        assert cfg.outer_divisor == 2
        assert (cfg.epsilon1, cfg.epsilon2) == (0.04, 0.08)
        assert cfg.observer == "naive" and cfg.plant == "full"
        assert cfg.allocate is False and cfg.substeps == 3
        assert np.array_equal(cfg.pos0, [1.0, 2.0, 3.0])
        assert np.array_equal(cfg.vel0, [0.1, 0.0, 0.0])
        assert np.array_equal(cfg.att0, [0.0, 0.0, 0.0])

    def test_vehicle_and_gains_overrides(self):
        cfg = parse_scenario(minimal(
            vehicle={"m": 0.05, "arm": 0.1},
            gains={"lambda1": [1, 1, 1], "mu": 0.1, "u1_max": None,
                   "tau_max": [0.1, 0.1, 0.05]}))
        assert cfg.vehicle.m == 0.05 and cfg.vehicle.arm == 0.1
        assert cfg.vehicle.g == 9.81
        assert np.array_equal(cfg.gains.lam1, [1.0, 1.0, 1.0])
        assert cfg.gains.mu == 0.1
        assert cfg.gains.u1_max is None
        assert np.array_equal(cfg.gains.tau_max, [0.1, 0.1, 0.05])

    def test_build_wraps_engine_level_error(self):
        # build_scenario alone (no schema pass) still fails as ConfigError
        with pytest.raises(ConfigError, match="observer"):
            build_scenario(minimal(observer="bogus"))


class TestLoad:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal(duration=1.5)))
        cfg = load_scenario(path)
        assert cfg.duration == 1.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.json"):
            load_scenario(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_scenario(path)

    def test_error_carries_file_path(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal(observer="bogus")))
        with pytest.raises(ConfigError, match="s.json"):
            load_scenario(path)


class TestMetricsSchema:
    def test_run_report_validates(self):
        from hgdosim.metrics import metrics_report
        from hgdosim.sim import run_scenario
        cfg = parse_scenario(minimal(duration=1.0, disturbances=[
            {"kind": "constant", "domain": "force", "axis": "x", "value": 0.3}]))
        validate_metrics(metrics_report(run_scenario(cfg)))

    def test_sweep_report_validates(self):
        from hgdosim.metrics import sweep
        cfg = parse_scenario(minimal(duration=1.0))
        validate_metrics(sweep(cfg, [0.01], include_smc_only=True))

    def test_compare_report_validates(self):
        from hgdosim.metrics import compare
        a = parse_scenario(minimal(duration=1.0))
        b = parse_scenario(minimal(duration=1.0, observer="none"))
        validate_metrics(compare(a, b))

    def test_tampered_report_fails(self):
        from hgdosim.metrics import metrics_report
        from hgdosim.sim import run_scenario
        cfg = parse_scenario(minimal(duration=1.0))
        report = metrics_report(run_scenario(cfg))
        report["rms_tracking"]["x"] = "fast"
        with pytest.raises(ConfigError):
            validate_metrics(report)
