"""Metric and report tests, mostly on synthetic traces with known answers."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hgdosim import metrics
from hgdosim.config import load_scenario, validate_metrics
from hgdosim.cli import main
from hgdosim.disturbances import (
    CompositeSinusoid,
    Constant,
    DrydenGust,
    GroundEffect,
    Scaled,
    Signal,
    derivative_l1,
)
from hgdosim.emit import emit_csv, read_csv
from hgdosim.metrics import (
    BoundResult,
    EmptyTrace,
    StochasticDisturbance,
    bound_check,
    compare,
    estimate_error_variance,
    gain_condition,
    metrics_report,
    rms_errors,
    rms_estimation,
    saturation_counts,
    signal_deltas,
    sweep,
    total_variation,
)
from hgdosim.sim import TRACE_COLUMNS, ScenarioConfig, SimTrace, run_scenario
from hgdosim.trajectories import HoverRamp

HOLD = np.array([0.0, 0.0, 0.5])
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def make_trace(t, meta=None, **columns):
    """Synthetic trace: zeros everywhere except the named columns."""
    t = np.asarray(t, dtype=float)
    data = np.zeros((t.size, len(TRACE_COLUMNS)))
    data[:, 0] = t
    idx = {name: i for i, name in enumerate(TRACE_COLUMNS)}
    for name, vals in columns.items():
        data[:, idx[name]] = vals
    base_meta = {"epsilon1": 0.01, "epsilon2": 0.01}
    if meta:
        base_meta.update(meta)
    return SimTrace(data, base_meta)


def hold_cfg(**kw):
    base = dict(name="hold", duration=2.0, dt=0.002, outer_divisor=1,
                trajectory=HoverRamp(target=HOLD.copy()), pos0=HOLD.copy())
    base.update(kw)
    return ScenarioConfig(**base)


class TestRmsErrors:
    def test_constant_error(self):
        t = np.arange(100) * 0.01
        tr = make_trace(t, ex=0.1)
        out = rms_errors(tr)
        assert out["x"] == pytest.approx(0.1, rel=1e-12)
        assert out["y"] == 0.0

    def test_sine_over_whole_periods(self):
        t = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
        tr = make_trace(t, ey=np.sin(t))
        assert rms_errors(tr)["y"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_zero_trace(self):
        tr = make_trace(np.arange(10) * 0.1)
        assert all(v == 0.0 for v in rms_errors(tr).values())

    def test_empty_window_raises(self):
        tr = make_trace(np.arange(10) * 0.1)
        with pytest.raises(EmptyTrace):
            rms_errors(tr, skip=100.0)
        with pytest.raises(EmptyTrace):
            rms_errors(SimTrace(np.empty((0, len(TRACE_COLUMNS))), {}))

    def test_time_reversal_invariant(self):
        t = np.arange(50) * 0.1
        err = np.sin(t) + 0.3
        fwd = make_trace(t, ez=err)
        rev = make_trace(t, ez=err[::-1])
        assert rms_errors(fwd)["z"] == pytest.approx(rms_errors(rev)["z"], rel=1e-12)

    def test_linear_scaling(self):
        t = np.arange(50) * 0.1
        err = np.cos(t)
        one = rms_errors(make_trace(t, ex=err))["x"]
        three = rms_errors(make_trace(t, ex=3.0 * err))["x"]
        assert three == pytest.approx(3.0 * one, rel=1e-12)

    def test_skip_drops_transient(self):
        t = np.arange(100) * 0.1
        err = np.where(t < 5.0, 1.0, 0.0)
        tr = make_trace(t, ex=err)
        assert rms_errors(tr)["x"] > 0.5
        assert rms_errors(tr, skip=5.0)["x"] == 0.0


class TestEstimationStats:
    def test_rms_uses_true_minus_hat(self):
        t = np.arange(10) * 0.1
        tr = make_trace(t, d1x_true=0.5, d1x_hat=0.3)
        out = rms_estimation(tr)
        assert out["d1x"] == pytest.approx(0.2, rel=1e-12)
        assert out["d2z"] == 0.0

    def test_variance_ignores_constant_offset(self):
        t = np.arange(1000) * 0.01
        rng = np.random.default_rng(0)
        wob = rng.standard_normal(t.size)
        tr = make_trace(t, d1y_true=1.0, d1y_hat=0.7 + 0.1 * wob)
        var = estimate_error_variance(tr)["d1y"]
        assert var == pytest.approx(0.01 * wob.var(), rel=1e-12)


class TestTotalVariation:
    def test_monotone_ramp(self):
        assert total_variation([0.0, 1.0, 2.0, 3.0]) == pytest.approx(3.0)

    def test_sawtooth_accumulates(self):
        assert total_variation([0.0, 1.0, 0.0, 1.0]) == pytest.approx(3.0)

    def test_short_input(self):
        assert total_variation([2.5]) == 0.0


class TestBoundCheck:
    def test_constant_step_analytic(self):
        # err = e^{-t/eps}: integral over a long window is eps itself.
        eps = 0.01
        t = np.arange(0.0, 0.5, 2e-4)
        err = np.exp(-t / eps)
        tr = make_trace(t, d1x_true=1.0, d1x_hat=1.0 - err)
        results = bound_check(tr, deltas=np.zeros(6))
        by_name = {r.channel: r for r in results}
        assert by_name["d1x"].lhs == pytest.approx(eps, abs=1e-4)
        assert by_name["d1x"].rhs == pytest.approx(eps * 1.0 + 1e-3, rel=1e-12)
        assert all(r.passed for r in results)

    def test_zero_everything_passes(self):
        tr = make_trace(np.arange(10) * 0.1)
        assert all(r.passed and r.lhs == 0.0 for r in bound_check(tr, deltas=np.zeros(6)))

    def test_real_run_with_oracle_deltas(self):
        cfg = hold_cfg(force_signals=(Constant(0.4), None, None),
                       torque_signals=(None, Constant(1.5), None))
        results = bound_check(run_scenario(cfg))
        assert len(results) == 6
        assert all(isinstance(r, BoundResult) and r.passed for r in results)

    def test_stochastic_signal_rejected(self):
        cfg = hold_cfg(force_signals=(DrydenGust("u"), None, None))
        with pytest.raises(StochasticDisturbance):
            bound_check(run_scenario(cfg))
        with pytest.raises(StochasticDisturbance):
            signal_deltas(cfg)

    def test_measurement_noise_rejected(self):
        cfg = hold_cfg(noise_power=0.01, outer_divisor=5)
        with pytest.raises(StochasticDisturbance):
            bound_check(run_scenario(cfg))

    def test_bad_deltas_shape(self):
        tr = make_trace(np.arange(10) * 0.1)
        with pytest.raises(ValueError):
            bound_check(tr, deltas=np.zeros(3))


class TestGainCondition:
    def test_constant_disturbance_passes_table_gains(self):
        cfg = hold_cfg(force_signals=(Constant(0.5), None, None))
        report = gain_condition(cfg, run_scenario(cfg))
        assert report["channels"] == ["x", "y", "z", "phi", "theta", "psi"]
        assert all(report["ok"])

    def test_thresholds_scale_with_epsilon(self):
        cfg_small = hold_cfg(force_signals=(CompositeSinusoid(), None, None))
        cfg_large = dataclasses.replace(cfg_small, epsilon1=0.08, epsilon2=0.08)
        th_small = gain_condition(cfg_small)["threshold"]
        th_large = gain_condition(cfg_large)["threshold"]
        assert th_large[0] == pytest.approx(8.0 * th_small[0], rel=1e-9)


class TestMetricsReport:
    def test_keys_and_json_round_trip(self):
        cfg = hold_cfg(force_signals=(Constant(0.3), None, None))
        report = metrics_report(run_scenario(cfg), skip=0.5)
        expected = {"schema", "scenario", "observer", "epsilon1", "epsilon2",
                    "seed", "duration", "dt", "skip", "samples", "rms_tracking",
                    "rms_estimation", "estimate_error_variance",
                    "saturation_counts", "total_variation_u1", "runtime",
                    "bound_check", "gain_condition"}
        assert set(report) == expected
        assert report["schema"] == "hgdosim-metrics-1"
        assert report["bound_check"] is not None
        parsed = json.loads(json.dumps(report))
        assert parsed["rms_tracking"]["x"] == report["rms_tracking"]["x"]

    def test_runtime_carries_work_counters(self):
        cfg = hold_cfg(duration=0.5, force_signals=(Constant(0.3), None, None))
        trace = run_scenario(cfg)
        report = metrics_report(trace)
        validate_metrics(json.loads(json.dumps(report)))
        counters = report["runtime"]["counters"]
        assert counters == trace.meta["counters"]
        assert set(counters) == {"base_steps", "rk4_substeps", "rhs_calls",
                                 "outer_ticks", "pregrid_rows"}
        assert counters["base_steps"] == report["runtime"]["steps"] == 250

    def test_report_without_counters_validates(self, tmp_path):
        # a trace read back from CSV has no counters (nor the run settings,
        # which the schema requires, so those are put back by hand)
        cfg = hold_cfg(duration=0.5, force_signals=(Constant(0.3), None, None))
        trace = run_scenario(cfg)
        emit_csv(trace, tmp_path / "trace.csv")
        back = read_csv(tmp_path / "trace.csv")
        assert "counters" not in back.meta
        settings = {k: v for k, v in trace.meta.items() if k != "counters"}
        report = metrics_report(SimTrace(back.data, {**back.meta, **settings}))
        assert "counters" not in report["runtime"]
        validate_metrics(json.loads(json.dumps(report)))

    def test_deltas_computed_once_for_both_checks(self, monkeypatch):
        cfg = hold_cfg(force_signals=(CompositeSinusoid(), None, None))
        trace = run_scenario(cfg)
        expected_bound = bound_check(trace)
        expected_gain = gain_condition(cfg, trace)
        calls = []

        def counting(c):
            calls.append(c)
            return signal_deltas(c)

        monkeypatch.setattr(metrics, "signal_deltas", counting)
        report = metrics_report(trace)
        assert calls == [cfg]
        assert report["bound_check"] == [r._asdict() for r in expected_bound]
        assert report["gain_condition"] == expected_gain

    def test_noisy_run_omits_bound(self):
        cfg = hold_cfg(noise_power=0.001, outer_divisor=5, seed=2)
        report = metrics_report(run_scenario(cfg))
        assert report["bound_check"] is None
        assert report["gain_condition"] is None

    def test_saturation_counts_pick_up_floor(self):
        cfg = hold_cfg(duration=3.0, force_signals=(None, None, Constant(14.0)))
        counts = saturation_counts(run_scenario(cfg))
        assert counts["uz_floor"] > 0
        assert set(counts) == {"outer_clamp", "uz_floor", "torque_clamp",
                               "rotor_sat", "pitch_clamp"}


class ValueOnly(Signal):
    """A library-defined pure-time signal with no `derivative`."""

    def value(self, t, pos=None):
        return 0.1 * t


class Opaque(Signal):
    """Delegates to a signal but compares by identity, so no two channels
    holding one share an evaluation."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, t, pos=None):
        return self.inner.value(t, pos)


@pytest.fixture
def outermost(monkeypatch):
    """spy(method) records the signal of every outermost call of `method` on
    the classes of the composite scenario's signals."""
    def spy(method):
        calls, depth = [], [0]
        for cls in (Scaled, CompositeSinusoid):
            def wrapper(self, *args, _orig=getattr(cls, method), **kwargs):
                if not depth[0]:
                    calls.append(self)
                depth[0] += 1
                try:
                    return _orig(self, *args, **kwargs)
                finally:
                    depth[0] -= 1
            monkeypatch.setattr(cls, method, wrapper)
        return calls
    return spy


class TestDistinctSignals:
    """lemniscate_composite holds two distinct signals over six channels."""

    DISTINCT = [Scaled(CompositeSinusoid(), 1.5), CompositeSinusoid()]

    def cfg(self):
        return dataclasses.replace(
            load_scenario(SCENARIO_DIR / "lemniscate_composite.json"), duration=0.5)

    def test_signal_deltas_once_per_distinct_signal(self, outermost):
        cfg = self.cfg()
        calls = outermost("derivative")
        deltas = signal_deltas(cfg)
        assert calls == self.DISTINCT
        signals = cfg.force_signals + cfg.torque_signals
        assert deltas.tolist() == [derivative_l1(s, 0.0, 0.5) for s in signals]

    def test_pregrid_once_per_distinct_signal(self, outermost):
        cfg = self.cfg()
        calls = outermost("value")
        trace = run_scenario(cfg)
        assert calls == self.DISTINCT
        separate = run_scenario(dataclasses.replace(
            cfg, force_signals=tuple(map(Opaque, cfg.force_signals)),
            torque_signals=tuple(map(Opaque, cfg.torque_signals))))
        assert trace.data.tobytes() == separate.data.tobytes()

    def test_signal_without_derivative_gets_no_checks(self, tmp_path, monkeypatch, capsys):
        cfg = hold_cfg(duration=0.2, force_signals=(ValueOnly(), None, None))
        report = metrics_report(run_scenario(cfg))
        assert report["bound_check"] is None and report["gain_condition"] is None
        validate_metrics(json.loads(json.dumps(report)))
        monkeypatch.setattr("hgdosim.cli.load_scenario", lambda path: cfg)
        assert main(["check-bounds", str(tmp_path / "unused.json")]) == 3
        assert "ValueOnly" in capsys.readouterr().err


class TestSweep:
    def base(self):
        return hold_cfg(name="sweepbase",
                        force_signals=(CompositeSinusoid(), None, None))

    def test_single_variant_matches_direct_run(self):
        base = self.base()
        out = sweep(base, [0.01], include_smc_only=False)
        assert [v["label"] for v in out["variants"]] == ["eps=0.01"]
        direct = run_scenario(dataclasses.replace(
            base, name="x", epsilon1=0.01, epsilon2=0.01))
        assert out["variants"][0]["rms_tracking"] == rms_errors(direct)

    def test_table_shape_and_baseline(self):
        out = sweep(self.base(), [0.01, 0.08], include_smc_only=True)
        labels = [v["label"] for v in out["variants"]]
        assert labels == ["eps=0.01", "eps=0.08", "smc-only"]
        assert set(out["table"]) == {"x", "y", "z", "phi", "theta", "psi"}
        for row in out["table"].values():
            assert set(row) == set(labels)
        assert out["variants"][2]["observer"] == "none"

    def test_shared_realization_with_stochastic_signal(self):
        base = hold_cfg(name="gusty", seed=5,
                        force_signals=(DrydenGust("u"), None, None))
        out = sweep(base, [0.01, 0.04], include_smc_only=False)
        assert len(out["variants"]) == 2

    def test_position_dependent_channel_is_not_compared(self):
        low = np.array([0.0, 0.0, 0.2])   # inside the ground-effect band
        base = hold_cfg(name="ground", duration=0.5, trajectory=HoverRamp(target=low),
                        pos0=low, force_signals=(None, None, GroundEffect()))
        out = sweep(base, [0.01, 0.04], include_smc_only=True)
        assert len(out["variants"]) == 3

    def test_every_variant_sees_one_realization(self, monkeypatch):
        # 1, 3 and 14 substeps and no observer: the recorded stochastic
        # disturbance is the same bits in every variant
        base = dataclasses.replace(
            load_scenario(SCENARIO_DIR / "dryden_lemniscate.json"), duration=1.0)
        d_true = []

        def recording(cfg):
            trace = run_scenario(cfg)
            d_true.append(trace.cols("d1x_true", "d1y_true", "d1z_true").tobytes())
            return trace

        monkeypatch.setattr(metrics, "run_scenario", recording)
        out = sweep(base, [0.08, 0.015, 0.003], include_smc_only=True)
        assert [v["label"] for v in out["variants"]] == [
            "eps=0.08", "eps=0.015", "eps=0.003", "smc-only"]
        assert len(d_true) == 4 and len(set(d_true)) == 1

    def test_holds_one_trace_at_a_time(self):
        # A variant's trace is freed before the next variant runs. Past the
        # trace that the peak run builds, the peak here is about 0.56 of a
        # trace; keeping the previous variant's trace alive puts it near 1.3.
        base = dataclasses.replace(
            load_scenario(SCENARIO_DIR / "dryden_lemniscate.json"), duration=2.0)
        trace_bytes = run_scenario(base).data.nbytes
        tracemalloc.start()
        try:
            out = sweep(base, [0.04, 0.08], include_smc_only=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out["variants"]) == 3
        assert (peak - trace_bytes) / trace_bytes < 0.75, peak / trace_bytes


class TestCompare:
    def test_delta_is_b_minus_a(self):
        a = hold_cfg(name="a", force_signals=(CompositeSinusoid(), None, None))
        b = dataclasses.replace(a, name="b", observer="none")
        out = compare(a, b)
        for ch in ("x", "y", "z"):
            expected = out["b"]["rms_tracking"][ch] - out["a"]["rms_tracking"][ch]
            assert out["rms_tracking_delta"][ch] == pytest.approx(expected)
        assert out["rms_tracking_delta"]["x"] > 0.0
