"""Run metrics: RMS tables, estimation-bound checks, sweeps and comparisons.

Everything here consumes a finished SimTrace and produces plain dicts with
stable key names, so reports serialize to JSON without translation. The
epsilon sweep mirrors the usual benchmark table: tracking channels as rows,
one column per observer variant, all variants fed the same disturbance
realization.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Sequence

import numpy as np

from .control import DEFAULT_GAINS, gain_check
from .disturbances import NonDifferentiable, derivative_l1
from .sim import ScenarioConfig, SimTrace, run_scenario

TRACK_CHANNELS = ("x", "y", "z", "phi", "theta", "psi")
_TRACK_COLS = ("ex", "ey", "ez", "ephi", "etheta", "epsi")
EST_CHANNELS = ("d1x", "d1y", "d1z", "d2x", "d2y", "d2z")

_FLAG_NAMES = (
    ("outer_clamp", 1),
    ("uz_floor", 2),
    ("torque_clamp", 4),
    ("rotor_sat", 8),
    ("pitch_clamp", 16),
)


class EmptyTrace(ValueError):
    """The trace has no samples in the requested window."""


class StochasticDisturbance(ValueError):
    """The estimation bound needs deterministic disturbances and no noise."""


class BoundResult(NamedTuple):
    channel: str
    lhs: float
    rhs: float
    passed: bool


def _window(trace: SimTrace, skip: float) -> np.ndarray:
    if len(trace) == 0:
        raise EmptyTrace("trace has no rows")
    mask = trace.t >= skip
    if not mask.any():
        raise EmptyTrace(f"no samples at or after t = {skip}")
    return mask


def _rms(block: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(block * block, axis=0))


def rms_errors(trace: SimTrace, skip: float = 0.0) -> dict:
    """Per-channel RMS tracking error over [skip, end]."""
    mask = _window(trace, skip)
    vals = _rms(trace.cols(*_TRACK_COLS)[mask])
    return dict(zip(TRACK_CHANNELS, vals.tolist()))


def estimation_errors(trace: SimTrace) -> np.ndarray:
    """(n, 6) array of d_true - d_hat over both observer loops."""
    true = trace.cols("d1x_true", "d1y_true", "d1z_true",
                      "d2x_true", "d2y_true", "d2z_true")
    hat = trace.cols("d1x_hat", "d1y_hat", "d1z_hat",
                     "d2x_hat", "d2y_hat", "d2z_hat")
    return true - hat


def rms_estimation(trace: SimTrace, skip: float = 0.0) -> dict:
    """Per-channel RMS disturbance-estimation error over [skip, end]."""
    mask = _window(trace, skip)
    vals = _rms(estimation_errors(trace)[mask])
    return dict(zip(EST_CHANNELS, vals.tolist()))


def estimate_error_variance(trace: SimTrace, skip: float = 0.0) -> dict:
    """Per-channel variance of the estimation error over [skip, end].

    Both observers see the same true-disturbance realization under a shared
    seed, so comparing error variances ranks estimator noise without the
    disturbance's own power entering the comparison.
    """
    mask = _window(trace, skip)
    vals = np.var(estimation_errors(trace)[mask], axis=0)
    return dict(zip(EST_CHANNELS, vals.tolist()))


def total_variation(x: Sequence[float]) -> float:
    """Sum of absolute sample-to-sample changes."""
    arr = np.asarray(x, dtype=float)
    if arr.size < 2:
        return 0.0
    return float(np.abs(np.diff(arr)).sum())


def saturation_counts(trace: SimTrace) -> dict:
    flags = trace.col("sat_flags").astype(int)
    return {name: int(np.count_nonzero(flags & bit)) for name, bit in _FLAG_NAMES}


def _stochastic_guard(cfg: ScenarioConfig | None):
    if cfg is None:
        return
    signals = tuple(cfg.force_signals) + tuple(cfg.torque_signals)
    if any(s.stochastic for s in signals):
        raise StochasticDisturbance(
            "estimation bound holds only for deterministic disturbances")
    if cfg.noise_power > 0.0:
        raise StochasticDisturbance(
            "measurement noise breaks the exact estimation-error dynamics")


def signal_deltas(cfg: ScenarioConfig) -> np.ndarray:
    """L1 norm of each disturbance channel's derivative over the run (the
    paper's delta), from `derivative_l1` on the signal's analytic derivative.

    Channels with equal signals share one evaluation. A stochastic or noisy
    config raises StochasticDisturbance; a signal without a pathwise
    derivative raises NonDifferentiable.
    """
    _stochastic_guard(cfg)
    signals = tuple(cfg.force_signals) + tuple(cfg.torque_signals)
    out = np.empty(len(signals))
    for j, sig in enumerate(signals):
        first = signals.index(sig)
        out[j] = derivative_l1(sig, 0.0, cfg.duration) if first == j else out[first]
    return out


def bound_check(trace: SimTrace, epsilon: float | None = None,
                deltas: Sequence[float] | None = None) -> list[BoundResult]:
    """Integral estimation-error bound per channel.

    lhs = trapezoidal integral of |d_true - d_hat|;
    rhs = eps * |error(0)| + eps * delta + 1e-3 slack.
    epsilon defaults to the per-loop values recorded in the trace; deltas
    default to the derivative-L1 oracle applied to the configured signals.
    """
    _stochastic_guard(trace.config)
    if len(trace) < 2:
        raise EmptyTrace("bound needs at least two samples")
    if deltas is None:
        if trace.config is None:
            raise ValueError("deltas are required when the trace has no config")
        deltas = signal_deltas(trace.config)
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (6,):
        raise ValueError("need one delta per estimation channel")
    eps = np.empty(6)
    eps[:3] = trace.meta["epsilon1"] if epsilon is None else epsilon
    eps[3:] = trace.meta["epsilon2"] if epsilon is None else epsilon

    err = np.abs(estimation_errors(trace))
    out = []
    for j, name in enumerate(EST_CHANNELS):
        lhs = float(np.trapezoid(err[:, j], trace.t))
        rhs = float(eps[j] * err[0, j] + eps[j] * deltas[j] + 1e-3)
        out.append(BoundResult(name, lhs, rhs, lhs <= rhs))
    return out


def gain_condition(cfg: ScenarioConfig, trace: SimTrace | None = None,
                   deltas: Sequence[float] | None = None) -> dict:
    """Switching-gain condition report against the derivative-L1 deltas.

    Returns per-channel pass flags and thresholds; intended as a pre-run
    warning, so violations never raise. deltas default to the derivative-L1
    oracle applied to the configured signals.
    """
    if deltas is None:
        deltas = signal_deltas(cfg)
    if trace is not None and len(trace):
        d0 = np.abs(estimation_errors(trace)[0])
    else:
        d0 = np.zeros(6)
    gains = cfg.gains or DEFAULT_GAINS
    ok, threshold = gain_check(gains, cfg.epsilon1, cfg.epsilon2, d0, deltas)
    return {
        "channels": list(TRACK_CHANNELS),
        "ok": [bool(v) for v in ok],
        "threshold": threshold.tolist(),
        "gain": np.concatenate([gains.k1, gains.k2]).tolist(),
    }


def metrics_report(trace: SimTrace, skip: float = 0.0) -> dict:
    """Full per-run metrics document (stable keys, JSON-ready)."""
    report = {
        "schema": "hgdosim-metrics-1",
        "scenario": trace.meta.get("name", ""),
        "observer": trace.meta.get("observer", ""),
        "epsilon1": trace.meta.get("epsilon1"),
        "epsilon2": trace.meta.get("epsilon2"),
        "seed": trace.meta.get("seed"),
        "duration": trace.meta.get("duration"),
        "dt": trace.meta.get("dt"),
        "skip": skip,
        "samples": len(trace),
        "rms_tracking": rms_errors(trace, skip),
        "rms_estimation": rms_estimation(trace, skip),
        "estimate_error_variance": estimate_error_variance(trace, skip),
        "saturation_counts": saturation_counts(trace),
        "total_variation_u1": total_variation(trace.col("thrust")),
        "runtime": {
            "wall_time": trace.meta.get("wall_time"),
            "steps": max(len(trace) - 1, 0),
        },
    }
    if "counters" in trace.meta:     # a trace read back from CSV has none
        report["runtime"]["counters"] = dict(trace.meta["counters"])
    # One derivative-L1 evaluation feeds both checks; signals without a
    # pathwise derivative (stochastic, noisy or the ground effect) get neither.
    deltas = None
    if trace.config is not None:
        try:
            deltas = signal_deltas(trace.config)
        except (StochasticDisturbance, NonDifferentiable):
            pass
    report["bound_check"] = None
    report["gain_condition"] = None
    if deltas is not None:
        try:
            report["bound_check"] = [
                {"channel": r.channel, "lhs": r.lhs, "rhs": r.rhs, "passed": r.passed}
                for r in bound_check(trace, deltas=deltas)
            ]
        except EmptyTrace:
            pass
        report["gain_condition"] = gain_condition(trace.config, trace, deltas)
    return report


def _variant_cfg(base: ScenarioConfig, label: str, observer: str,
                 eps: float | None) -> ScenarioConfig:
    fields = {"name": f"{base.name}[{label}]", "observer": observer}
    if eps is not None:
        fields["epsilon1"] = eps
        fields["epsilon2"] = eps
    return dataclasses.replace(base, **fields)


def _sweep_variant(cfg: ScenarioConfig, skip: float) -> dict:
    """Run one sweep variant and return its row.

    The trace lives only inside this call, so it is freed before the next
    variant runs.
    """
    trace = run_scenario(cfg)
    return {
        "rms_tracking": rms_errors(trace, skip),
        "rms_estimation": rms_estimation(trace, skip),
        "wall_time": trace.meta.get("wall_time"),
    }


def sweep(base: ScenarioConfig, epsilons: Sequence[float],
          include_smc_only: bool = True, skip: float = 0.0) -> dict:
    """Run the observer-gain sweep plus an optional no-observer baseline.

    All variants share the scenario seed, and each run draws its stochastic
    disturbances before its first step, from the seed and the run's dt
    alone, so every variant sees the same realization. Only the ground
    effect, a plant term on force z at the vehicle's height, differs
    between variants, by design, because each flies its own path.

    The variants run one after another and a sweep holds one trace at a
    time: each is dropped once its row is taken.
    """
    variants = [(f"eps={e:g}", base.observer if base.observer != "none" else "hgdo", e)
                for e in epsilons]
    if include_smc_only:
        variants.append(("smc-only", "none", None))
    rows = [{"label": label, "observer": observer, "epsilon": eps,
             **_sweep_variant(_variant_cfg(base, label, observer, eps), skip)}
            for label, observer, eps in variants]

    table = {
        ch: {row["label"]: row["rms_tracking"][ch] for row in rows}
        for ch in TRACK_CHANNELS
    }
    return {
        "schema": "hgdosim-metrics-1",
        "kind": "sweep",
        "scenario": base.name,
        "seed": base.seed,
        "skip": skip,
        "variants": rows,
        "table": table,
    }


def compare(cfg_a: ScenarioConfig, cfg_b: ScenarioConfig, skip: float = 0.0) -> dict:
    """Run two scenarios and report both metric sets plus RMS deltas (b - a)."""
    rep_a = metrics_report(run_scenario(cfg_a), skip)
    rep_b = metrics_report(run_scenario(cfg_b), skip)
    delta = {
        ch: rep_b["rms_tracking"][ch] - rep_a["rms_tracking"][ch]
        for ch in TRACK_CHANNELS
    }
    return {
        "schema": "hgdosim-metrics-1",
        "kind": "compare",
        "a": rep_a,
        "b": rep_b,
        "rms_tracking_delta": delta,
    }
