"""Where the traced run puts its spans, and how spans become layer metrics.

Names are wrapped where the engine looks them up: the functions hgdosim.sim
imported into its own namespace (outer_loop, allocate_rotors, ...), the
module-level entry points of config, metrics and emit, and the methods the
engine calls on objects (DerivativeFilter.step, Trajectory.position,
Signal.value, Signal.advance). Disturbance spans are outermost-only, so a
Scaled or Sum signal is counted once, not once per part.
"""

from __future__ import annotations

from pathlib import Path

# per-layer metric -> unit; BENCHMARK.json lists the same names
UNITS = {
    "config.load_s": "s", "config.loads": "count",
    "sim.run_s": "s", "sim.self_s": "s", "sim.base_steps": "count",
    "sim.rk4_substeps": "count", "sim.us_per_substep": "us",
    "sim.pregrid_rows": "count",
    "control.outer_loop_s": "s", "control.extract_attitude_s": "s",
    "control.inner_loop_s": "s", "control.ticks": "count",
    "observers.derivative_filter_s": "s", "observers.derivative_filter_calls": "count",
    "observers.naive_step_s": "s", "observers.naive_steps": "count",
    "quad.allocate_s": "s", "quad.rotor_wrench_s": "s", "quad.allocations": "count",
    "trajectories.position_s": "s", "trajectories.calls": "count",
    "disturbances.value_s": "s", "disturbances.value_calls": "count",
    "disturbances.advance_s": "s", "disturbances.advance_calls": "count",
    "metrics.report_s": "s", "metrics.signal_deltas_s": "s",
    "metrics.signal_deltas_calls": "count", "metrics.signal_deltas_useful_ratio": "ratio",
    "emit.csv_write_s": "s", "emit.csv_bytes": "bytes", "emit.csv_read_s": "s",
    "emit.svg_s": "s", "emit.json_s": "s",
    "trace.overhead_s": "s",
}

# metric -> span name whose total time / call count it reports
_TIMES = {
    "config.load_s": "config.load", "sim.run_s": "sim.run",
    "control.outer_loop_s": "control.outer_loop",
    "control.extract_attitude_s": "control.extract_attitude",
    "control.inner_loop_s": "control.inner_loop",
    "observers.derivative_filter_s": "observers.derivative_filter",
    "observers.naive_step_s": "observers.naive_step",
    "quad.allocate_s": "quad.allocate", "quad.rotor_wrench_s": "quad.rotor_wrench",
    "trajectories.position_s": "trajectories.position",
    "disturbances.value_s": "disturbances.value",
    "disturbances.advance_s": "disturbances.advance",
    "metrics.report_s": "metrics.report",
    "metrics.signal_deltas_s": "metrics.signal_deltas",
    "emit.csv_write_s": "emit.csv_write", "emit.csv_read_s": "emit.csv_read",
    "emit.svg_s": "emit.svg", "emit.json_s": "emit.json",
}
_CALLS = {
    "config.loads": "config.load", "control.ticks": "control.inner_loop",
    "observers.derivative_filter_calls": "observers.derivative_filter",
    "observers.naive_steps": "observers.naive_step",
    "quad.allocations": "quad.allocate", "trajectories.calls": "trajectories.position",
    "disturbances.value_calls": "disturbances.value",
    "disturbances.advance_calls": "disturbances.advance",
    "metrics.signal_deltas_calls": "metrics.signal_deltas",
}


def _pregrid_rows(cfg, steps, n_sub):
    """Rows of the engine's pre-evaluated disturbance grid (0 if it has none):
    every stage time is gridded unless a deterministic signal needs the
    position, and only when some deterministic signal is not Zero."""
    from hgdosim.disturbances import Zero
    det = [s for s in cfg.force_signals + cfg.torque_signals if not s.stochastic]
    if any(s.needs_position for s in det) or all(isinstance(s, Zero) for s in det):
        return 0
    return 2 * n_sub * steps + 1


def install(tracer):
    """Wrap every traced name; tracer.restore() undoes it."""
    from hgdosim import config, disturbances, emit, metrics, observers, sim, trajectories

    def after_run(trace, args, kwargs):
        steps = max(len(trace) - 1, 0)
        n_sub = trace.meta["substeps"]
        tracer.count("sim.base_steps", steps)
        tracer.count("sim.rk4_substeps", steps * n_sub)
        tracer.count("sim.pregrid_rows", _pregrid_rows(args[0], steps, n_sub))

    distinct = {}

    def after_deltas(result, args, kwargs):
        distinct[id(args[0])] = args[0]   # holding the config keeps its id unique
        tracer.count("metrics.signal_deltas_returned")
        tracer.counters["metrics.signal_deltas_distinct"] = len(distinct)

    def after_csv(result, args, kwargs):
        tracer.count("emit.csv_bytes", Path(args[1]).stat().st_size)

    tracer.patch(config, "load_scenario", "config.load")
    tracer.patch(sim, "run_scenario", "sim.run", after=after_run)
    for attr, name in (("outer_loop", "control.outer_loop"),
                       ("extract_attitude", "control.extract_attitude"),
                       ("inner_loop", "control.inner_loop"),
                       ("naive_hgdo_step", "observers.naive_step"),
                       ("allocate_rotors", "quad.allocate"),
                       ("rotor_wrench", "quad.rotor_wrench")):
        tracer.patch(sim, attr, name)
    tracer.patch(observers.DerivativeFilter, "step", "observers.derivative_filter")
    for cls in vars(trajectories).values():
        if (isinstance(cls, type) and issubclass(cls, trajectories.Trajectory)
                and cls is not trajectories.Trajectory and "position" in vars(cls)):
            tracer.patch(cls, "position", "trajectories.position")
    for cls in vars(disturbances).values():
        if (isinstance(cls, type) and issubclass(cls, disturbances.Signal)
                and cls is not disturbances.Signal):
            for attr in ("value", "advance"):
                if attr in vars(cls):
                    tracer.patch(cls, attr, f"disturbances.{attr}", outermost=True)
    tracer.patch(metrics, "metrics_report", "metrics.report")
    tracer.patch(metrics, "signal_deltas", "metrics.signal_deltas", after=after_deltas)
    tracer.patch(metrics, "sweep", "metrics.sweep")
    tracer.patch(emit, "emit_csv", "emit.csv_write", after=after_csv)
    tracer.patch(emit, "read_csv", "emit.csv_read")
    tracer.patch(emit, "plot_estimates", "emit.plot")
    tracer.patch(emit, "emit_svg", "emit.svg")
    tracer.patch(emit, "emit_json", "emit.json")


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (trace.overhead_s is added by the caller)."""
    totals = tracer.totals()
    c = tracer.counters
    out = {m: totals.get(s, (0, 0.0, 0.0))[1] for m, s in _TIMES.items()}
    out.update({m: totals.get(s, (0, 0.0, 0.0))[0] for m, s in _CALLS.items()})
    out["sim.self_s"] = totals.get("sim.run", (0, 0.0, 0.0))[2]
    for key in ("sim.base_steps", "sim.rk4_substeps", "sim.pregrid_rows", "emit.csv_bytes"):
        out[key] = c.get(key, 0)
    subs = out["sim.rk4_substeps"]
    out["sim.us_per_substep"] = 1e6 * out["sim.self_s"] / subs if subs else 0.0
    returned = c.get("metrics.signal_deltas_returned", 0)
    out["metrics.signal_deltas_useful_ratio"] = (
        c.get("metrics.signal_deltas_distinct", 0) / returned if returned else 1.0)
    return {k: out[k] for k in UNITS if k in out}
