"""Command-line front end.

Subcommands: simulate, sweep, compare, check-bounds, plot. Exit codes:
0 success, 1 failed bound check or emit problem, 2 diverged run,
3 configuration or usage error. The environment variable HGDO_SEED
overrides the configured seed; an explicit --seed beats both.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from .config import ConfigError, load_scenario
from .disturbances import NonDifferentiable
from .emit import PLOT_KINDS, EmitError, emit_csv, emit_json, emit_svg, read_csv
from .metrics import (
    EmptyTrace,
    RealizationMismatch,
    StochasticDisturbance,
    TRACK_CHANNELS,
    bound_check,
    compare,
    gain_condition,
    metrics_report,
    signal_deltas,
    sweep,
)
from .sim import Diverged, run_scenario

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_DIVERGED = 2
_EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the config-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _resolve_seed(cli_seed):
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("HGDO_SEED")
    if env is None or env == "":
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"HGDO_SEED must be an integer, got {env!r}") from None


def _load(path, seed_arg):
    cfg = load_scenario(path)
    seed = _resolve_seed(seed_arg)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _check_skip(skip: float, *cfgs) -> None:
    """Refuse, before any run, a --skip that leaves a run nothing to report:
    it must be at least 0, below the duration and no later than the last
    recorded step (NaN fails every comparison)."""
    for cfg in cfgs:
        last = int(round(cfg.duration / cfg.dt)) * cfg.dt
        if not (0.0 <= skip < cfg.duration and skip <= last):
            raise ConfigError(f"--skip must be at least 0 and below the duration of "
                              f"{cfg.name} ({cfg.duration:g} s), got {skip!r}")


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EmitError(f"{out}: {exc}") from exc
    return out


def _fmt_rms(rms: dict) -> str:
    return "  ".join(f"{ch}={rms[ch]:.4e}" for ch in TRACK_CHANNELS)


def cmd_simulate(args) -> int:
    cfg = _load(args.config, args.seed)
    _check_skip(args.skip, cfg)
    code = _EXIT_OK
    try:
        trace = run_scenario(cfg)
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        trace = exc.trace
        code = _EXIT_DIVERGED
    out = _outdir(args)
    emit_csv(trace, out / "trace.csv")
    try:
        report = metrics_report(trace, skip=args.skip)
    except EmptyTrace:  # only a run that diverged before --skip gets here
        print(f"wrote {out / 'trace.csv'}; no metrics: the run ended before "
              f"--skip {args.skip:g}", file=sys.stderr)
        return code
    emit_json(report, out / "metrics.json")
    meta = trace.meta
    print(f"scenario {meta['name']}: observer={meta['observer']} "
          f"eps1={meta['epsilon1']:g} seed={meta['seed']} "
          f"rows={len(trace)} wall={meta['wall_time']:.2f}s")
    if len(trace):
        from .metrics import rms_errors
        print("rms tracking: " + _fmt_rms(rms_errors(trace, skip=args.skip)))
    print(f"wrote {out / 'trace.csv'}")
    print(f"wrote {out / 'metrics.json'}")
    return code


def cmd_sweep(args) -> int:
    cfg = _load(args.config, args.seed)
    _check_skip(args.skip, cfg)
    try:
        epsilons = [float(tok) for tok in args.eps.split(",") if tok]
    except ValueError:
        raise ConfigError(f"--eps must be a comma list of numbers, got {args.eps!r}")
    if not epsilons or not all(0.0 < e < math.inf for e in epsilons):
        raise ConfigError(f"--eps needs finite positive values, got {args.eps!r}")
    try:
        report = sweep(cfg, epsilons, include_smc_only=args.smc_only, skip=args.skip)
    except RealizationMismatch as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    out = _outdir(args)
    emit_json(report, out / "sweep.json")
    labels = [v["label"] for v in report["variants"]]
    # a cell is up to 11 characters wide ("-1.2345e-01"), two more separate them
    width = max(11, *(len(lb) for lb in labels)) + 2
    print("rms".ljust(8) + "".join(lb.rjust(width) for lb in labels))
    for ch in TRACK_CHANNELS:
        row = report["table"][ch]
        print(ch.ljust(8) + "".join(f"{row[lb]:{width}.4e}" for lb in labels))
    print(f"wrote {out / 'sweep.json'}")
    return _EXIT_OK


def cmd_compare(args) -> int:
    cfg_a = _load(args.config_a, args.seed)
    cfg_b = _load(args.config_b, args.seed)
    _check_skip(args.skip, cfg_a, cfg_b)
    report = compare(cfg_a, cfg_b, skip=args.skip)
    out = _outdir(args)
    emit_json(report, out / "compare.json")
    print(f"a: {report['a']['scenario']} ({report['a']['observer']})  "
          + _fmt_rms(report["a"]["rms_tracking"]))
    print(f"b: {report['b']['scenario']} ({report['b']['observer']})  "
          + _fmt_rms(report["b"]["rms_tracking"]))
    delta = report["rms_tracking_delta"]
    print("b-a:  " + "  ".join(f"{ch}={delta[ch]:+.4e}" for ch in TRACK_CHANNELS))
    print(f"wrote {out / 'compare.json'}")
    return _EXIT_OK


def cmd_check_bounds(args) -> int:
    cfg = _load(args.config, args.seed)
    try:
        deltas = signal_deltas(cfg)
        condition = gain_condition(cfg, deltas=deltas)
        if not all(condition["ok"]):
            bad = [ch for ch, ok in zip(condition["channels"], condition["ok"])
                   if not ok]
            print(f"warning: switching gain below threshold on {', '.join(bad)}",
                  file=sys.stderr)
        trace = run_scenario(cfg)
        results = bound_check(trace, deltas=deltas)
    except (StochasticDisturbance, NonDifferentiable) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    failed = False
    for r in results:
        verdict = "pass" if r.passed else "FAIL"
        print(f"{r.channel}: integral |err| = {r.lhs:.6e}  "
              f"bound = {r.rhs:.6e}  {verdict}")
        failed = failed or not r.passed
    return _EXIT_FAIL if failed else _EXIT_OK


def cmd_plot(args) -> int:
    trace = read_csv(args.trace)
    panels = PLOT_KINDS[args.kind](trace)
    out = Path(args.out) if args.out else Path(args.trace).with_suffix(f".{args.kind}.svg")
    emit_svg(panels, out)
    print(f"wrote {out}")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hgdosim",
        description="Closed-loop quadrotor simulation with a high-gain "
                    "disturbance observer and sliding-mode control.",
        epilog="exit codes: 0 ok, 1 failed bound check, 2 diverged, "
               "3 config error")
    sub = parser.add_subparsers(dest="command", required=True)

    def run_opts(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed (beats HGDO_SEED)")
        p.add_argument("--skip", type=float, default=0.0,
                       help="drop the first SKIP seconds from the metrics window")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("simulate", help="run one scenario, write trace and metrics")
    p.add_argument("config", help="scenario JSON file")
    run_opts(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the observer-gain sweep")
    p.add_argument("config", help="scenario JSON file")
    p.add_argument("--eps", default="0.01,0.04,0.08",
                   help="comma list of observer gains (default 0.01,0.04,0.08)")
    p.add_argument("--smc-only", action="store_true",
                   help="include the no-observer baseline")
    run_opts(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="run two scenarios and diff their metrics")
    p.add_argument("config_a", help="first scenario JSON file")
    p.add_argument("config_b", help="second scenario JSON file")
    run_opts(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check-bounds",
                       help="verify the integral estimation-error bound")
    p.add_argument("config", help="scenario JSON file (deterministic only)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed (beats HGDO_SEED)")
    p.set_defaults(func=cmd_check_bounds)

    p = sub.add_parser("plot", help="render an SVG from an emitted trace")
    p.add_argument("trace", help="trace CSV produced by simulate")
    p.add_argument("--kind", choices=sorted(PLOT_KINDS), default="timeseries",
                   help="plot layout")
    p.add_argument("--out", default=None,
                   help="output SVG path (default: next to the trace)")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return _EXIT_DIVERGED
    except EmitError as exc:
        print(f"emit error: {exc}", file=sys.stderr)
        return _EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
