"""hgdosim benchmark worker: one workload, measured or traced, in this process.

Started by perfbench/run.py, which pins BLAS/OpenMP threads, puts src/ on
PYTHONPATH and measures set-up time in separate fresh processes. Three modes:

  bench.py --workload W --seed N --seconds S --trace 0|1   measure or trace W
  bench.py --setup-probe --workload W --seed N             time import + config load
  bench.py --record-reference                              rewrite reference.json

Every workload is a closed loop: one client runs one operation at a time.
Each configuration is a shipped scenario changed only by dataclasses.replace
(seed, eps, observer, noise power). A pass runs all operations of a workload
once; the measured run makes at least two passes, goes on until --seconds
is used up and reports the median pass. Outputs are checked on every
operation: trace and CSV SHA-256 against reference.json (on the default
seed, and on any seed for configurations the seed cannot reach), against
the first pass of this run, schema validation of each metrics report, a
bit-identical read_csv round trip and the sweep's shared-realization
assertion. A failed check counts the operation as failed.
"""

import time

_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "scenarios"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

DEFAULT_SEED = 0
SUITE = ("bound_check", "dryden_lemniscate", "ground_effect", "hover_step",
         "lemniscate_composite", "noise_study")
SWEEP_SCENARIO = "dryden_lemniscate"
SWEEP_EPS = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08)
NOISE_SCENARIO = "noise_study"
NOISE_OBSERVERS = ("hgdo", "naive", "none")
NOISE_POWERS = (1e-3, 1e-2, 1e-1)
WORKLOADS = ("simulate_suite", "eps_sweep", "noise_compare")

# Failures the benchmark counts in failed_ops without calling the outputs
# wrong: metrics_report cannot take the derivative of the position-dependent
# ground-effect signal, and a Diverged run (the CLI's documented exit code 2,
# e.g. noise power 0.1 on some seeds) whose partial trace passed the checks.
KNOWN_FAILURES = {("simulate:ground_effect", "NonDifferentiable")}


class WrongOutput(Exception):
    """An output check failed; `kind` names the check."""

    def __init__(self, kind, detail):
        super().__init__(detail)
        self.kind = kind


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cpu() -> float:
    """User + system CPU seconds of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def scenario_files(workload):
    if workload == "simulate_suite":
        names = SUITE
    elif workload == "eps_sweep":
        names = (SWEEP_SCENARIO,)
    else:
        names = (NOISE_SCENARIO,)
    return [SCENARIOS / f"{n}.json" for n in names]


class Workload:
    """Operations of one workload plus the checks on their outputs."""

    def __init__(self, name, seed, reference):
        from hgdosim import config, emit, metrics, sim
        self.config, self.emit, self.metrics, self.sim = config, emit, metrics, sim
        self.name = name
        self.seed = seed
        self.reference = reference
        self.tracer = None        # set for the traced pass
        self.first = {}           # output key -> hash seen first in this run
        self.recorded = {}        # output key -> hash, for --record-reference
        self.attempted = 0
        self.failures = []
        self.out = OUT / name
        self.out.mkdir(parents=True, exist_ok=True)
        self.base = {}

    # -- set-up ------------------------------------------------------------

    def load(self, path):
        return dataclasses.replace(self.config.load_scenario(path), seed=self.seed)

    def prepare(self):
        """Load the configs the passes reuse (simulate_suite loads per operation)."""
        if self.name != "simulate_suite":
            self.base = {p.stem: self.load(p) for p in scenario_files(self.name)}

    # -- output checks -----------------------------------------------------

    def _check(self, key, digest, cfg):
        self.recorded[key] = digest
        seen = self.first.setdefault(key, digest)
        if seen != digest:
            raise WrongOutput("Nondeterministic", f"{key} changed between passes")
        seed_free = cfg.noise_power == 0.0 and not any(
            s.stochastic for s in cfg.force_signals + cfg.torque_signals)
        if self.reference is None or not (self.seed == DEFAULT_SEED or seed_free):
            return
        want = self.reference.get(self.name, {}).get(key)
        if want is None:
            raise WrongOutput("NoReference", f"no reference hash for {key}")
        if want != digest:
            raise WrongOutput("HashMismatch", f"{key}: {digest} != {want}")

    @staticmethod
    def _key(meta):
        return (f"{meta['name']}|{meta['observer']}|eps={meta['epsilon1']!r}"
                f"|noise={meta['noise_power']!r}")

    def run(self, cfg):
        """run_scenario plus the trace hash check (also stands in for the
        run_scenario that metrics.sweep calls). A diverged run's partial
        trace is checked the same way before Diverged goes on up."""
        try:
            trace = self.sim.run_scenario(cfg)
        except self.sim.Diverged as exc:
            self._check(self._key(exc.trace.meta) + "|diverged",
                        _sha(exc.trace.data.tobytes()), cfg)
            raise
        self._check(self._key(trace.meta) + "|trace",
                    _sha(trace.data.tobytes()), cfg)
        return trace

    def report(self, trace):
        report = self.metrics.metrics_report(trace)
        try:
            self.config.validate_metrics(report)
        except self.config.ConfigError as exc:
            raise WrongOutput("InvalidReport", str(exc)) from None
        return report

    # -- operations --------------------------------------------------------

    def op(self, label, fn, *args):
        self.attempted += 1
        try:
            if self.tracer is None:
                fn(*args)
            else:
                self.tracer.op += 1
                self.tracer.span("op." + label.split(":")[0], fn, *args)
        except WrongOutput as exc:
            self.failures.append({"op": label, "error": exc.kind, "detail": str(exc)})
        except Exception as exc:  # the op boundary: record and keep going
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append({
                "op": label, "error": type(exc).__name__,
                "detail": f"{str(exc)[:300]} (at {Path(where.filename).name}:{where.lineno})"})

    def simulate(self, name, traces):
        cfg = self.load(SCENARIOS / f"{name}.json")
        trace = self.run(cfg)
        traces[name] = trace
        csv_path = self.out / f"{name}.csv"
        self.emit.emit_csv(trace, csv_path)
        self._check(self._key(trace.meta) + "|csv", _sha(csv_path.read_bytes()), cfg)
        self.emit.emit_json(self.report(trace), self.out / f"{name}.json")

    def plot(self, name, traces):
        back = self.emit.read_csv(self.out / f"{name}.csv")
        trace = traces.get(name)
        if trace is None or back.data.tobytes() != trace.data.tobytes():
            raise WrongOutput("RoundTrip", f"{name}: read_csv differs from the run")
        svg = self.out / f"{name}.estimates.svg"
        self.emit.emit_svg(self.emit.plot_estimates(back), svg)
        text = svg.read_text()
        if not (text.startswith("<svg") and text.endswith("</svg>\n")):
            raise WrongOutput("BadSvg", f"{svg.name} is not a complete SVG")

    def eps_sweep(self):
        metrics = self.metrics
        inner = metrics.run_scenario
        metrics.run_scenario = self.run
        try:
            try:
                report = metrics.sweep(self.base[SWEEP_SCENARIO], list(SWEEP_EPS),
                                       include_smc_only=True)
            except RuntimeError as exc:
                if "realization" in str(exc):
                    raise WrongOutput("SweepRealization", str(exc)) from None
                raise
        finally:
            metrics.run_scenario = inner
        if len(report["variants"]) != len(SWEEP_EPS) + 1:
            raise WrongOutput("SweepVariants", "sweep dropped a variant")

    def noise_run(self, observer, power):
        cfg = dataclasses.replace(self.base[NOISE_SCENARIO], observer=observer,
                                  noise_power=power)
        self.report(self.run(cfg))

    def run_pass(self):
        if self.name == "simulate_suite":
            traces = {}
            for name in SUITE:
                self.op(f"simulate:{name}", self.simulate, name, traces)
                self.op(f"plot:{name}", self.plot, name, traces)
        elif self.name == "eps_sweep":
            self.op("sweep:" + SWEEP_SCENARIO, self.eps_sweep)
        else:
            for observer in NOISE_OBSERVERS:
                for power in NOISE_POWERS:
                    self.op(f"noise:{observer}:{power:g}", self.noise_run,
                            observer, power)

    def unexpected_failures(self):
        return [f for f in self.failures
                if f["error"] != "Diverged"
                and (f["op"], f["error"]) not in KNOWN_FAILURES]


def _timed_pass(wl):
    c0 = _cpu()
    t0 = time.perf_counter()
    wl.run_pass()
    return time.perf_counter() - t0, _cpu() - c0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds):
    """Untraced passes, at least two, until the next would overrun the budget."""
    wl.prepare()
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = _timed_pass(wl)
        if not walls:
            # a second pass can raise the high-water mark (by about 16 MB on
            # simulate_suite), and how many passes fit depends on the machine
            peak_rss = _peak_rss_mb()
        walls.append(wall)
        cpus.append(cpu)
        if (len(walls) >= 2
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            break
    return walls, {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }


def traced(wl, seconds):
    """Untraced passes for the overhead baseline, then one traced pass."""
    from hooks import UNITS, install, layer_metrics
    from tracer import Tracer

    wl.prepare()
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(_timed_pass(wl)[0])
        if time.perf_counter() - start + 2.5 * statistics.median(walls) > seconds:
            break
    tracer = Tracer()
    install(tracer)
    wl.tracer = tracer
    try:
        wl.prepare()
        traced_wall = _timed_pass(wl)[0]
    finally:
        tracer.restore()
        wl.tracer = None
    layers = layer_metrics(tracer)
    layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
    out = wl.out / f"trace-seed{wl.seed}"
    out.mkdir(exist_ok=True)
    tracer.write_spans(out / "spans.csv")
    (out / "layers.json").write_text(json.dumps({
        "workload": wl.name, "seed": wl.seed, "traced_wall_s": traced_wall,
        "untraced_wall_s": walls, "per_layer": layers,
        "spans_by_name": {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in sorted(tracer.totals().items())},
    }, indent=2) + "\n")
    return walls + [traced_wall], {k: {"value": v, "unit": UNITS[k]}
                                   for k, v in layers.items()}


def setup_probe(workload, seed):
    """Import hgdosim and load the workload's configs; print the seconds taken."""
    from hgdosim import config
    for path in scenario_files(workload):
        dataclasses.replace(config.load_scenario(path), seed=seed)
    print(repr(time.perf_counter() - _IMPORT_START))


def record_reference():
    ref = {}
    for name in WORKLOADS:
        wl = Workload(name, DEFAULT_SEED, None)
        wl.prepare()
        wl.run_pass()
        bad = wl.unexpected_failures()
        if bad:
            sys.exit(f"not recording: {name} failed: {bad}")
        ref[name] = dict(sorted(wl.recorded.items()))
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import hgdosim
    if Path(hgdosim.__file__).resolve().parent != ROOT / "src" / "hgdosim":
        sys.exit(f"imported hgdosim from {hgdosim.__file__}, not from this checkout")
    wl = Workload(args.workload, args.seed, json.loads(REFERENCE.read_text()))
    if args.trace:
        walls, metrics = traced(wl, args.seconds)
    else:
        walls, metrics = measure(wl, args.seconds)
    unexpected = wl.unexpected_failures()
    print(json.dumps({
        "pass_walls": walls,
        "failures": wl.failures,
        "result": {"correct": not unexpected, "attempted": wl.attempted,
                   "failed": len(wl.failures), "metrics": metrics},
    }))


if __name__ == "__main__":
    sys.exit(main())
