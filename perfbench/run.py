"""hgdosim benchmark launcher.

    python3 perfbench/run.py --workload simulate_suite --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout. Every workload runs in fresh
processes with BLAS/OpenMP pinned to one thread and src/ on PYTHONPATH.
The workload runs in one process, so its peak RSS is its own. setup_s is
the median of fresh processes that import hgdosim and load the workload's
configs; half of them run before the workload and half after, so the
median spans the same stretch of machine time as the passes. With
--trace 0 the last line of output carries the end-to-end metrics, with
--trace 1 the per-layer ones (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate_suite", "eps_sweep", "noise_compare")
SETUP_PROBES = 4        # measured fresh processes before and again after the workload
DEADLINE_S = 170.0      # the whole run, set-up included


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(args, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        sys.exit("benchmark: out of time")
    proc = subprocess.run([sys.executable, str(HERE / "bench.py"), *args], env=env,
                          capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmark: bench.py {' '.join(args)} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def main():
    ap = argparse.ArgumentParser(description="hgdosim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/hgdosim/__init__.py", "scenarios/noise_study.json")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"benchmark: not a hgdosim checkout, missing {', '.join(missing)}")

    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []

    def probe(n):
        for _ in range(n):
            setup.append(float(run_child(["--setup-probe", *common], env, deadline)))

    if not args.trace:
        probe(1 + SETUP_PROBES)      # the first one compiles bytecode: not counted
    out = json.loads(run_child(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, deadline))
    result = out["result"]
    if not args.trace:
        probe(SETUP_PROBES)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup[1:]), "unit": "s"}

    walls = ", ".join(f"{w:.3f}" for w in out["pass_walls"])
    print(f"workload {args.workload} seed {args.seed}, "
          f"{'traced (last pass)' if args.trace else 'untraced'}: pass walls [{walls}] s")
    if setup:
        print(f"  set-up probes (first is warm-up): [{', '.join(f'{v:.3f}' for v in setup)}] s")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    passes = len(out["pass_walls"])
    for name, n in (("ops", result["attempted"]), ("failed_ops", result["failed"])):
        print(f"  {name:36s} {n} count ({n / passes:g} per pass, {passes} passes)")
    for f in out["failures"]:
        print(f"  failed {f['op']}: {f['error']}: {f['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
