"""Golden trace hashes: short runs on a seed the benchmark references skip.

Each case is a shipped scenario cut to one second at seed 7, changed only by
dataclasses.replace. The SHA-256 of trace.data.tobytes() pins every bit of
every column, so a rewrite that reorders one floating-point operation, or
turns a -0.0 into +0.0, fails here. The cases cover the per-tick paths the
engine has: all three observers under measurement noise with a 5:1 outer
loop, the hgdo run at 4 substeps and at 1, the naive observer with stochastic
forcing, the per-stage closure path of a position-dependent signal, the full
plant, and the run without rotor allocation.

A change that alters the numerics on purpose re-records these hashes (run
each case and print the digest) and says so in its description.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from hgdosim.config import load_scenario
from hgdosim.sim import run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

CASES = {
    "noise_study-hgdo": ("noise_study", dict(observer="hgdo", noise_power=1e-2)),
    "noise_study-naive": ("noise_study", dict(observer="naive", noise_power=1e-2)),
    "noise_study-none": ("noise_study", dict(observer="none", noise_power=1e-2)),
    "dryden_lemniscate-eps0.01": ("dryden_lemniscate", dict(epsilon1=0.01, epsilon2=0.01)),
    "dryden_lemniscate-eps0.08": ("dryden_lemniscate", dict(epsilon1=0.08, epsilon2=0.08)),
    "dryden_lemniscate-naive": ("dryden_lemniscate", dict(observer="naive")),
    "ground_effect": ("ground_effect", {}),
    "hover_step-full": ("hover_step", dict(plant="full")),
    "hover_step-noalloc": ("hover_step", dict(allocate=False)),
}

GOLDEN = {
    "noise_study-hgdo": "e993c7b17271f7aaf1f395e2d5c401de8913efcbd4d38ce2af62af80a1e0f617",
    "noise_study-naive": "6aa85518b16a82452caa67fb1557fe021bed9201dd715d648a0b50667f7575a9",
    "noise_study-none": "3c2fd164dce384500eb964b70e46096c426f2a7affdc4011e65910ea3154be44",
    "dryden_lemniscate-eps0.01": "681bf82faa7045b69c88a062e4a1f89dfaca7fedcb60fefc11ed0dc74fb75431",
    "dryden_lemniscate-eps0.08": "e5cb2b28b9b719cf67c8af3b53fe23632bfd1213f8462e66250770c587c753fc",
    "dryden_lemniscate-naive": "0200394b711936edd806627df48db6c42f333cf7e61a213f491a7091d1777eef",
    "ground_effect": "8ecdb148a10a0173041afb7ec4a8e82405ad938057693b0cb865be45db231364",
    "hover_step-full": "2de6ad29723c5aad80a37d4f33072f45ffcca76ba068d6c323f64546a90eb76a",
    "hover_step-noalloc": "40ff54daa4951ddc3d4a4086f509d3f4c2e4a390477ecbd8b235cacf1cb9d989",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_hash_unchanged(case):
    name, fields = CASES[case]
    cfg = dataclasses.replace(load_scenario(SCENARIO_DIR / f"{name}.json"),
                              duration=1.0, seed=7, **fields)
    trace = run_scenario(cfg)
    assert len(trace) == 501
    assert hashlib.sha256(trace.data.tobytes()).hexdigest() == GOLDEN[case]
