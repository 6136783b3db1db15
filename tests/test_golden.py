"""Golden trace hashes: short runs on a seed the benchmark references skip.

Each case is a shipped scenario cut to one second (unless the case names
another duration) at seed 7, changed only by dataclasses.replace. The SHA-256 of trace.data.tobytes() pins every bit of
every column, so a rewrite that reorders one floating-point operation, or
turns a -0.0 into +0.0, fails here. The cases cover the per-tick paths the
engine has: all three observers under measurement noise with a 5:1 outer
loop, the hgdo run at 4 substeps and at 1, the naive observer with stochastic
forcing, the per-stage closure path of a position-dependent signal, the full
plant, and the run without rotor allocation. Four more cases cover the fused
RK4 kernel's branches: 16 substeps per tick (eps 0.0025), all six channels
pre-gridded at 4 substeps, the per-stage closure path under the naive
observer, and the full plant under measurement noise. Three three-second
cases (1500 base steps) cross several of the engine's row blocks and end
part way into one: the composite disturbance pre-gridded at 4 substeps, the
noise-free hgdo run, and the naive observer under measurement noise.

A change that alters the numerics on purpose re-records these hashes (run
each case and print the digest) and says so in its description.

The hashes also pin the platform's math library: the engine's sin, cos,
atan, exp, fmod and pow (x ** 2 included) are not correctly rounded
everywhere. LIBM pins the SHA-256 of those functions on fixed inputs, as
measured where the hashes were recorded (x86-64 Linux, glibc), so a golden
failure says whether libm differs here or the program changed. See "Platform
dependence" in docs/trace_format.md.
"""

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
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
    "dryden_lemniscate-eps0.0025": ("dryden_lemniscate", dict(epsilon1=0.0025, epsilon2=0.0025)),
    "lemniscate_composite": ("lemniscate_composite", {}),
    "ground_effect-naive": ("ground_effect", dict(observer="naive")),
    "hover_step-full-noise": ("hover_step", dict(plant="full", noise_power=1e-2)),
    "lemniscate_composite-3s": ("lemniscate_composite", dict(duration=3.0)),
    "noise_study-hgdo-p0-3s": ("noise_study", dict(duration=3.0, observer="hgdo",
                                                   noise_power=0.0)),
    "noise_study-naive-3s": ("noise_study", dict(duration=3.0, observer="naive",
                                                 noise_power=1e-2)),
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
    "dryden_lemniscate-eps0.0025": "adac9d5a44ee119224ea545996a13616e52b2bf110d75ccfbfcd42614a558353",
    "lemniscate_composite": "97298c094d4686be2cb0c66082ac372508d94959eebcefc9f5d54af67356014e",
    "ground_effect-naive": "633eb681b3d7e2bb263070c3244f9dce37df6a702f3dfdf675107ce02f08add2",
    "hover_step-full-noise": "cc633c6af84e5366dbe5b24c8f993389423ef33730bab9e6fd7f7e107968891c",
    "lemniscate_composite-3s": "0395d1a901e31ef27445d9b1d0d9649630f4fffbed06ad5380788b4e21794b25",
    "noise_study-hgdo-p0-3s": "5ddb8b83a6a27a0c0a25cffdb5769871ecbab29ce1c7e33bccbe2b1a86cb9436",
    "noise_study-naive-3s": "721d115969a84c58b023b1163bf909c76b22c9f4d16396ce1115a2f69cd84bf3",
}


LIBM = {
    "pow2": "581a9043f12124842f9599ed29a4addbbdc8f03a387ed0272923c0d13abcb574",
    "pow_frac": "ae8029701f2e11a04c0225c5f5530007f9bca03856bdd676ea2f18c249e99789",
    "sin": "d255e5c4d79b9a55a01ef4016e0306a170a3db00c0fe133f62370cf2ace9bcbe",
    "cos": "e8cf6fd11c722789dd5339998fff5aaf17dec80fd86a60b75af4906233ec4161",
    "atan": "391d3e48c2772dbedf4a48d7e176b8f584d1ad3c25b670cf2a678c619c375107",
    "sqrt": "fb8b11a5ed8220c17c01e92dbca323db4d4a72bf5031230151f1c2784400f0d0",
    "exp": "a0a11683cc25e46700597ad495165582342b57baf2d9c2886d1fb5fbe52e7052",
    "fmod": "3fc16e0813ea600d83865ef83f37df0037c8e9da111c45b91b4c62f1ee736164",
    "numpy.sin": "d255e5c4d79b9a55a01ef4016e0306a170a3db00c0fe133f62370cf2ace9bcbe",
}


def libm_fingerprint() -> dict:
    """SHA-256 per math function of its results on fixed inputs, over the
    ranges the engine uses (rotor speeds for x ** 2, the Dryden exponents,
    angles, trajectory phases). The inputs come from PCG64, which gives the
    same doubles on every platform."""
    rng = np.random.default_rng(2024)
    wide = rng.uniform(-2000.0, 2000.0, 4096).tolist()
    small = rng.uniform(-4.0, 4.0, 4096).tolist()
    speeds = rng.uniform(0.0, 2500.0, 4096).tolist()
    pos = rng.uniform(1e-3, 1e6, 4096).tolist()
    bases = rng.uniform(0.1, 2.0, 4096).tolist()
    results = {
        "pow2": [x ** 2 for x in speeds],
        "pow_frac": [b ** 1.2 for b in bases] + [b ** 0.4 for b in bases],
        "sin": [math.sin(x) for x in small + wide],
        "cos": [math.cos(x) for x in small + wide],
        "atan": [math.atan(x) for x in small + wide],
        "sqrt": [math.sqrt(x) for x in pos],
        "exp": [math.exp(x) for x in small] + [math.exp(-x * 1e-3) for x in pos],
        "fmod": ([math.fmod(x, 1.0) for x in pos]
                 + [math.fmod(x + math.pi, 2.0 * math.pi) for x in wide]),
        "numpy.sin": np.sin(np.array(small + wide)).tolist(),   # the pre-gridded signals
    }
    return {k: hashlib.sha256(np.array(v).tobytes()).hexdigest() for k, v in results.items()}


def test_libm_fingerprint():
    got = libm_fingerprint()
    differ = sorted(k for k in LIBM if got[k] != LIBM[k])
    assert not differ, f"libm results differ from the recording platform: {differ}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_hash_unchanged(case):
    name, fields = CASES[case]
    cfg = dataclasses.replace(load_scenario(SCENARIO_DIR / f"{name}.json"),
                              **{"duration": 1.0, "seed": 7, **fields})
    trace = run_scenario(cfg)
    assert len(trace) == round(cfg.duration / cfg.dt) + 1
    if hashlib.sha256(trace.data.tobytes()).hexdigest() != GOLDEN[case]:
        fp = libm_fingerprint()
        differ = sorted(k for k in LIBM if fp[k] != LIBM[k])
        pytest.fail(f"trace hash of {case} changed; " + (
            f"libm differs from the recording platform in {differ}, so the "
            "pinned hashes do not hold here" if differ else
            "libm matches the recording platform, so the program changed"))
