"""The benchmark's contract with the package, checked from the test suite.

perfbench/ reaches into hgdosim by name: it swaps `metrics.run_scenario`
for its own hashing wrapper during a sweep, wraps the functions the engine
looks up in `hgdosim.sim`'s namespace, and compares every trace against the
SHA-256 hashes in perfbench/reference.json. A lost name or a changed bit
shows up here, not only as a failed benchmark operation. perfbench/ is only
read, never edited; its outputs go to a temporary directory.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return tuple(importlib.import_module(m) for m in ("bench", "hooks", "tracer"))
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["eps_sweep", "noise_compare"])
def test_workload_pass_matches_reference(perfbench, monkeypatch, tmp_path, workload):
    bench, _, _ = perfbench
    monkeypatch.setattr(bench, "OUT", tmp_path)
    reference = json.loads(bench.REFERENCE.read_text())
    wl = bench.Workload(workload, bench.DEFAULT_SEED, reference)
    wl.prepare()
    wl.run_pass()
    assert wl.attempted > 0
    assert wl.failures == []


def test_every_hooked_name_resolves_and_is_restored(perfbench):
    _, hooks, tracer = perfbench
    t = tracer.Tracer()
    hooks.install(t)              # a hooked name that is gone raises here
    patched = list(t._undo)
    t.restore()
    assert len(patched) > 10
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is original, attr
