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


def workload(bench, monkeypatch, tmp_path, name, seed):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    return bench.Workload(name, seed, json.loads(bench.REFERENCE.read_text()))


@pytest.mark.parametrize("name", ["eps_sweep", "noise_compare", "simulate_suite"])
def test_workload_pass_matches_reference(perfbench, monkeypatch, tmp_path, name):
    # simulate_suite is the only workload that hashes CSVs and reads them back
    wl = workload(perfbench[0], monkeypatch, tmp_path, name, perfbench[0].DEFAULT_SEED)
    wl.prepare()
    wl.run_pass()
    assert wl.attempted > 0
    assert wl.failures == []


def test_noise_compare_at_another_seed(perfbench, monkeypatch, tmp_path):
    # at seed 25 the hgdo run at the largest noise power diverges, and only it
    wl = workload(perfbench[0], monkeypatch, tmp_path, "noise_compare", 25)
    wl.prepare()
    wl.run_pass()
    assert wl.attempted == 9
    assert [(f["op"], f["error"]) for f in wl.failures] == [("noise:hgdo:0.1", "Diverged")]


def test_traced_pass(perfbench, monkeypatch, tmp_path):
    bench = perfbench[0]
    wl = workload(bench, monkeypatch, tmp_path, "noise_compare", bench.DEFAULT_SEED)
    _, layers = bench.traced(wl, 0)
    assert wl.failures == []
    assert layers["control.ticks"]["value"] > 0


def test_every_hooked_name_resolves_and_is_restored(perfbench):
    _, hooks, tracer = perfbench
    t = tracer.Tracer()
    hooks.install(t)              # a hooked name that is gone raises here
    patched = list(t._undo)
    t.restore()
    assert len(patched) > 10
    for owner, attr, original in patched:
        assert inspect.getattr_static(owner, attr) is original, attr
