"""The built-in schema validator against jsonschema as an oracle.

Every document of a corpus (shipped scenarios, reports of short runs of them,
a sweep, a compare, a report of a CSV trace, and mutations of all of these)
must get the same decision from both, and a rejected one the same message,
JSON path included, that `jsonschema.exceptions.best_match` picks. The one
departure: a oneOf whose branches all pin `kind` with a const (trajectories,
disturbances) descends only into the branch the instance's `kind` selects.
The oracle applies that by narrowing jsonschema's own error context before
`best_match` sees it; `TestKindSelectedBranch` shows both messages.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from hgdosim.config import (
    ConfigError,
    build_scenario,
    load_scenario,
    metrics_schema,
    scenario_schema,
    validate_metrics,
    validate_scenario,
)
from hgdosim.emit import emit_csv, read_csv
from hgdosim.metrics import compare, metrics_report, sweep
from hgdosim.sim import run_scenario

jsonschema = pytest.importorskip("jsonschema")
best_match = pytest.importorskip("jsonschema.exceptions").best_match

SCENARIOS = {p.stem: p for p in
             sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))}

# every keyword path of the scenario schema that no shipped scenario reaches
FULL_SCENARIO = {
    "schema": "hgdosim-scenario-1", "name": "full", "duration": 1.0, "dt": 0.002,
    "outer_divisor": 2, "seed": 3, "observer": "naive", "epsilon1": 0.02,
    "epsilon2": 0.03, "noise_power": 0.0, "allocate": False, "plant": "full",
    "substeps": None,
    "trajectory": {"kind": "hover", "target": [0.0, 0.0, 0.5],
                   "start": [0.0, 0.0, 0.0], "ramp_time": 1.0, "yaw": 0.1},
    "disturbances": [
        {"kind": "constant", "domain": "force", "axis": "x", "value": 0.1},
        {"kind": "composite", "domain": "torque", "axis": "y", "scale": 0.5},
        {"kind": "white_noise", "domain": "torque", "axis": "z", "power": 0.01,
         "seed": 1},
        {"kind": "dryden", "domain": "force", "axis": "y", "wind_axis": "v",
         "wind_speed": 1.0, "altitude": 0.5, "airspeed": 2.0, "accel_gain": 0.5,
         "seed": 2},
        {"kind": "ground_effect", "domain": "force", "axis": "z",
         "strength": 0.3, "z_ref": 0.3},
    ],
    "initial": {"position": [0.0, 0.0, 0.5], "velocity": [0.0, 0.0, 0.0],
                "attitude": [0.0, 0.0, 0.0], "rates": [0.0, 0.0, 0.0]},
    "vehicle": {"m": 0.03, "jx": 1e-5, "jy": 1e-5, "jz": 2e-5, "kt": 1e-8,
                "kq": 1e-10, "arm": 0.04, "g": 9.81, "omega_max": 2500.0},
    "gains": {"lambda1": [1.0, 1.0, 1.0], "lambda2": [1.0, 1.0, 1.0],
              "k1": [1.0, 1.0, 1.0], "k2": [1.0, 1.0, 1.0], "l1": [1.0, 1.0, 1.0],
              "l2": [1.0, 1.0, 1.0], "mu": 0.1, "uz_min": 1.0, "u1_max": None,
              "tau_max": None},
}

# documents the built-in validator and jsonschema must judge alike beyond the
# shipped scenarios: a ground effect is allowed on force z only (the schema
# rejects a torque one), and alone there (the schema accepts a second signal
# on force z; building the config rejects it)
GROUND_EFFECT_DOCS = {
    name: {**FULL_SCENARIO, "disturbances": entries} for name, entries in (
        ("ground_effect_on_torque",
         [{"kind": "ground_effect", "domain": "torque", "axis": "z"}]),
        ("ground_effect_shares_force_z",
         [{"kind": "ground_effect", "domain": "force", "axis": "z"},
          {"kind": "constant", "domain": "force", "axis": "z", "value": 0.1}]),
    )
}

LEAF_VALUES = (None, True, "x", -1, -1.0, 0, 1.0, math.nan, math.inf, [])
UNKNOWN_KEY = "new key"     # not a plain name, so a path through it is quoted
_DELETE = object()


def _short(path):
    return dataclasses.replace(load_scenario(path), duration=0.2)


def _paths(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _with(node, path, value):
    """A copy of `node` with the value at `path` replaced (or deleted)."""
    if not path:
        return value
    new = dict(node) if isinstance(node, dict) else list(node)
    head = path[0]
    if len(path) > 1:
        new[head] = _with(node[head], path[1:], value)
    elif value is _DELETE:
        del new[head]
    else:
        new[head] = value
    return new


def mutants(doc):
    yield "as is", doc
    for path, node in list(_paths(doc)):
        for value in LEAF_VALUES:
            yield f"{path} = {value!r}", _with(doc, path, value)
        if isinstance(node, dict):
            for key in node:
                yield f"del {path + (key,)}", _with(doc, path + (key,), _DELETE)
            for value in (1, "x"):
                yield (f"{path} + unknown {value!r}",
                       _with(doc, path + (UNKNOWN_KEY,), value))


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    docs = {}
    for name, path in SCENARIOS.items():
        docs[f"report:{name}"] = metrics_report(run_scenario(_short(path)))
    docs["sweep"] = sweep(_short(SCENARIOS["dryden_lemniscate"]), [0.01],
                          include_smc_only=True)
    # the bound-check arrays are mutated in the run reports already; a compare
    # of two such reports would take several times as long to check
    a = _short(SCENARIOS["hover_step"])
    docs["compare"] = compare(a, dataclasses.replace(a, observer="none"))
    csv_path = tmp_path_factory.mktemp("oracle") / "trace.csv"
    emit_csv(run_scenario(_short(SCENARIOS["hover_step"])), csv_path)
    docs["report:csv"] = metrics_report(read_csv(csv_path))
    return docs


def _kind_selected(errors):
    """The errors, each failed oneOf that tells its branches apart by a
    `kind` const keeping in its context only the branch the instance selects."""
    for err in errors:
        _kind_selected(err.context)
        if err.validator != "oneOf" or not isinstance(err.instance, dict):
            continue
        kinds = [b.get("properties", {}).get("kind", {}).get("const")
                 for b in err.validator_value]
        if None not in kinds and err.instance.get("kind") in kinds:
            branch = kinds.index(err.instance["kind"])
            err.context = [e for e in err.context if e.relative_schema_path[0] == branch]
    return errors


def _same_verdicts(docs, schema, validate, label):
    oracle = jsonschema.Draft202012Validator(schema)
    accepted = rejected = 0
    for name, doc in docs:
        expected = best_match(_kind_selected(list(oracle.iter_errors(doc))))
        try:
            validate(doc)
        except ConfigError as exc:
            assert expected is not None, f"{name}: rejected, oracle accepts: {exc}"
            assert str(exc) == f"{label} at {expected.json_path}: {expected.message}", name
            rejected += 1
        else:
            assert expected is None, f"{name}: accepted, oracle rejects at {expected.json_path}"
            accepted += 1
    return accepted, rejected


class TestAgainstJsonschema:
    @pytest.mark.parametrize("name", [*SCENARIOS, "full"])
    def test_scenario_mutants(self, name):
        doc = FULL_SCENARIO if name == "full" else json.loads(SCENARIOS[name].read_text())
        accepted, rejected = _same_verdicts(mutants(doc), scenario_schema(),
                                            validate_scenario, "scenario config")
        assert accepted and rejected

    def test_ground_effect_documents(self):
        docs = list(GROUND_EFFECT_DOCS.items())
        assert _same_verdicts(docs, scenario_schema(), validate_scenario,
                              "scenario config") == (1, 1)
        with pytest.raises(ConfigError, match="alone on its channel; force/z"):
            build_scenario(GROUND_EFFECT_DOCS["ground_effect_shares_force_z"])

    @pytest.mark.parametrize("name", [f"report:{name}" for name in SCENARIOS]
                             + ["sweep", "compare", "report:csv"])
    def test_report_mutants(self, reports, name):
        accepted, rejected = _same_verdicts(
            ((f"{name} {what}", doc) for what, doc in mutants(reports[name])),
            metrics_schema(), validate_metrics, "metrics report")
        assert rejected and (accepted or name == "report:csv")

    def test_corpus_holds_the_cases_that_trip_a_hand_written_validator(self, reports):
        ground = reports["report:ground_effect"]
        assert ground["bound_check"] is None and ground["gain_condition"] is None
        assert reports["report:hover_step"]["runtime"]["counters"]
        assert [v["epsilon"] for v in reports["sweep"]["variants"]][-1] is None
        with pytest.raises(ConfigError, match=r"at \$\.dt: "):
            validate_metrics(reports["report:csv"])
        for name in ("report:hover_step", "sweep", "compare"):
            validate_metrics(reports[name])


class TestKindSelectedBranch:
    """Where the instance's `kind` picks a oneOf branch, the error named is
    that branch's, not the one `best_match` picks across all branches."""

    @pytest.mark.parametrize("change, plain, ours", [
        ({"trajectory": {"kind": "hover", "target": [1, 2]}},
         "$.trajectory.kind: 'lemniscate' was expected",
         "$.trajectory.target: [1, 2] is too short"),
        ({"disturbances": [{"kind": "dryden", "domain": "force", "axis": "x",
                            "wind_speed": -1}]},
         "$.disturbances[0].axis: 'z' was expected",
         "$.disturbances[0].wind_speed: -1 is less than the minimum of 0"),
    ])
    def test_message_names_the_field(self, change, plain, ours):
        doc = {**json.loads(SCENARIOS["hover_step"].read_text()), **change}
        errors = list(jsonschema.Draft202012Validator(scenario_schema()).iter_errors(doc))
        found = best_match(errors)
        assert f"{found.json_path}: {found.message}" == plain
        found = best_match(_kind_selected(errors))
        assert f"{found.json_path}: {found.message}" == ours
        with pytest.raises(ConfigError) as exc:
            validate_scenario(doc)
        assert str(exc.value) == f"scenario config at {ours}"
