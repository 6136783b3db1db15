"""Scenario files: JSON documents validated against the shipped schema.

A document must carry `"schema": "hgdosim-scenario-1"` and may only use known
keys; anything else is rejected up front with the offending JSON path, so a
typo in a gain name fails loudly instead of silently running defaults.

The schemas are checked by a small validator in this module. It implements
the JSON Schema 2020-12 keywords the two shipped schemas use, and it picks
the error to report as `jsonschema.exceptions.best_match` does. A schema that
uses any other keyword is refused when it is loaded.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from functools import lru_cache
from importlib import resources
from numbers import Number
from pathlib import Path

import numpy as np

from .control import SmcGains
from .disturbances import (
    CompositeSinusoid,
    Constant,
    DrydenGust,
    GroundEffect,
    Scaled,
    Sum,
    WhiteNoise,
)
from .quad import MICRO_QUAD
from .sim import ScenarioConfig
from .trajectories import HoverRamp, Lemniscate

SCENARIO_SCHEMA_ID = "hgdosim-scenario-1"
METRICS_SCHEMA_ID = "hgdosim-metrics-1"

_AXIS = {"x": 0, "y": 1, "z": 2}
_WIND_AXIS = ("u", "v", "w")


class ConfigError(ValueError):
    """Configuration rejected; the message carries the JSON path."""


_REF = "#/$defs/"
_ANNOTATIONS = frozenset({"$schema", "$id", "title"})
_KEYWORDS = frozenset({
    "$ref", "type", "enum", "const", "properties", "required",
    "additionalProperties", "items", "minItems", "maxItems", "minLength",
    "minimum", "exclusiveMinimum", "oneOf", "not"})
# JSON Schema's types as jsonschema checks them: a bool is neither a number
# nor an integer, and a float with no fractional part is an integer.
_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, Number) and not isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _check_schema(schema, root=None, where="#") -> None:
    """Raise ValueError if `schema` uses anything the validator does not implement."""
    root = schema if root is None else root
    if not isinstance(schema, dict):
        raise ValueError(f"schema at {where} must be an object")
    for kw, val in schema.items():
        at = f"{where}/{kw}"
        if kw == "properties" or (kw == "$defs" and where == "#"):
            for name, sub in val.items():
                _check_schema(sub, root, f"{at}/{name}")
        elif kw in ("items", "not") or (kw == "additionalProperties" and val is not False):
            _check_schema(val, root, at)
        elif kw == "oneOf":
            for i, sub in enumerate(val):
                _check_schema(sub, root, f"{at}/{i}")
        elif kw == "$ref":
            if not (isinstance(val, str) and val.startswith(_REF)
                    and val[len(_REF):] in root.get("$defs", {})):
                raise ValueError(f"unsupported $ref {val!r} at {where}")
        elif kw == "type":
            if not set([val] if isinstance(val, str) else val) <= _TYPES.keys():
                raise ValueError(f"unknown type {val!r} at {at}")
        elif kw in ("enum", "const"):
            if not all(isinstance(v, str) for v in (val if kw == "enum" else [val])):
                raise ValueError(f"only string values are supported at {at}")
        elif kw not in _KEYWORDS and kw not in _ANNOTATIONS:
            raise ValueError(f"unsupported schema keyword {kw!r} at {where}")


@lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    text = resources.files("hgdosim").joinpath(f"schemas/{name}").read_text()
    schema = json.loads(text)
    _check_schema(schema)
    return schema


def scenario_schema() -> dict:
    return _schema("scenario.schema.json")


def metrics_schema() -> dict:
    return _schema("metrics.schema.json")


class _Error:
    """One failed keyword: its path (from the document root, or for a oneOf
    branch's error from the oneOf's instance), its message, and what
    `_relevance` needs to rank it."""

    __slots__ = ("message", "context", "path", "keyword", "schema", "instance")

    def __init__(self, message: str, context=()):
        self.message, self.context = message, context
        self.path = []
        self.keyword = None


def _errors(inst, schema: dict, root: dict):
    for kw, val in schema.items():
        for err in _keyword_errors(kw, val, inst, schema, root):
            if err.keyword is None:
                err.keyword, err.schema, err.instance = kw, schema, inst
            yield err


def _descend(inst, schema: dict, root: dict, key):
    for err in _errors(inst, schema, root):
        err.path.insert(0, key)
        yield err


def _valid(inst, schema: dict, root: dict) -> bool:
    return next(_errors(inst, schema, root), None) is None


def _keyword_errors(kw, val, inst, schema, root):
    if kw == "$ref":
        yield from _errors(inst, root["$defs"][val[len(_REF):]], root)
    elif kw == "type":
        types = [val] if isinstance(val, str) else val
        if not any(_TYPES[t](inst) for t in types):
            yield _Error(f"{inst!r} is not of type {', '.join(map(repr, types))}")
    elif kw == "enum":
        if not (isinstance(inst, str) and inst in val):
            yield _Error(f"{inst!r} is not one of {val!r}")
    elif kw == "const":
        if not (isinstance(inst, str) and inst == val):
            yield _Error(f"{val!r} was expected")
    elif kw == "minimum":
        # NaN compares false, so it passes, as in jsonschema
        if _TYPES["number"](inst) and inst < val:
            yield _Error(f"{inst!r} is less than the minimum of {val!r}")
    elif kw == "exclusiveMinimum":
        if _TYPES["number"](inst) and inst <= val:
            yield _Error(f"{inst!r} is less than or equal to the minimum of {val!r}")
    elif kw == "minLength":
        if isinstance(inst, str) and len(inst) < val:
            yield _Error(f"{inst!r} {'should be non-empty' if val == 1 else 'is too short'}")
    elif kw == "minItems":
        if isinstance(inst, list) and len(inst) < val:
            yield _Error(f"{inst!r} {'should be non-empty' if val == 1 else 'is too short'}")
    elif kw == "maxItems":
        if isinstance(inst, list) and len(inst) > val:
            yield _Error(f"{inst!r} {'is expected to be empty' if val == 0 else 'is too long'}")
    elif kw == "items":
        if isinstance(inst, list):
            for i, item in enumerate(inst):
                yield from _descend(item, val, root, i)
    elif kw == "properties":
        if isinstance(inst, dict):
            for name, sub in val.items():
                if name in inst:
                    yield from _descend(inst[name], sub, root, name)
    elif kw == "required":
        if isinstance(inst, dict):
            for name in val:
                if name not in inst:
                    yield _Error(f"{name!r} is a required property")
    elif kw == "additionalProperties":
        if isinstance(inst, dict):
            known = schema.get("properties", {})
            extras = [name for name in inst if name not in known]
            if val is not False:
                for name in extras:
                    yield from _descend(inst[name], val, root, name)
            elif extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                yield _Error(f"Additional properties are not allowed ({names} {verb} unexpected)")
    elif kw == "oneOf":
        branches = iter(val)
        context = []
        for sub in branches:
            errs = list(_errors(inst, sub, root))
            if not errs:
                first_valid = sub
                break
            context.extend(errs)
        else:
            yield _Error(f"{inst!r} is not valid under any of the given schemas", context)
            return
        more = [sub for sub in branches if _valid(inst, sub, root)]
        if more:
            reprs = ", ".join(map(repr, more + [first_valid]))
            yield _Error(f"{inst!r} is valid under each of {reprs}")
    elif kw == "not":
        if _valid(inst, val, root):
            yield _Error(f"{inst!r} should not be valid under {val!r}")


def _relevance(err: _Error):
    # jsonschema's `relevance` key: shallow errors first, then the later
    # sibling, then anything but a oneOf, then an error whose schema's type
    # the instance does not even match
    types = err.schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    return (-len(err.path), err.path, err.keyword != "oneOf",
            not any(_TYPES[t](err.instance) for t in types))


def _kind_branch(err: _Error, root: dict):
    """For a failed oneOf whose branches all pin `kind` with a const, the
    errors of the branch the instance's own `kind` selects (None if it
    selects none)."""
    if not isinstance(err.instance, dict):
        return None
    branches = err.schema["oneOf"]
    kinds = [b.get("properties", {}).get("kind", {}).get("const") for b in branches]
    if None in kinds or err.instance.get("kind") not in kinds:
        return None
    return list(_errors(err.instance, branches[kinds.index(err.instance["kind"])], root))


def _best_error(doc, schema: dict) -> tuple[list, str] | None:
    """The error to report, as (absolute path, message): the one
    `jsonschema.exceptions.best_match` picks, except that a oneOf whose
    branches are told apart by `kind` descends into the selected branch's
    errors only."""
    best = max(_errors(doc, schema, schema), key=_relevance, default=None)
    if best is None:
        return None
    prefix = []
    # a oneOf error stands for its branches' errors: descend to the most
    # specific one, unless the two most specific are ranked equal
    while best.context:
        context = _kind_branch(best, schema) or best.context
        first, *rest = sorted(context, key=_relevance)[:2]
        if rest and _relevance(first) == _relevance(rest[0]):
            break
        prefix += best.path
        best = first
    return prefix + best.path, best.message


def _json_path(path: list) -> str:
    out = "$"
    for elem in path:
        if isinstance(elem, int):
            out += f"[{elem}]"
        elif _PLAIN_KEY.match(elem):
            out += "." + elem
        else:
            out += "['" + elem.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


def _validate(doc, schema: dict, label: str) -> None:
    found = _best_error(doc, schema)
    if found is not None:
        path, message = found
        raise ConfigError(f"{label} at {_json_path(path)}: {message}")


def validate_scenario(doc: dict) -> None:
    _validate(doc, scenario_schema(), "scenario config")


def validate_metrics(doc: dict) -> None:
    _validate(doc, metrics_schema(), "metrics report")


def _build_trajectory(doc: dict):
    if doc["kind"] == "lemniscate":
        return Lemniscate(amplitude=float(doc.get("amplitude", 0.5)),
                          period=float(doc.get("period", 40.0)),
                          height=float(doc.get("height", 0.5)),
                          yaw_angle=float(doc.get("yaw", 0.0)))
    return HoverRamp(target=np.asarray(doc.get("target", [0.0, 0.0, 0.5]), dtype=float),
                     start=np.asarray(doc.get("start", [0.0, 0.0, 0.0]), dtype=float),
                     ramp_time=float(doc.get("ramp_time", 0.0)),
                     yaw_angle=float(doc.get("yaw", 0.0)))


def _build_signal(entry: dict, dt: float, axis: int):
    kind = entry["kind"]
    if kind == "constant":
        sig = Constant(float(entry["value"]))
    elif kind == "composite":
        sig = CompositeSinusoid()
        if "scale" in entry:
            sig = Scaled(sig, float(entry["scale"]))
    elif kind == "white_noise":
        sig = WhiteNoise(float(entry["power"]))
    elif kind == "dryden":
        sig = DrydenGust(entry.get("wind_axis", _WIND_AXIS[axis]),
                         wind_speed=float(entry.get("wind_speed", 1.11)),
                         altitude=float(entry.get("altitude", 0.5)),
                         airspeed=float(entry.get("airspeed", 2.0)),
                         accel_gain=float(entry.get("accel_gain", 0.5)),
                         dt=dt)
    elif kind == "ground_effect":
        sig = GroundEffect(strength=float(entry.get("strength", 0.3)),
                           z_ref=float(entry.get("z_ref", 0.3)))
    else:  # unreachable behind the schema
        raise ConfigError(f"unknown disturbance kind {kind!r}")
    if "seed" in entry and sig.stochastic:
        sig.seed = int(entry["seed"])
    return sig


def _combine(slot: list, where: str):
    if not slot:
        return None
    if len(slot) == 1:
        return slot[0]
    if any(s.stochastic for s in slot):
        raise ConfigError(
            f"at most one stochastic signal per channel; {where} has {len(slot)}")
    return Sum(slot)


def _build_gains(doc: dict) -> SmcGains:
    kw = {}
    for src, dst in (("lambda1", "lam1"), ("lambda2", "lam2"), ("k1", "k1"),
                     ("k2", "k2"), ("l1", "l1"), ("l2", "l2")):
        if src in doc:
            kw[dst] = np.asarray(doc[src], dtype=float)
    for name in ("mu", "uz_min"):
        if name in doc:
            kw[name] = float(doc[name])
    if "u1_max" in doc:
        kw["u1_max"] = None if doc["u1_max"] is None else float(doc["u1_max"])
    if "tau_max" in doc:
        kw["tau_max"] = (None if doc["tau_max"] is None
                         else np.asarray(doc["tau_max"], dtype=float))
    return SmcGains(**kw)


def _check_floats(doc, path=()) -> None:
    """Raise ConfigError at the first integer, outside a seed, that no float
    can hold. JSON integers bypass the float parsing, and every number but
    a seed is converted to a float somewhere; seeds may be any size."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            if key != "seed":
                _check_floats(val, (*path, key))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            _check_floats(val, (*path, i))
    elif isinstance(doc, int) and not isinstance(doc, bool):
        try:
            float(doc)
        except OverflowError:
            raise ConfigError(f"scenario config at {_json_path(list(path))}: integer of "
                              f"{len(str(abs(doc)))} digits is too large for a float") from None


def build_scenario(doc: dict) -> ScenarioConfig:
    """Turn a validated document into a runnable ScenarioConfig."""
    _check_floats(doc)
    dt = float(doc.get("dt", 0.002))
    slots = {("force", i): [] for i in range(3)}
    slots.update({("torque", i): [] for i in range(3)})
    for entry in doc.get("disturbances", []):
        axis = _AXIS[entry["axis"]]
        slots[(entry["domain"], axis)].append(_build_signal(entry, dt, axis))

    force = tuple(_combine(slots[("force", i)], f"force/{a}")
                  for i, a in enumerate("xyz"))
    torque = tuple(_combine(slots[("torque", i)], f"torque/{a}")
                   for i, a in enumerate("xyz"))

    noise_power = float(doc.get("noise_power", 0.0))
    stochastic = noise_power > 0.0 or any(
        s is not None and s.stochastic for s in force + torque)
    if stochastic and "seed" not in doc:
        raise ConfigError(
            "seed is required when noise or a stochastic disturbance is configured")

    initial = doc.get("initial", {})
    kw = dict(
        name=doc["name"],
        duration=float(doc.get("duration", 10.0)),
        dt=dt,
        outer_divisor=int(doc.get("outer_divisor", 5)),
        seed=int(doc.get("seed", 0)),
        epsilon1=float(doc.get("epsilon1", 0.01)),
        epsilon2=float(doc.get("epsilon2", 0.01)),
        observer=doc.get("observer", "hgdo"),
        trajectory=_build_trajectory(doc.get("trajectory", {"kind": "hover"})),
        force_signals=force,
        torque_signals=torque,
        noise_power=noise_power,
        allocate=bool(doc.get("allocate", True)),
        plant=doc.get("plant", "canonical"),
        substeps=None if doc.get("substeps") is None else int(doc["substeps"]),
    )
    for src, dst in (("position", "pos0"), ("velocity", "vel0"),
                     ("attitude", "att0"), ("rates", "rate0")):
        if src in initial:
            kw[dst] = np.asarray(initial[src], dtype=float)
    if "vehicle" in doc:
        kw["vehicle"] = dataclasses.replace(MICRO_QUAD, **doc["vehicle"])
    if "gains" in doc:
        kw["gains"] = _build_gains(doc["gains"])
    try:
        return ScenarioConfig(**kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_scenario(doc: dict) -> ScenarioConfig:
    validate_scenario(doc)
    return build_scenario(doc)


def _finite(token: str) -> float:
    """Parse a JSON number, refusing Python's NaN and Infinity extensions and
    literals such as 1e999 that overflow to infinity."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token} is not allowed")
    return value


def _integer(token: str) -> int:
    """Parse a JSON integer, refusing one too long for int() to convert."""
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"integer literal of {len(token)} digits is too long") from None


def load_scenario(path) -> ScenarioConfig:
    """Read, validate and build a scenario file; all failures raise ConfigError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_float=_finite, parse_int=_integer,
                         parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    try:
        return parse_scenario(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
