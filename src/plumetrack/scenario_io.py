"""Scenario files: versioned JSON documents describing one run.

The schema is strict: unknown fields, keys given twice in one object
and integer literals longer than Python converts are errors (guards
against silent typos in gain names), required fields are reported by
dotted path, and JSON syntax errors carry line and column.  Sweeps
mutate the raw document through dotted paths before validation, so a
bad sweep path surfaces as a normal schema error.  This module checks
only keys and JSON types (finite numbers, integers, strings, arrays of
finite numbers).  Every rule on a value (its range, length or choice)
and every limit on a run is judged once, by ``Scenario`` or the model
it holds, for library-built scenarios too; a refusal is reported at the
path of the section that builds the model.

Top-level layout (see ``scenarios/`` for complete examples)::

    {
      "schema": 1,
      "name": "case1",
      "seed": 1,
      "duration": 60.0,
      "control_period": 0.05,
      "physics_substep": 0.05,
      "sign_convention": "pde-derived" | "advection-opposed",
      "tracked_point": "head" | "center",
      "flow_noise_sigma": 0.0,
      "field":  {"type": "puffs" | "frozen-gaussian" | "grid", ...},
      "rig":    {"offsets": [[...], x4]},
      "noise":  {"sigma": 2.0, "floor": ..., "range_max": ..., "seed": ...},
      "vessel": {"start_pose": [x, y, theta], "offset": ...,
                 "nu_max": ..., "omega_max": ...},
      "gains":  {"c0": 50, "k": 1.2, "k1": 5, "k2": 11, "v_d": 1.5,
                 "grad_floor": ...}
    }

Each section that builds one model (``noise``, ``vessel``, ``gains``,
``rig``, a ``puffs`` or ``frozen-gaussian`` field, a seed puff, a piecewise
flow) takes that model's fields as its keys and defaults: a field without
a default is required.  Keys that are no model field are read by name:
the top level, ``vessel.start_pose``, each ``type``, a uniform flow's
``velocity``, and a grid, whose ``shape`` and ``init_puff`` make its cells.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

from .field import FlowField, FrozenGaussian, GaussianPuff, GridField, PuffPlume
from .guidance import GuidanceGains, SIGN_PDE
from .sensing import NoiseModel, SensorRig
from .simulator import Scenario
from .vessel import VesselParams

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario file is syntactically or semantically invalid."""


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


@contextmanager
def _at(path: str):
    """Report a model's ValueError (or a value it cannot convert) as a
    ScenarioError at ``path``."""
    try:
        yield
    except ScenarioError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        _fail(path, str(exc))


def _check_keys(d: dict, path: str, required, optional):
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        _fail(path, f"unknown field(s): {', '.join(unknown)}")
    for key in required:
        if key not in d:
            _fail(path, f"missing required field '{key}'")


def _is_num(v) -> bool:
    """A JSON number that is finite as a float (NaN, Infinity and ints
    beyond the float range are not; neither are booleans)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _num(d: dict, key: str, path: str, default=None) -> float:
    if key not in d:
        return default
    v = d[key]
    if not _is_num(v):
        _fail(f"{path}.{key}", f"expected a finite number, got {v!r}")
    return float(v)


def _int(d: dict, key: str, path: str, default=None):
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _str(d: dict, key: str, path: str, default=None) -> str:
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, str):
        _fail(f"{path}.{key}", f"expected a string, got {v!r}")
    return v


def _array(d: dict, key: str, path: str) -> list:
    """``d[key]``, a list nested to any depth, whose every entry is a
    finite number as ``_num`` requires (the models' float conversion
    would also take booleans and numeric strings).  The model checks the
    shape and converts the numbers."""
    todo = [d[key]]
    while todo:
        v = todo.pop()
        if isinstance(v, list):
            todo.extend(v)
        elif v is d[key] or not _is_num(v):     # a bare number is no array
            _fail(f"{path}.{key}",
                  f"expected an array of finite numbers, got {v!r}")
    return d[key]


def _flow(d: dict, key: str, path: str) -> FlowField:
    flow, path = d[key], f"{path}.{key}"
    _check_keys(flow, path, ["type"], ["velocity", "boundaries", "velocities"])
    kind = _str(flow, "type", path)
    if kind == "uniform":
        _check_keys(flow, path, ["type", "velocity"], [])
        with _at(path):
            return FlowField.uniform(_array(flow, "velocity", path))
    if kind == "piecewise":
        return _model(FlowField, flow, path, extra=["type"])
    _fail(f"{path}.type", f"expected 'uniform' or 'piecewise', got {kind!r}")


def _seed_puffs(d: dict, key: str, path: str) -> tuple:
    """A puff field's seed puffs, each with the field's diffusion."""
    if not isinstance(d[key], list):
        _fail(f"{path}.{key}", "expected a list")
    k = _num(d, "diffusion", path)
    return tuple(_model(GaussianPuff, p, f"{path}.{key}[{i}]", diffusion=k)
                 for i, p in enumerate(d[key]))


def _model(cls, d: dict, path: str, extra=(), **given):
    """Build ``cls`` from the object ``d`` at ``path``.  Each field not in
    ``given`` is a key, required when the field has no default and read by
    its ``_READERS`` entry or as a finite number; ``extra`` names required
    keys that are not fields, which the caller reads itself."""
    keys = [f for f in fields(cls) if f.name not in given]
    required = [f.name for f in keys if f.default is MISSING]
    _check_keys(d, path, [*extra, *required], [f.name for f in keys])
    with _at(path):
        values = {f.name: _READERS.get(f.name, _num)(d, f.name, path)
                  for f in keys if f.name in d}
        return cls(**given, **values)


# The reader of each model field that is not a plain number.
_READERS = {"source": _array, "center": _array, "point": _array,
            "offsets": _array, "velocities": _array, "boundaries": _array,
            "flow": _flow, "seed_puffs": _seed_puffs, "seed": _int}


def _field(d: dict, path: str):
    kind = _str(d, "type", path) if isinstance(d, dict) else None
    if kind == "puffs":
        return _model(PuffPlume, d, path, extra=["type"])
    if kind == "frozen-gaussian":
        return _model(FrozenGaussian, d, path, extra=["type"])
    if kind == "grid":
        _check_keys(d, path,
                    ["type", "origin", "cell_size", "shape", "diffusion",
                     "flow", "init_puff"], ["boundary"])
        flow = _flow(d, "flow", path)
        puff = _model(GaussianPuff, d["init_puff"], f"{path}.init_puff",
                      diffusion=_num(d, "diffusion", path))
        with _at(path):
            return GridField.from_puff(
                puff, flow, t=0.0, origin=_array(d, "origin", path),
                cell_size=_num(d, "cell_size", path), shape=d["shape"],
                boundary=_str(d, "boundary", path, GridField.boundary))
    _fail(f"{path}.type",
          "expected 'puffs', 'frozen-gaussian', or 'grid'")


def scenario_from_dict(doc: dict, origin: str = "<scenario>") -> Scenario:
    """Validate a raw scenario document and build the Scenario."""
    top_req = ["schema", "duration", "field", "vessel", "gains"]
    top_opt = ["name", "seed", "control_period", "physics_substep",
               "sign_convention", "tracked_point", "flow_noise_sigma",
               "rig", "noise"]
    _check_keys(doc, origin, top_req, top_opt)
    if isinstance(doc["schema"], bool) or doc["schema"] != SCHEMA_VERSION:
        _fail(f"{origin}.schema",
              f"unsupported schema {doc['schema']!r}; expected {SCHEMA_VERSION}")

    control_period = _num(doc, "control_period", origin, 0.05)
    vessel, at_vessel = doc["vessel"], f"{origin}.vessel"
    with _at(origin):
        return Scenario(
            name=_str(doc, "name", origin, "scenario"),
            seed=_int(doc, "seed", origin, 0),
            duration=_num(doc, "duration", origin),
            control_period=control_period,
            physics_substep=_num(doc, "physics_substep", origin,
                                 control_period),
            sign_convention=_str(doc, "sign_convention", origin, SIGN_PDE),
            tracked_point=_str(doc, "tracked_point", origin, "head"),
            flow_noise_sigma=_num(doc, "flow_noise_sigma", origin, 0.0),
            field0=_field(doc["field"], f"{origin}.field"),
            rig=(_model(SensorRig, doc["rig"], f"{origin}.rig")
                 if "rig" in doc else SensorRig.cross()),
            noise=_model(NoiseModel, doc.get("noise", {}), f"{origin}.noise"),
            params=_model(VesselParams, vessel, at_vessel,
                          extra=["start_pose"]),
            start_pose=_array(vessel, "start_pose", at_vessel),
            gains=_model(GuidanceGains, doc["gains"], f"{origin}.gains"),
        )


def load_raw(path) -> dict:
    """Read a scenario JSON document; syntax errors carry line:col, a
    key given twice in one object is refused, not left to the last, and
    so is an integer literal longer than Python converts
    (``sys.get_int_max_str_digits``, 4,300 digits by default)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{p}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ScenarioError(f"{p}: not UTF-8 text") from None

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ScenarioError(f"{p}: duplicate key {key!r}")
            obj[key] = value
        return obj

    def integer(literal):
        try:
            return int(literal)
        except ValueError:
            raise ScenarioError(
                f"{p}: integer literal of {len(literal.lstrip('-')):,} "
                f"digits; at most {sys.get_int_max_str_digits():,}") from None

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys,
                         parse_int=integer)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioError(f"{p}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{p}: top level must be an object")
    return doc


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    return scenario_from_dict(load_raw(path), origin=str(path))


def set_path(doc: dict, dotted: str, value):
    """Set a scenario field addressed by a dotted path (for sweeps).

    Intermediate objects must already exist; the final key may be new (it
    will then be caught by schema validation if it is not a real field).
    """
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ScenarioError(f"sweep path '{dotted}': no object '{part}'")
        node = node[part]
    if not isinstance(node, dict):
        raise ScenarioError(f"sweep path '{dotted}': cannot descend into a value")
    node[parts[-1]] = value


def parse_sweep_value(text: str):
    """Number if it parses as one, else the bare string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
