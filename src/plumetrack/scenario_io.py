"""Scenario files: versioned JSON documents describing one run.

The schema is strict: unknown fields and keys given twice in one object
are errors (guards against silent typos in gain names), required fields
are reported by dotted path, and JSON syntax errors carry line and
column.  Sweeps mutate the raw document through dotted paths before
validation, so a bad sweep path surfaces as a normal schema error.

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
a default is required.  Only keys that are not model fields are read
explicitly: the top level, ``vessel.start_pose``, each ``type``, a uniform
flow's ``velocity``, and the grid field, whose ``shape`` and ``init_puff``
make its cells.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

from .field import (HORIZON, FlowField, FrozenGaussian, GaussianPuff,
                    GridField, PuffPlume, stable_dt)
from .guidance import GuidanceGains, SIGN_MODES, SIGN_PDE
from .sensing import NoiseModel, SensorRig
from .simulator import (MAX_STEPS, Scenario, TRACKED_POINTS,
                        expected_records)
from .vessel import VesselParams

SCHEMA_VERSION = 1

# The most emission-train puffs a run may compute: a neighbour-list build
# at t <= duration computes and scans every one released by t + HORIZON.
MAX_TRAIN_PUFFS = 1_000_000


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
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        _fail(f"{path}.{key}", f"expected a non-negative integer, got {v!r}")
    return int(v)


def _str(d: dict, key: str, path: str, default=None, choices=None) -> str:
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, str):
        _fail(f"{path}.{key}", f"expected a string, got {v!r}")
    if choices and v not in choices:
        _fail(f"{path}.{key}", f"expected one of {list(choices)}, got {v!r}")
    return v


def _vec2(d: dict, key: str, path: str):
    v = d.get(key)
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(map(_is_num, v))):
        _fail(f"{path}.{key}", "expected a 2-vector of finite numbers")
    return [float(v[0]), float(v[1])]


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
    kind = _str(flow, "type", path, choices=("uniform", "piecewise"))
    if kind == "uniform":
        _check_keys(flow, path, ["type", "velocity"], [])
        return FlowField.uniform(_vec2(flow, "velocity", path))
    return _model(FlowField, flow, path, extra=["type"])


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
_READERS = {"source": _vec2, "center": _vec2, "point": _vec2,
            "offsets": _array, "velocities": _array, "boundaries": _array,
            "flow": _flow, "seed_puffs": _seed_puffs, "seed": _int}


def _field(d: dict, path: str, duration: float):
    kind = _str(d, "type", path) if isinstance(d, dict) else None
    if kind == "puffs":
        plume = _model(PuffPlume, d, path, extra=["type"])
        n_train = (duration + HORIZON - plume.start_time) / plume.puff_interval
        if plume.emission_rate > 0 and n_train > MAX_TRAIN_PUFFS:
            _fail(path, f"the emission train would release {n_train:.3g} "
                        f"puffs by t = {duration + HORIZON:g} s; "
                        f"at most {MAX_TRAIN_PUFFS:,}")
        return plume
    if kind == "frozen-gaussian":
        return _model(FrozenGaussian, d, path, extra=["type"])
    if kind == "grid":
        _check_keys(d, path,
                    ["type", "origin", "cell_size", "shape", "diffusion",
                     "flow", "init_puff"], ["boundary"])
        shape = d.get("shape")
        if (not isinstance(shape, list) or len(shape) != 2
                or any(isinstance(s, bool) or not isinstance(s, int)
                       for s in shape)):
            _fail(f"{path}.shape", "expected [nx, ny] integers")
        k = _num(d, "diffusion", path)
        flow = _flow(d, "flow", path)
        puff = _model(GaussianPuff, d["init_puff"], f"{path}.init_puff",
                      diffusion=k)
        if puff.release_time >= 0:
            _fail(f"{path}.init_puff.release_time",
                  "must be < 0 so the grid is defined at t = 0")
        with _at(path):
            return GridField.from_puff(
                puff, flow, t=0.0, origin=_vec2(d, "origin", path),
                cell_size=_num(d, "cell_size", path), shape=shape,
                boundary=_str(d, "boundary", path, GridField.boundary,
                              choices=("outflow", "periodic")))
    _fail(f"{path}.type",
          "expected 'puffs', 'frozen-gaussian', or 'grid'")


def _check_grid_substeps(sc: Scenario, path: str):
    """Refuse a grid run that needs more than MAX_STEPS explicit substeps:
    ceil(dt_c / min(physics_substep, stable dt)) per control step, at the
    stable dt of the fastest flow segment.  A stable dt of 0 (the bound
    underflowed) is too many."""
    grid = sc.field0
    fastest = max(grid.flow.velocities, key=lambda v: abs(v[0]) + abs(v[1]))
    dt = min(sc.physics_substep,
             stable_dt(fastest, grid.cell_size, grid.diffusion))
    per_step = sc.control_period / dt if dt > 0 else math.inf
    steps = expected_records(sc.duration, sc.control_period) - 1
    if steps * math.ceil(min(per_step, MAX_STEPS + 1)) > MAX_STEPS:
        _fail(path, f"{steps:,} control steps need more than {MAX_STEPS:,} "
                    f"explicit grid substeps of {dt:.3g} s")


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
    substep = _num(doc, "physics_substep", origin, control_period)

    rig = (_model(SensorRig, doc["rig"], f"{origin}.rig") if "rig" in doc
           else SensorRig.cross())
    noise = _model(NoiseModel, doc.get("noise", {}), f"{origin}.noise")

    vp = doc["vessel"]
    params = _model(VesselParams, vp, f"{origin}.vessel", extra=["start_pose"])
    pose = vp["start_pose"]
    if (not isinstance(pose, list) or len(pose) != 3
            or not all(map(_is_num, pose))):
        _fail(f"{origin}.vessel.start_pose",
              "expected [x, y, theta] of finite numbers")
    gains = _model(GuidanceGains, doc["gains"], f"{origin}.gains")

    duration = _num(doc, "duration", origin)
    with _at(origin):
        scenario = Scenario(
            name=_str(doc, "name", origin, "scenario"),
            seed=_int(doc, "seed", origin, 0),
            duration=duration,
            control_period=control_period,
            physics_substep=substep,
            sign_convention=_str(doc, "sign_convention", origin, SIGN_PDE,
                                 choices=SIGN_MODES),
            tracked_point=_str(doc, "tracked_point", origin, "head",
                               choices=TRACKED_POINTS),
            flow_noise_sigma=_num(doc, "flow_noise_sigma", origin, 0.0),
            field0=_field(doc["field"], f"{origin}.field", duration),
            rig=rig,
            noise=noise,
            params=params,
            start_pose=(float(pose[0]), float(pose[1]), float(pose[2])),
            gains=gains,
        )
    if isinstance(scenario.field0, GridField):
        _check_grid_substeps(scenario, f"{origin}.field")
    return scenario


def load_raw(path) -> dict:
    """Read a scenario JSON document; syntax errors carry line:col, and a
    key given twice in one object is refused, not left to the last."""
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

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
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
