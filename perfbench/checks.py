"""Output checks that do not go through ``plumetrack.field``.

The closed forms are evaluated here, from the scenario document alone:

* the puff-train sum for ``puffs`` fields and the translating Gaussian for
  ``frozen-gaussian`` fields.  The ``ctrue`` column is checked against it
  at the logged head point, and the sensor readings at positions rebuilt
  from the logged pose and the document's rig;
* for ``grid`` fields, ``chat`` against the analytic puff at the stencil
  centre, within the 2%-of-peak gate of the grid-vs-puff acceptance test;
* for every run: exit code 0, the full number of rows, the fixed 23-column
  header, the logged times, and a ``metrics.json`` whose numbers are finite.

Each check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

COLUMNS = ("t", "x", "y", "theta", "zx", "zy", "xhat", "yhat",
           "c1", "c2", "c3", "c4", "chat", "gx", "gy", "lap",
           "ux", "uy", "nu", "omega", "sat", "status", "ctrue")

# The log keeps 9 significant digits, so values and the positions they are
# taken at each carry a relative rounding error of 5e-9.  The tolerances
# sit well above that and well below any change in the physics.
REL_TOL = 1e-6
ABS_TOL = 1e-7          # ppb
GRID_PEAK_SHARE = 0.02  # grid-vs-puff gate, share of the analytic peak
NOISE_SIGMAS = 8.0      # noisy readings stay within this many sigma
ROW_CHUNK = 64


def expected_rows(doc: dict) -> int:
    """Records of a completed run: floor(duration / dt_c) + 1."""
    return int(math.floor(doc["duration"] / doc["control_period"] + 1e-9)) + 1


def read_log(text: str) -> dict:
    """Columns of a ``log.csv``: float arrays, ``status`` as strings, and
    ``ctrue`` with NaN for an empty cell."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError("log.csv header is not the 23-column contract")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(COLUMNS) for r in rows):
        raise ValueError("log.csv row with the wrong number of cells")
    cols = {}
    for j, name in enumerate(COLUMNS):
        cells = [r[j] for r in rows]
        if name == "status":
            cols[name] = cells
        else:
            cols[name] = np.array([float(c) if c != "" else math.nan
                                   for c in cells])
    return cols


def _flow_velocity(field: dict) -> np.ndarray:
    flow = field["flow"]
    if flow["type"] != "uniform":
        raise ValueError("closed forms here cover uniform flow only")
    return np.asarray(flow["velocity"], dtype=float)


def puff_releases(field: dict, t_max: float):
    """(release times, points, strengths) of every puff released before
    t_max: the seed puffs, then the emission train."""
    t0s, pts, qs = [], [], []
    for p in field.get("seed_puffs", []):
        t0s.append(float(p["release_time"]))
        pts.append(p["point"])
        qs.append(float(p["strength"]))
    rate = float(field.get("emission_rate", 0.0))
    interval = float(field.get("puff_interval", 0.5))
    start = float(field.get("start_time", 0.0))
    if rate > 0 and t_max > start:
        n = int(math.ceil((t_max - start) / interval)) + 1
        train = start + interval * np.arange(n)
        train = train[train < t_max]
        t0s.extend(train.tolist())
        pts.extend([field["source"]] * train.size)
        qs.extend([rate * interval] * train.size)
    return (np.asarray(t0s, dtype=float),
            np.asarray(pts, dtype=float).reshape(-1, 2),
            np.asarray(qs, dtype=float))


def truth(field: dict, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Closed-form concentration of an analytic field document.

    ``t`` has shape (n,), ``points`` (n, m, 2); returns (n, m).  Puffs
    count only once released (release time strictly before t).
    """
    t = np.asarray(t, dtype=float)
    points = np.asarray(points, dtype=float)
    v = _flow_velocity(field)
    if field["type"] == "frozen-gaussian":
        centre = np.asarray(field["center"], float)[None, :] + v[None, :] * t[:, None]
        d = points - centre[:, None, :]
        r2 = np.einsum("nmk,nmk->nm", d, d)
        s2 = float(field["sigma"]) ** 2
        return float(field["peak"]) * np.exp(-r2 / (2.0 * s2))
    if field["type"] != "puffs":
        raise ValueError(f"no closed form for field type {field['type']!r}")
    k = float(field["diffusion"])
    out = np.empty(points.shape[:2])
    for lo in range(0, t.size, ROW_CHUNK):
        tc, pc = t[lo:lo + ROW_CHUNK], points[lo:lo + ROW_CHUNK]
        t0s, origins, qs = puff_releases(field, float(tc.max()))
        tau = tc[:, None] - t0s[None, :]                           # (b, p)
        live = tau > 0
        tau = np.where(live, tau, 1.0)
        four_kt = 4.0 * k * tau
        peak = np.where(live, qs[None, :] / (math.pi * four_kt), 0.0)
        cx = origins[None, :, 0] + v[0] * tau                      # (b, p)
        cy = origins[None, :, 1] + v[1] * tau
        dx = pc[:, :, 0, None] - cx[:, None, :]                    # (b, m, p)
        dy = pc[:, :, 1, None] - cy[:, None, :]
        e = np.exp(-(dx * dx + dy * dy) / four_kt[:, None, :])
        out[lo:lo + ROW_CHUNK] = (peak[:, None, :] * e).sum(axis=2)
    return out


def sensor_positions(doc: dict, log: dict) -> np.ndarray:
    """Sensor world positions rebuilt from the logged pose: (n, 4, 2)."""
    offsets = np.asarray(doc["rig"]["offsets"], dtype=float)
    c, s = np.cos(log["theta"]), np.sin(log["theta"])
    ox = c[:, None] * offsets[None, :, 0] - s[:, None] * offsets[None, :, 1]
    oy = s[:, None] * offsets[None, :, 0] + c[:, None] * offsets[None, :, 1]
    return np.stack([log["x"][:, None] + ox, log["y"][:, None] + oy], axis=2)


def log_points(log: dict) -> np.ndarray:
    """Logged head points as (n, 1, 2)."""
    return np.stack([log["zx"], log["zy"]], axis=1)[:, None, :]


def _mismatch(name: str, got: np.ndarray, want: np.ndarray, tol: np.ndarray):
    bad = ~(np.abs(got - want) <= tol)
    if not bad.any():
        return []
    i = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return [f"{name}: {int(bad.sum())} cell(s) off the closed form, "
            f"first at row {i[0]}: {float(got[i])!r} vs {float(want[i])!r}"]


def check_log_against_truth(doc: dict, log: dict) -> list[str]:
    """Field-level checks of one log against the document's closed form."""
    field = doc["field"]
    noise = doc.get("noise", {})
    sigma = float(noise.get("sigma", 0.0))
    floor = float(noise.get("floor", 0.01))
    range_max = float(noise.get("range_max", 10000.0))

    if field["type"] == "grid":
        # chat against the analytic puff at the stencil centre
        puff = dict(field["init_puff"])
        ref = {"type": "puffs", "diffusion": field["diffusion"],
               "flow": field["flow"], "source": puff["point"],
               "seed_puffs": [puff]}
        centre = np.stack([log["x"], log["y"]], axis=1)[:, None, :]
        c_ref = truth(ref, log["t"], centre)[:, 0]
        tau = log["t"] - float(puff["release_time"])
        peak = float(puff["strength"]) / (4.0 * math.pi * float(field["diffusion"]) * tau)
        problems = _mismatch("chat vs analytic puff", log["chat"], c_ref,
                             GRID_PEAK_SHARE * peak)
        if not np.isnan(log["ctrue"]).all():
            problems.append("ctrue logged for a field without an oracle")
        return problems

    readings = np.stack([log[f"c{i}"] for i in range(1, 5)], axis=1)
    points = np.concatenate([log_points(log), sensor_positions(doc, log)],
                            axis=1)
    c = truth(field, log["t"], points)
    c_head, c_sens = c[:, 0], c[:, 1:]
    problems = _mismatch("ctrue", log["ctrue"], c_head,
                         REL_TOL * np.abs(c_head) + ABS_TOL)
    tol = REL_TOL * np.abs(c_sens) + ABS_TOL
    if sigma == 0.0:
        clean = np.clip(c_sens, 0.0, range_max)
        want = np.where(clean < floor, 0.0, clean)
        # a true value within tolerance of the floor may read either way
        at_floor = np.abs(clean - floor) <= tol
        got = np.where(at_floor, want, readings)
        problems += _mismatch("sensor readings", got, want, tol)
    else:
        lo = np.clip(c_sens - NOISE_SIGMAS * sigma, 0.0, range_max) - tol
        hi = np.clip(c_sens + NOISE_SIGMAS * sigma, 0.0, range_max) + tol
        ok = ((readings >= lo) & (readings <= hi)) | \
             ((readings == 0.0) & (lo < floor))
        if not ok.all():
            problems.append(f"sensor readings: {int((~ok).sum())} noisy "
                            f"reading(s) beyond {NOISE_SIGMAS:g} sigma")
    return problems


def _finite_numbers(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return False


def check_run(doc: dict, exit_code: int, log_text: str | None,
              metrics_text: str | None) -> list[str]:
    """Every check of one ``plume run`` (or sweep member) output."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if log_text is None or metrics_text is None:
        return ["log.csv or metrics.json missing"]
    try:
        log = read_log(log_text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    rows = log["t"].size
    want_rows = expected_rows(doc)
    if rows != want_rows:
        return [f"{rows} rows, expected {want_rows}"]
    t_want = np.arange(rows) * float(doc["control_period"])
    problems += _mismatch("t", log["t"], t_want, 1e-8 * np.maximum(1.0, t_want))
    try:
        metrics = json.loads(metrics_text)
    except json.JSONDecodeError as exc:
        return problems + [f"metrics.json: {exc}"]
    bad = sorted(k for k, v in metrics.items() if not _finite_numbers(v))
    if bad:
        problems.append(f"metrics.json: non-finite {', '.join(bad)}")
    if metrics.get("truncated") is not False:
        problems.append("metrics.json: run truncated")
    problems += check_log_against_truth(doc, log)
    return problems


def read_outputs(out_dir: Path):
    """(log.csv text, metrics.json text), None for a missing file."""
    def text(name):
        p = Path(out_dir) / name
        return p.read_text() if p.exists() else None
    return text("log.csv"), text("metrics.json")
