"""Per-layer metrics from a traced measuring run.

Span times are self times (see ``spans.py``).  ``*_us`` metrics are
microseconds per control step, ``*_ms`` metrics milliseconds per plume
run; together with each other they add up to ``trace.step_us``, the
traced run phase per step.  They are raw wall times.  Only
``trace.overhead_frac`` and ``cli.sweep_parallel_eff`` compare times at
the reference speed (see ``calibrate.py``), because their two sides are
measured at different times.  A layer a workload does not exercise reads
0.
``field.released_puffs`` and ``field.grid_step_bytes`` are computed from
the document, not measured: the bytes are the compulsory traffic of one
explicit grid step, reading the old cell array and writing the new one,
with temporaries and cache misses ignored.
"""

from __future__ import annotations

import math
import statistics

import calibrate
import checks

PER_STEP = {                     # metric -> span, self time per step
    "field.sample_us": "field.sample",
    "field.oracle_us": "field.oracle",
    "field.flow_at_us": "field.flow_at",
    "field.advance_us": "field.advance",
    "field.grid_step_us": "field.grid_step",
    "field.grid_sample_us": "field.grid_sample",
    "sensing.world_positions_us": "sensing.world_positions",
    "sensing.sample_self_us": "sensing.sample",
    "sensing.estimate_us": "sensing.estimate",
    "guidance.observer_update_us": "guidance.observer_update",
    "guidance.control_us": "guidance.control",
    "guidance.update_status_us": "guidance.update_status",
    "vessel.head_point_us": "vessel.head_point",
    "vessel.to_actuators_us": "vessel.to_actuators",
    "vessel.step_us": "vessel.step",
    "simulator.run_self_us": "simulator.run",
}
PER_RUN = {                      # metric -> span, self time per plume run
    "scenario_io.load_ms": "scenario_io.load",
    "simulator.metrics_ms": "simulator.metrics",
    "simulator.to_csv_ms": "simulator.to_csv",
    "cli.main_self_ms": "cli.main",
}
UNITS = {
    **{k: "us" for k in PER_STEP},
    **{k: "ms" for k in PER_RUN},
    "field.eval_many_calls": "count",
    "field.released_puffs": "count",
    "field.grid_step_calls": "count",
    "field.grid_step_bytes": "B",
    "guidance.degenerate_frac": "ratio",
    "vessel.saturated_frac": "ratio",
    "simulator.csv_bytes": "B",
    "simulator.step_us_p50": "us",
    "simulator.step_us_p99": "us",
    "cli.sweep_parallel_eff": "ratio",
    "setup.import_ms": "ms",
    "setup.load_ms": "ms",
    "trace.step_us": "us",
    "trace.overhead_frac": "ratio",
}


def percentile(values: list[float], p: float) -> float:
    """The ``p``-th percentile by the nearest-rank method; 0 if empty."""
    xs = sorted(values)
    return float(xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]) if xs else 0.0


def step_us_per_call(runs: list[dict], scaled: bool = False) -> list[float]:
    """Wall time per control step of each plume call, raw or at the
    reference speed."""
    out = []
    for r in runs:
        raw = r["wall_ns"] / 1e3 / max(1, sum(m["rows"] for m in r["members"]))
        out.append(calibrate.scale(raw, r["ref_before_ns"], r["ref_after_ns"])
                   if scaled else raw)
    return out


def _step_us(runs: list[dict]) -> float:
    """Median over plume calls of wall time per control step at the
    reference speed."""
    return statistics.median(step_us_per_call(runs, scaled=True))


def released_puffs(doc: dict) -> float:
    """Mean over the control steps of the puffs released so far."""
    field = doc["field"]
    if field["type"] != "puffs":
        return 0.0
    n = checks.expected_rows(doc)
    dt = float(doc["control_period"])
    return statistics.mean(checks.puff_releases(field, i * dt)[0].size
                           for i in range(n))


def log_fractions(logs: dict) -> tuple[float, float]:
    """(degenerate-gradient share, saturated share) over the kept logs."""
    degenerate, saturated = [], []
    for text in logs.values():
        if not text:
            continue
        log = checks.read_log(text)
        degenerate.append(statistics.mean(
            s == "degenerate-gradient" for s in log["status"]))
        saturated.append(float(log["sat"].mean()))
    return (statistics.mean(degenerate) if degenerate else 0.0,
            statistics.mean(saturated) if saturated else 0.0)


def per_layer(result: dict, setup: dict, doc: dict, logs: dict,
              jobs: int) -> tuple[dict, dict]:
    """(metrics, detail) of a traced run."""
    trace = result["trace"]
    self_ns = trace["self_ns"]
    calls = trace["calls"]
    traced = result["phases"]["traced"]
    members = [m for r in traced for m in r["members"]]
    runs = len(members)
    steps = sum(m["rows"] for m in members)
    values = {k: self_ns.get(span, 0) / steps / 1e3
              for k, span in PER_STEP.items()}
    values.update({k: self_ns.get(span, 0) / runs / 1e6
                   for k, span in PER_RUN.items()})
    grid = doc["field"] if doc["field"]["type"] == "grid" else None
    degenerate, saturated = log_fractions(logs)
    untraced_runs = result["phases"].get("serial") or result["phases"]["untraced"]
    untraced = _step_us(untraced_runs)
    parallel = (_step_us(result["phases"]["untraced"])
                if "serial" in result["phases"] else 0.0)
    values.update({
        "field.eval_many_calls": calls.get("field.eval_many_calls", 0) / steps,
        "field.released_puffs": released_puffs(doc),
        "field.grid_step_calls": calls.get("field.grid_step_calls", 0) / steps,
        "field.grid_step_bytes": (16.0 * grid["shape"][0] * grid["shape"][1]
                                  if grid else 0.0),
        "guidance.degenerate_frac": degenerate,
        "vessel.saturated_frac": saturated,
        "simulator.csv_bytes": statistics.mean(m["csv_bytes"] for m in members),
        "simulator.step_us_p50": percentile(trace["step_ns"], 50) / 1e3,
        "simulator.step_us_p99": percentile(trace["step_ns"], 99) / 1e3,
        "cli.sweep_parallel_eff": (untraced / (jobs * parallel)
                                   if parallel else 0.0),
        "setup.import_ms": statistics.median(setup["import_ms"]),
        "setup.load_ms": statistics.median(setup["load_ms"]),
        "trace.step_us": sum(self_ns.values()) / steps / 1e3,
        "trace.overhead_frac": _step_us(traced) / untraced - 1.0,
    })
    attributed = (sum(values[k] for k in PER_STEP)
                  + sum(values[k] for k in PER_RUN) * 1e3 * runs / steps)
    samples = {**{k: steps for k in PER_STEP}, **{k: runs for k in PER_RUN},
               "simulator.step_us_p50": len(trace["step_ns"]),
               "simulator.step_us_p99": len(trace["step_ns"]),
               "setup.import_ms": len(setup["import_ms"]),
               "setup.load_ms": len(setup["load_ms"]),
               "trace.step_us": steps}
    detail = {
        "samples": samples,
        "attributed_us": attributed,
        "missing_spans": trace["missing"],
        "spans_ns": self_ns,
    }
    return {k: values[k] for k in UNITS}, detail
