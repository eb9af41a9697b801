"""Workload documents for the plumetrack benchmark, generated from a seed.

The benchmark owns its inputs: the scenario documents below are copies of
the bundled ``scenarios/case1.json`` and ``scenarios/pure_advection.json``
as they stood when the benchmark was defined, so that editing the bundled
scenarios cannot change what is measured.  plumetrack only ever sees the
documents (and sweep arguments) produced here.

Workloads, and why each exists:

* ``case1_run`` - ``plume run`` of case1: a puff-train plume of about 1,300
  live puffs.  The field (sensor sampling plus the ``ctrue`` oracle) is
  most of a step, so field-side optimisations show here.
* ``advection_run`` - ``plume run`` of the frozen translating Gaussian.  The
  field is cheap, so the estimator, guidance, vessel and loop overhead
  dominate; it is the only workload that exercises FrozenGaussian.
* ``grid_run`` - ``plume run`` of a finite-difference grid field that
  tracks for the full 60 s without truncating.  No puff code runs, so puff
  optimisations should predict no change here.
* ``noise_ensemble`` - ``plume sweep`` of case1 with sensor noise sigma 2
  over the acceptance test A7's seeds 1..20, all 20 in one sweep as A7
  runs them, with ``--jobs`` up to 2 and never above the CPUs available.
  Ensemble throughput, process-pool and per-run output costs.

On the noise-free single-run workloads the seed only sets the document's
``seed`` field.  With sigma 0 that leaves the run, its log bytes and its
metrics unchanged, which is what lets a changed log show as a change.  On
``noise_ensemble`` the seed picks which of A7's 20 seeds the sweep lists
first, and so which worker runs which member; every sweep runs all 20.
"""

from __future__ import annotations

import copy
import os

WORKLOADS = ("case1_run", "advection_run", "grid_run", "noise_ensemble")

# scenarios/case1.json
CASE1 = {
    "schema": 1,
    "name": "case1",
    "seed": 1,
    "duration": 60.0,
    "control_period": 0.05,
    "physics_substep": 0.05,
    "sign_convention": "pde-derived",
    "tracked_point": "head",
    "field": {
        "type": "puffs",
        "diffusion": 0.03,
        "flow": {"type": "uniform", "velocity": [0.03, 0.015]},
        "source": [-150.0, -75.0],
        "emission_rate": 2.0,
        "puff_interval": 0.5,
        "start_time": -600.0,
        "seed_puffs": [
            {"release_time": -5000.0, "point": [-150.0, -75.0],
             "strength": 103700.0},
        ],
    },
    "rig": {"offsets": [[0.75, 0.0], [-0.75, 0.0], [0.0, 0.75], [0.0, -0.75]]},
    "noise": {"sigma": 0.0, "floor": 0.01, "range_max": 10000.0},
    "vessel": {"start_pose": [12.0, 0.0, -1.5707963267948966],
               "offset": 0.5, "nu_max": 2.0, "omega_max": 1.5},
    "gains": {"c0": 50.0, "k": 1.2, "k1": 5.0, "k2": 11.0, "v_d": 1.5,
              "grad_floor": 0.05},
}

# scenarios/pure_advection.json
PURE_ADVECTION = {
    "schema": 1,
    "name": "pure-advection",
    "seed": 3,
    "duration": 60.0,
    "control_period": 0.05,
    "physics_substep": 0.05,
    "sign_convention": "pde-derived",
    "tracked_point": "head",
    "field": {
        "type": "frozen-gaussian",
        "peak": 60.0,
        "sigma": 18.0,
        "center": [0.0, 0.0],
        "flow": {"type": "uniform", "velocity": [0.1, 0.0]},
    },
    "rig": {"offsets": [[0.75, 0.0], [-0.75, 0.0], [0.0, 0.75], [0.0, -0.75]]},
    "noise": {"sigma": 0.0, "floor": 0.01, "range_max": 10000.0},
    "vessel": {"start_pose": [10.8695, 0.5, -1.5707963267948966],
               "offset": 0.5, "nu_max": 2.0, "omega_max": 1.5},
    "gains": {"c0": 50.0, "k": 1.2, "k1": 5.0, "k2": 11.0, "v_d": 1.5,
              "grad_floor": 0.05},
}

# A grid field whose puff has spread enough for the 0.5 m cells to resolve
# it and whose domain holds the tracked curve for the whole 60 s.
GRID_FIELD = {
    "type": "grid",
    "origin": [-40.0, -40.0],
    "cell_size": 0.5,
    "shape": [160, 160],
    "diffusion": 0.05,
    "flow": {"type": "uniform", "velocity": [0.01, 0.005]},
    "init_puff": {"release_time": -3000.0, "point": [-30.0, -15.0],
                  "strength": 113000.0},
}

# acceptance test A7: case1 with sensor noise sigma 2 over seeds 1..20
A7_SEEDS = tuple(range(1, 21))
A7_SIGMA = 2.0


def sweep_jobs() -> int:
    """``--jobs`` for the ensemble: 2, capped at the CPUs available."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def ensemble_seeds(seed: int) -> list[int]:
    """All A7 seeds in sweep order: consecutive, starting at an offset set
    by the workload seed."""
    start = seed % len(A7_SEEDS)
    return list(A7_SEEDS[start:] + A7_SEEDS[:start])


def make_document(workload: str, seed: int) -> dict:
    """The scenario document of a single-run workload, or the base
    document of the ensemble sweep."""
    if workload == "case1_run":
        doc = copy.deepcopy(CASE1)
    elif workload == "advection_run":
        doc = copy.deepcopy(PURE_ADVECTION)
    elif workload == "grid_run":
        doc = copy.deepcopy(CASE1)
        doc["name"] = "grid"
        doc["field"] = copy.deepcopy(GRID_FIELD)
    elif workload == "noise_ensemble":
        doc = copy.deepcopy(CASE1)
        doc["name"] = "noise-ensemble"
        seed = ensemble_seeds(seed)[0]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    doc["seed"] = seed
    return doc


def member_document(base: dict, member_seed: int) -> dict:
    """The document a sweep member runs: ``--set seed=<s>`` and
    ``--set noise.sigma=2.0`` applied to the base document."""
    doc = copy.deepcopy(base)
    doc["seed"] = member_seed
    doc["noise"]["sigma"] = A7_SIGMA
    return doc


def sweep_args(base_path: str, seeds: list[int], out_dir: str,
               jobs: int) -> list[str]:
    return ["sweep", base_path,
            "--set", "seed=" + ",".join(str(s) for s in seeds),
            "--set", f"noise.sigma={A7_SIGMA}",
            "--out", out_dir, "--jobs", str(jobs)]
