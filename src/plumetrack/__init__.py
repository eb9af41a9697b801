"""Deterministic 2-D simulation of concentration level-curve tracking.

An advection-diffusion plume (closed-form Gaussian puffs or an explicit
finite-difference grid), a unicycle surface vessel with a head-point
input transform, a four-sensor least-squares gradient estimator, and an
observer-based tracking controller, driven by scenario files through the
``plume`` command-line tool.
"""

from .field import (FlowField, FrozenGaussian, GaussianPuff, GridField,
                    PuffPlume)
from .guidance import GuidanceGains
from .sensing import NoiseModel, SensorRig
from .simulator import RunLog, RunMetrics, Scenario, metrics, run
from .vessel import VesselParams

__version__ = "0.1.0"

__all__ = [
    "FlowField", "FrozenGaussian", "GaussianPuff", "GridField",
    "GuidanceGains", "NoiseModel", "PuffPlume", "RunLog", "RunMetrics",
    "Scenario", "SensorRig", "VesselParams", "metrics", "run", "__version__",
]
