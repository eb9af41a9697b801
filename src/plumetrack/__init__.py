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
from .sensing import NoiseModel, SensorRig, StencilEstimate
from .simulator import RunLog, RunMetrics, Scenario, metrics, run
from .vessel import ActuatorCommand, VesselParams, VesselState

__version__ = "0.1.0"

__all__ = [
    "ActuatorCommand", "FlowField", "FrozenGaussian", "GaussianPuff",
    "GridField", "GuidanceGains", "NoiseModel", "PuffPlume",
    "RunLog", "RunMetrics", "Scenario", "SensorRig", "StencilEstimate",
    "VesselParams", "VesselState", "metrics", "run", "__version__",
]
