"""Unicycle kinematics of the surface vessel and the head-point transform.

The vessel pose is the float triple (x, y, theta), theta in (-pi, pi],
with inputs (nu, omega):

    x' = nu cos(theta),  y' = nu sin(theta),  theta' = omega

:func:`head_point` and :func:`to_actuators` rotate by the heading's
(cos theta, sin theta) pair, which a run takes once per control step
and shares with the sensing layer.

The head point z = (x, y) + l0 (cos theta, sin theta) sits a fixed offset
l0 > 0 ahead of the hull.  Its velocity is z' = C(theta) (nu, omega)^T with

    C = [[cos theta, -l0 sin theta],
         [sin theta,  l0 cos theta]],      det C = l0,

so commanding z' = u reduces the vehicle to a single integrator.  The
inverse used here is the true matrix inverse,

    C^-1 = [[ cos theta,      sin theta    ],
            [-sin theta / l0, cos theta / l0]],

applied row by row on floats, each row a left-to-right 2-term sum.

A variant with the (2, 2) entry negated circulates in some writeups; it
satisfies neither C D = I nor D C = I (det C = l0 != 0 leaves no sign
freedom), and the validation suite demonstrates the failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class VesselParams:
    """Head-point offset and symmetric actuator limits."""

    offset: float = 0.5          # l0, m
    nu_max: float = 2.0          # m/s
    omega_max: float = 1.5       # rad/s

    def __post_init__(self):
        if not self.offset > 0:
            raise ValueError("head-point offset l0 must be > 0")
        if not (self.nu_max > 0 and self.omega_max > 0):
            raise ValueError("actuator limits must be > 0")


def normalize_heading(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    t = math.remainder(theta, 2.0 * math.pi)
    return math.pi if t == -math.pi else t


def head_point(x: float, y: float, c: float, s: float,
               offset: float) -> tuple[float, float]:
    """Offset point z = x_r + l0 (c, s) of the vessel at (x, y), with
    (c, s) = (cos theta, sin theta) of its heading."""
    if not offset > 0:
        raise ValueError("head-point offset l0 must be > 0")
    return x + offset * c, y + offset * s


def input_matrix(theta: float, offset: float):
    """C(theta) mapping (nu, omega) to the head-point velocity, a 2 x 2
    array for the checks and tests; a run applies C^-1 on floats."""
    import numpy as np
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -offset * s], [s, offset * c]])


def to_actuators(u, c: float, s: float,
                 params: VesselParams) -> tuple[float, float, bool]:
    """Map a planar head-point velocity command to (nu, omega, saturated)
    at the heading whose (cos theta, sin theta) is (c, s): the exact
    inverse transform is applied first, then each channel is clipped to
    its limit.
    """
    ux, uy = u
    if not (math.isfinite(ux) and math.isfinite(uy)):
        raise ValueError(f"non-finite planar control {[ux, uy]}")
    l0 = params.offset
    nu_raw = c * ux + s * uy
    omega_raw = -s / l0 * ux + c / l0 * uy
    # min(max(v, -lim), lim), without the builtin calls; a NaN stays
    nu_max, omega_max = params.nu_max, params.omega_max
    nu = (-nu_max if nu_raw < -nu_max
          else nu_max if nu_raw > nu_max else nu_raw)
    omega = (-omega_max if omega_raw < -omega_max
             else omega_max if omega_raw > omega_max else omega_raw)
    return nu, omega, nu != nu_raw or omega != omega_raw


def step(x: float, y: float, theta: float, nu: float, omega: float,
         dt: float) -> tuple[float, float, float]:
    """The pose (x, y, theta) after moving the unicycle over dt with (nu,
    omega) held constant.

    The path is exactly a circular arc (a segment when omega = 0): its
    chord nu dt sinc(omega dt / 2) points along the mid-arc heading
    theta + omega dt / 2.  This form has no cancellation as omega -> 0,
    unlike nu / omega (sin(theta + omega dt) - sin theta).  Heading is
    renormalized afterwards.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    half = 0.5 * omega * dt
    chord = nu * dt * (math.sin(half) / half if half != 0.0 else 1.0)
    mid = theta + half
    return (x + chord * math.cos(mid), y + chord * math.sin(mid),
            normalize_heading(theta + omega * dt))
