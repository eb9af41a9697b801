"""Level-curve observer and tracking control law.

The observer keeps an estimate x_hat of a point on the c = c0 level curve
and is integrated by explicit Euler at the control period:

    x_hat' = n_ff
           + v_d * A g / |A g|
           - k1 * g * (g^T (x_hat - x_r) + c_hat - c0)

with g the gradient estimate at the vessel, A = [[0, -1], [1, 0]] (a +90
degree rotation), and n_ff the normal feedforward for the moving curve.
The planar control re-evaluates those terms at the updated x_hat and adds
a proportional pull of the driven point z onto it:

    u = x_hat' terms - k2 * (z - x_hat)

Two feedforward sign conventions are implemented.  Differentiating
c(x(t), t) = c0 with the dispersion PDE gives the normal velocity
(v . g - k lap) g / |g|^2 ("pde-derived", the default); the alternative
"advection-opposed" convention flips the advection term's sign,
(-v . g - k lap) g / |g|^2.  The two differ only in the advection part;
the measurement-feedback k1 term stabilizes both, which is why either can
track in practice.  The acceptance suite quantifies the difference on a
pure-advection scenario.

With the stock cross rig the Laplacian estimate is identically zero (see
sensing), so the k lap term is inert there regardless of convention.

Degenerate fallback: when |g| is below ``grad_floor`` the gradient gives
no usable direction, so the step holds x_hat, keeps only the pull
u = -k2 (z - x_hat), and reports the "degenerate-gradient" status.  A
zero gradient therefore never reaches the 1/|g| terms above.

Sign note: for a radially decreasing field the gradient points inward and
A g then points clockwise around the maximum, so the patrol circulates
clockwise (negative winding).  The tests assert this geometric fact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# +90 degree (counter-clockwise) rotation
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])

SIGN_PDE = "pde-derived"
SIGN_OPPOSED = "advection-opposed"
# sign of the advection term v . g in the normal feedforward, per convention
ADVECTION_SIGN = {SIGN_PDE: 1.0, SIGN_OPPOSED: -1.0}
SIGN_MODES = tuple(ADVECTION_SIGN)

STATUS_SEEKING = "seeking"
STATUS_TRACKING = "tracking"
STATUS_DEGENERATE = "degenerate-gradient"

# status promotion: |c_hat - c0| < 0.1 c0 and |z - x_hat| < 1 m held for 2 s
TRACK_BAND = 0.10
TRACK_DIST = 1.0
TRACK_HOLD = 2.0


class NonFiniteError(ValueError):
    """A guidance input, or the control computed from it, is not finite."""


@dataclass(frozen=True)
class GuidanceGains:
    """Controller constants; c0 is the tracked concentration.

    k1 multiplies ppb-scale residuals into m/s through the gradient, so
    its effective unit is m^3/(ppb^2 s); it is configured as a bare
    number like the rest of the gains.
    """

    c0: float                    # ppb
    k: float                     # controller diffusion constant, m^2/s
    k1: float                    # gradient/observer gain
    k2: float                    # tracking gain, 1/s
    v_d: float                   # patrol speed, m/s
    grad_floor: float = 0.05     # ppb/m; below this the estimate is unusable

    def __post_init__(self):
        if self.c0 <= 0:
            raise ValueError("tracked concentration c0 must be > 0")
        if self.k < 0:
            raise ValueError("controller diffusion constant k must be >= 0")
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("gains k1, k2 must be > 0")
        if self.v_d < 0:
            raise ValueError("patrol speed v_d must be >= 0")
        if self.grad_floor <= 0:
            raise ValueError("gradient floor must be > 0")


@dataclass(frozen=True)
class GuidanceState:
    """Observer estimate plus diagnostic tracking status."""

    xhat: np.ndarray
    status: str = STATUS_SEEKING
    window_start: float | None = None    # start of the current in-band window
    converged: bool = False              # sticky once promoted to tracking


def init(x_r) -> GuidanceState:
    """Fresh observer state anchored at the vessel position."""
    x = np.asarray(x_r, dtype=float).reshape(2).copy()
    return GuidanceState(xhat=x)


def step(state: GuidanceState, gains: GuidanceGains, mode: str, x_r, z,
         driven, c_hat: float, grad, lap: float, v_r, dt: float,
         t: float) -> tuple[GuidanceState, np.ndarray]:
    """One control period: observer update, planar control, status.

    The observer takes an explicit Euler step first, and the control's
    correction and pull use the updated x_hat.  ``driven`` is the point
    the control moves (the head point or the hull centre); the status
    always measures the head point ``z`` against x_hat.  Promotion to
    tracking is sticky and requires the concentration band and the
    z-to-estimate distance to hold for TRACK_HOLD seconds.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if mode not in ADVECTION_SIGN:
        raise ValueError(f"unknown sign convention {mode!r}; "
                         f"expected one of {SIGN_MODES}")
    x_r = np.asarray(x_r, dtype=float).reshape(2)
    z = np.asarray(z, dtype=float).reshape(2)
    driven = np.asarray(driven, dtype=float).reshape(2)
    g = np.asarray(grad, dtype=float).reshape(2)
    v = np.asarray(v_r, dtype=float).reshape(2)
    finite = np.isfinite(np.concatenate((x_r, g, v, (c_hat, lap))))
    if not finite.all():
        name = ("x_r", "x_r", "grad", "grad", "v_r", "v_r", "c_hat",
                "lap")[int(np.argmin(finite))]
        raise NonFiniteError(f"non-finite observer input {name} at t={t:g} s")
    norm = float(np.hypot(g[0], g[1]))
    degenerate = norm < gains.grad_floor
    if degenerate:
        xhat = state.xhat
        u = -gains.k2 * (driven - xhat)
    else:
        speed = ((ADVECTION_SIGN[mode] * float(v @ g) - gains.k * lap)
                 / float(g @ g))
        drift = speed * g + gains.v_d * (ROT90 @ g) / norm
        c_err = c_hat - gains.c0
        xhat = state.xhat + dt * (
            drift - gains.k1 * (float(g @ (state.xhat - x_r)) + c_err) * g)
        u = (drift - gains.k1 * (float(g @ (xhat - x_r)) + c_err) * g
             - gains.k2 * (driven - xhat))
    if not np.isfinite(u).all():
        raise NonFiniteError(
            f"non-finite planar control {u.tolist()} at t={t:g} s")
    if degenerate:
        return GuidanceState(xhat, STATUS_DEGENERATE, None,
                             state.converged), u

    converged = state.converged
    window = state.window_start
    in_band = (abs(c_err) < TRACK_BAND * gains.c0
               and float(np.hypot(*(z - xhat))) < TRACK_DIST)
    if in_band:
        window = t if window is None else window
        if t - window >= TRACK_HOLD:
            converged = True
    else:
        window = None
    status = STATUS_TRACKING if converged else STATUS_SEEKING
    return GuidanceState(xhat, status, window, converged), u
