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

With the stock cross rig the Laplacian estimate is zero up to roundoff
(see sensing), so the k lap term is inert there in either convention.
The step runs on floats, in the operand order of the matrix forms above,
takes its points and vectors as float pairs and returns x_hat and u as
float pairs.  It takes |g| by C's hypot (``field.hypot``): a finite
gradient whose norm overflows has an infinite |g|, and the step ends in
NonFiniteError.

Degenerate fallback: when |g| is below ``grad_floor`` the gradient gives
no usable direction, so the step holds x_hat and keeps only the pull
u = -k2 (z - x_hat).  A zero gradient therefore never reaches the 1/|g|
terms above.  The step keeps no status: :func:`status` reads the
"seeking", "tracking" and "degenerate-gradient" status of every record
from a run's log, after the loop.

Sign note: for a radially decreasing field the gradient points inward and
A g then points clockwise around the maximum, so the patrol circulates
clockwise (negative winding).  The tests assert this geometric fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .field import hypot

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
        if not self.c0 > 0:
            raise ValueError("tracked concentration c0 must be > 0")
        if not self.k >= 0:
            raise ValueError("controller diffusion constant k must be >= 0")
        if not (self.k1 > 0 and self.k2 > 0):
            raise ValueError("gains k1, k2 must be > 0")
        if not self.v_d >= 0:
            raise ValueError("patrol speed v_d must be >= 0")
        if not self.grad_floor > 0:
            raise ValueError("gradient floor must be > 0")


def step(xhat, gains: GuidanceGains, mode: str, x_r, driven, c_hat: float,
         grad, lap: float, v_r, dt: float,
         t: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """One control period: observer update, then planar control.

    The observer takes an explicit Euler step first, and the control's
    correction and pull use the updated x_hat.  ``driven`` is the point
    the control moves (the head point or the hull centre).  The points
    and vectors are any 2-sequences; x_hat and u come back as tuples.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if mode not in ADVECTION_SIGN:
        raise ValueError(f"unknown sign convention {mode!r}; "
                         f"expected one of {SIGN_MODES}")
    xr, yr = x_r
    gx, gy = grad
    vx, vy = v_r
    if not (isfinite(xr) and isfinite(yr) and isfinite(gx) and isfinite(gy)
            and isfinite(vx) and isfinite(vy) and isfinite(c_hat)
            and isfinite(lap)):
        name = next(name for name, a in (
            ("x_r", xr), ("x_r", yr), ("grad", gx), ("grad", gy), ("v_r", vx),
            ("v_r", vy), ("c_hat", c_hat), ("lap", lap)) if not isfinite(a))
        raise NonFiniteError(f"non-finite observer input {name} at t={t:g} s")
    norm = hypot(gx, gy)
    xh, yh = xhat
    dx, dy = driven
    if norm < gains.grad_floor:
        ux, uy = -gains.k2 * (dx - xh), -gains.k2 * (dy - yh)
    else:
        speed = ((ADVECTION_SIGN[mode] * (vx * gx + vy * gy) - gains.k * lap)
                 / (gx * gx + gy * gy))
        # drift = speed g + v_d A g / |g|, with A g = (-gy, gx)
        fx = speed * gx + gains.v_d * -gy / norm
        fy = speed * gy + gains.v_d * gx / norm
        c_err = c_hat - gains.c0
        w = gains.k1 * (gx * (xh - xr) + gy * (yh - yr) + c_err)
        xh = xh + dt * (fx - w * gx)
        yh = yh + dt * (fy - w * gy)
        w = gains.k1 * (gx * (xh - xr) + gy * (yh - yr) + c_err)
        ux = fx - w * gx - gains.k2 * (dx - xh)
        uy = fy - w * gy - gains.k2 * (dy - yh)
    if not (isfinite(ux) and isfinite(uy)):
        raise NonFiniteError(
            f"non-finite planar control {[float(ux), float(uy)]} at t={t:g} s")
    return (xh, yh), (ux, uy)


def status(records, gains: GuidanceGains) -> tuple[str, ...]:
    """The tracking status of each record of a run's log.

    ``records`` yields one float tuple (t, c_hat, zx, zy, x_hat_x,
    x_hat_y, gx, gy) per record, in time order.  A record whose gradient
    is below ``grad_floor`` is "degenerate-gradient" and ends the
    in-band window.  Otherwise promotion to "tracking" is sticky and
    needs |c_hat - c0| < TRACK_BAND c0 and |z - x_hat| < TRACK_DIST to
    hold for TRACK_HOLD seconds; until then a record is "seeking".  The
    norms are ``field.hypot``, as in :func:`step`, so a norm that
    overflows is inf: not degenerate, and not near.
    """
    out, window, converged = [], None, False
    band = TRACK_BAND * gains.c0
    for t, c_hat, zx, zy, xx, xy, gx, gy in records:
        if hypot(gx, gy) < gains.grad_floor:
            window = None
            out.append(STATUS_DEGENERATE)
            continue
        if (abs(c_hat - gains.c0) < band
                and hypot(zx - xx, zy - xy) < TRACK_DIST):
            window = t if window is None else window
            converged = converged or t - window >= TRACK_HOLD
        else:
            window = None
        out.append(STATUS_TRACKING if converged else STATUS_SEEKING)
    return tuple(out)
