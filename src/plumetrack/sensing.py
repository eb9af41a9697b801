"""Four-point concentration sensing and the stencil gradient estimator.

Four point sensors ride at fixed body-frame offsets whose mean is zero, so
the stencil center coincides with the vessel position.  Readings get a
Gaussian noise term, a detection floor, and a range clamp emulating a
fluorometer (``NoiseModel``; a run with sigma > 0 owns the generator and
draws the normals in blocks).
From one synchronized sample the estimator reconstructs the local
concentration, gradient, and Hessian trace by a second-order Taylor
expansion solved in the minimum-norm least-squares sense:

    y_i = c(x_Si) - c_hat,  c_hat = mean of the four readings
    B   = [ (x_Si - x_r)^T | 0.5 vec((x_Si - x_r)(x_Si - x_r)^T) ]   (4 x 6)
    gamma = pinv(B) y = B^T (B B^T)^-1 y

gamma[0:2] is the gradient estimate and gamma[2] + gamma[5] the Hessian
trace (the Laplacian / divergence estimate).  Because y sums to zero by
construction, equal-arm point-symmetric layouts (the stock cross) cannot
observe the trace at all: the estimate is zero for arbitrary readings up
to roundoff (|lap| <= 6.4e-14 ppb/m^2 on all 1,201 steps of case1).  An
unequal-arm cross gives a nonzero but biased trace; four mean-referenced
samples leave 3 observations for 5 unknowns, so the trace is never
faithfully determined.  The tests pin both behaviors down.

``RigEstimator`` is the one solve.  The rig's world-frame design matrix
is the body-frame one times an orthogonal rotation factor, so pinv(B_body)
and the condition number of B B^T are computed once, when the run starts
(a degenerate rig raises ``DegenerateStencilError`` there).  Both are
taken on Python floats, from B about the offsets' ``field.mean_point``
and B B^T by ``field.dot``: pinv by Gauss-Jordan elimination and the
condition number by Jacobi rotations, so no BLAS or LAPACK call sets
their bits.  Each step is four left-to-right 4-term sums on floats (pinv
rows 0, 1, 2 and 5) and a rotation of the gradient, and returns the
float tuple (c_hat, gx, gy, lap).  The rotation, like the one in
``world_positions``, is given as the heading's (cos theta, sin theta)
pair, which a run takes once per control step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import as_pair, dot, mean_point

# BB^T condition numbers beyond this mean a (nearly) collinear stencil.
CONDITION_LIMIT = 1e10
# Jacobi sweeps at most; a 4 x 4 takes about five
JACOBI_SWEEPS = 50


class DegenerateStencilError(ValueError):
    """Stencil rows are (numerically) linearly dependent."""


def as_seed(seed) -> int:
    """A generator seed as an int; ValueError unless it is a non-negative
    integer (a bool or an integral float is none)."""
    if isinstance(seed, bool) or not hasattr(seed, "__index__") or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class SensorRig:
    """Body-frame sensor offsets; exactly four, mean zero, not collinear."""

    offsets: tuple                   # four (x, y) float pairs

    def __post_init__(self):
        count = "rig needs exactly 4 sensor offsets"
        o = tuple(as_pair(p, count) for p in self.offsets)
        if len(o) != 4:
            raise ValueError(count)
        values = [v for pair in o for v in pair]
        if not all(map(math.isfinite, values)):
            raise ValueError("sensor offsets must be finite")
        scale = max(1.0, *map(abs, values))
        mx, my = mean_point(o)
        if max(abs(mx), abs(my)) > 1e-9 * scale:
            raise ValueError("sensor offsets must average to (0, 0)")
        # all collinear <=> every pairwise cross product vanishes
        cross = max(abs(xi * yj - yi * xj) for xi, yi in o for xj, yj in o)
        if cross <= 1e-12 * scale * scale:
            raise ValueError("sensor offsets must not all be collinear")
        object.__setattr__(self, "offsets", o)

    @classmethod
    def cross(cls, arm: float = 0.75) -> "SensorRig":
        """Stock layout: one sensor per axis at distance ``arm``."""
        return cls(((arm, 0.0), (-arm, 0.0), (0.0, arm), (0.0, -arm)))

    @classmethod
    def uneven_cross(cls, arm_x: float = 0.75, arm_y: float = 0.45) -> "SensorRig":
        """Demo layout with a nonzero (though biased) trace path."""
        return cls(((arm_x, 0.0), (-arm_x, 0.0), (0.0, arm_y), (0.0, -arm_y)))


@dataclass(frozen=True)
class NoiseModel:
    """Fluorometer noise: Gaussian sigma, detection floor, range clamp.

    Plain configuration: when sigma > 0 the generator belongs to the run,
    which seeds it from ``seed`` (None means the run's own seed) and hands
    each step's standard normals to ``read``; a noise-free run hands it
    zeros and seeds no generator.  A ``seed`` other than None is stored
    as an int and must be a non-negative integer (``as_seed``).
    """

    sigma: float = 0.0
    floor: float = 0.01              # ppb; readings below report as 0
    range_max: float = 10000.0       # ppb
    seed: int | None = None

    def __post_init__(self):
        if not (self.sigma >= 0 and self.floor >= 0
                and self.range_max > self.floor):
            raise ValueError("need sigma >= 0 and 0 <= floor < range_max")
        if self.seed is not None:
            object.__setattr__(self, "seed", as_seed(self.seed))

    def read(self, c, g) -> list[float]:
        """Readings of the true concentrations ``c``, one float per sensor,
        given one standard normal g_i per sensor.

        reading_i = clamp(c_i + sigma * g_i, 0, range_max), then zeroed
        when below the detection floor; a NaN stays NaN.
        """
        readings = []
        for ci, gi in zip(c, g):
            r = ci + self.sigma * gi
            if r > self.range_max:
                r = self.range_max
            elif r < self.floor:                # floor >= 0: negatives too
                r = 0.0
            readings.append(r)
        return readings


def world_positions(rig: SensorRig, x: float, y: float, c: float,
                    s: float) -> tuple:
    """Sensor positions x_Si = x_r + R(theta) offset_i, four (x, y), of
    the vessel at x_r = (x, y) whose heading has (cos theta, sin theta)
    = (c, s).  The rig's four offsets are unrolled."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = rig.offsets
    return ((x + (ax * c + ay * -s), y + (ax * s + ay * c)),
            (x + (bx * c + by * -s), y + (bx * s + by * c)),
            (x + (cx * c + cy * -s), y + (cx * s + cy * c)),
            (x + (dx * c + dy * -s), y + (dx * s + dy * c)))


def design_matrix(positions) -> list:
    """B for the Taylor system about the position mean x_r, on floats:
    one row [dx, dy, dx dx / 2, dx dy / 2, dy dx / 2, dy dy / 2] per
    (x, y) position, d = x_S - x_r."""
    pts = [(float(x), float(y)) for x, y in positions]
    mx, my = mean_point(pts)
    rows = []
    for x, y in pts:
        dx, dy = x - mx, y - my
        rows.append([dx, dy, 0.5 * (dx * dx), 0.5 * (dx * dy),
                     0.5 * (dy * dx), 0.5 * (dy * dy)])
    return rows


def _gauss_jordan(rows: list) -> list:
    """The right-hand part of n augmented rows [A | R] after Gauss-Jordan
    elimination, A^-1 R for an n x n A, on Python floats.

    Column by column, j = 0 .. n - 1: the row at or below j with the
    largest |entry| in column j (the first of equals) is swapped into row
    j and divided by that pivot, entry by entry; then every other row i,
    in order, subtracts row j times its own entry a_ij in column j, entry
    by entry: row_i[c] - a_ij row_j[c].
    """
    n = len(rows)
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(rows[i][j]))
        rows[j], rows[p] = rows[p], rows[j]
        pivot = rows[j][j]
        rows[j] = row_j = [v / pivot for v in rows[j]]
        for i in range(n):
            if i != j:
                a = rows[i][j]
                rows[i] = [v - a * w for v, w in zip(rows[i], row_j)]
    return [r[n:] for r in rows]


def _condition(a: list) -> float:
    """lambda_max / lambda_min of a finite symmetric positive
    semi-definite matrix on Python floats, its 2-norm condition number;
    inf when lambda_min <= 0 or the ratio is not finite.

    Cyclic Jacobi: sweep after sweep, each pair p < q in row order whose
    a_pq is not negligible beside both a_pp and a_qq is zeroed by the
    rotation with t = tan(phi) the smaller root of t^2 + 2 theta t = 1,
    theta = (a_qq - a_pp) / (2 a_pq), in the update form of Press et
    al., Numerical Recipes, section 11.1, until a sweep rotates nothing;
    the diagonal is then the spectrum.
    """
    n = len(a)
    a = [list(row) for row in a]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                g = 100.0 * abs(apq)
                if (abs(a[p][p]) + g == abs(a[p][p])
                        and abs(a[q][q]) + g == abs(a[q][q])):
                    a[p][q] = a[q][p] = 0.0
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)),
                                  theta)
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(n):
                    if r != p and r != q:
                        g, h = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = g - s * (h + g * tau)
                        a[r][q] = a[q][r] = h + s * (g - h * tau)
        if not rotated:
            break
    eig = [a[i][i] for i in range(n)]
    lo, hi = min(eig), max(eig)
    return hi / lo if lo > 0 and hi / lo < math.inf else math.inf


@dataclass(frozen=True)
class RigEstimator:
    """The estimator of one rig at any heading, solved once.

    With R the heading rotation, the world-frame design matrix is
    B = B_body diag(R^T, (R (x) R)^T) and the middle factor is orthogonal,
    so pinv(B) = diag(R, R (x) R) pinv(B_body) and cond(B B^T) equals
    cond(B_body B_body^T).  A step then uses four rows of pinv(B_body).
    """

    pinv: tuple                      # pinv(B_body): 6 rows of 4 floats
    condition: float                 # cond(B B^T), heading-independent

    @classmethod
    def for_offsets(cls, offsets) -> "RigEstimator":
        """The estimator of sensors at body-frame ``offsets`` (4, 2) about
        their mean; raises DegenerateStencilError beyond CONDITION_LIMIT.

        pinv(B) = B^T (B B^T)^-1 is taken on Python floats, so that no
        BLAS kernel sets its bits.  Each entry of B B^T sums its six
        products left to right (``field.dot``), so B B^T is exactly
        symmetric, and Gauss-Jordan elimination of [B B^T | B]
        (``_gauss_jordan``) leaves (B B^T)^-1 B, whose transpose is
        pinv(B).  The condition number only gates the solve; it is taken
        on the same floats by Jacobi rotations (``_condition``), with no
        LAPACK call."""
        b = design_matrix(offsets)
        bbt = [[dot(bi, bk) for bk in b] for bi in b]
        # a non-finite B B^T has no condition number
        finite = all(math.isfinite(v) for row in bbt for v in row)
        condition = _condition(bbt) if finite else math.inf
        if condition > CONDITION_LIMIT:
            raise DegenerateStencilError(
                f"stencil condition {condition:.3e} exceeds "
                f"{CONDITION_LIMIT:.0e} (collinear or coincident sensors)")
        solved = _gauss_jordan([m + r for m, r in zip(bbt, b)])
        return cls(tuple(zip(*solved)), condition)

    def estimate(self, readings, c: float,
                 s: float) -> tuple[float, float, float, float]:
        """The stencil estimate (c_hat, gx, gy, lap) of the rig at the
        heading whose (cos theta, sin theta) is (c, s), in world axes:
        the mean reading (ppb), the gradient (ppb/m) and the Hessian
        trace estimate (ppb/m^2)."""
        r0, r1, r2, r3 = readings
        c_hat = (r0 + r1 + r2 + r3) / 4
        y0, y1, y2, y3 = r0 - c_hat, r1 - c_hat, r2 - c_hat, r3 - c_hat
        # pinv rows 0, 1, 2 and 5: gx, gy, hxx and hyy in body axes
        (a0, a1, a2, a3), (b0, b1, b2, b3), (h0, h1, h2, h3), _, _, \
            (k0, k1, k2, k3) = self.pinv
        gx = a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3
        gy = b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3
        lap = ((h0 * y0 + h1 * y1 + h2 * y2 + h3 * y3)
               + (k0 * y0 + k1 * y1 + k2 * y2 + k3 * y3))
        return c_hat, c * gx + -s * gy, s * gx + c * gy, lap
