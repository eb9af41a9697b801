"""Concentration and flow fields for the 2-D advection-diffusion plume.

The scalar concentration c(x, t) obeys

    dc/dt + v . grad(c) = k * lap(c)

with a spatially uniform (possibly piecewise-constant-in-time) flow v and a
scalar turbulent diffusion coefficient k.  Three field models are provided:

* ``GaussianPuff`` / ``PuffPlume`` - the closed-form impulsive-release
  solution and its superposition for a discretized continuous source.  A
  puff's centre moves with the flow's integral, so the puffs stay exact
  under piecewise-constant flow.  The plume's concentration is exact,
  and the point functions ``puff_gradient`` and ``puff_laplacian`` give
  a puff's exact derivatives, which makes the puffs the reference oracle
  for everything else.
* ``FrozenGaussian`` - a rigid Gaussian shape translating with the flow;
  the exact zero-diffusion (k = 0) solution.
* ``GridField`` - an explicit finite-difference solver (first-order upwind
  advection, 5-point central diffusion) validated against the puff oracle.
  A step is c + sum_i a_i (c_i - c) over the four neighbours, with scalar
  weights a_i >= 0 that sum to at most 0.9 within the stable dt, so each
  new cell is a convex combination of its neighbourhood and stays >= 0.
  It takes one neighbour difference per axis, shared by the axis's two
  directions, in flat passes over two work buffers that each step hands
  to the field it returns; a sample sums each point's 2 x 2 cell block
  on Python floats in a stated order.  The field owns its cells, a
  read-only copy of the caller's array, and they and the work buffers
  start on 64-byte (cache-line) boundaries: malloc starts such arrays
  at 16 mod 64 bytes, or wherever heap reuse puts them, and on a
  160 x 160 grid the step's passes took 92-98 us on such buffers and
  64-68 us on aligned ones (AVX-512 loops on or off).  Alignment
  changes no operation, operand or order, so no bits.

All three share one protocol: ``eval_many(points, t)`` is the only
sampling call.  It reads the caller's sequence of m (x, y) float pairs
as it is (an (m, 2) ndarray is converted once) and gives the
concentration c at every point as a list of m floats (a ``GridField``
samples itself at its own ``time`` and ignores t); the gradient and
divergence the control law needs come from the sensor stencil, not from
the field.  ``advance(t, max_substep)`` returns the field at time t
(the analytic fields return themselves), ``centroid(t)`` is the plume
centre as an (x, y) float pair, and ``level_set_radius(c0, t)`` is the
radius of a circular c = c0 curve or raises ``ValueError`` where there
is no closed form.  Advection is ``FlowField.carry``, forward or back
in time; the plume's build moves all releases at once by ``displacement``.

The puff plume sums only the puffs that its neighbour list (Verlet,
1967) keeps; ``PuffPlume._build`` states the bound and why no sum changes.

The analytic fields' evaluation, the flow's ``at`` and ``carry`` run on
Python floats, with ``math.exp``, so they do not depend on numpy's SIMD
dispatch; a plume point's kept terms are summed left to right in
``_rows`` order (see ``PuffPlume.eval_many``).  A grid
takes its initial cells from ``math.exp`` too, and its step and sample
are IEEE-exact numpy passes and float sums, with no BLAS call.  The
float rules the step's layers share have one copy each, here: C's
``hypot``, the in-order ``dot`` and numpy's few-point ``mean_point``.

The models check their inputs on floats, so this module imports numpy
only inside the functions that compute on arrays: the grid's, the puff
plume's neighbour-list build with its release rows and the build's
displacement, and the single-puff point functions.  A frozen Gaussian
never imports it, and a puff plume at its first neighbour-list build.

Concentration is in ppb, lengths in m, times in s.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import NamedTuple

# A puff whose c is bounded by this (ppb) over every query point is left
# out of the sum.
CULL_BOUND = 1e-30
# The plume's neighbour list covers a disc SKIN (m) wider than the query
# disc it was built for, over the next HORIZON (s): the stock vessel's
# top speed, 2 m/s, times the horizon.
SKIN = 8.0
HORIZON = 4.0


class FieldError(ValueError):
    """Base class for field-model errors."""


class PuffTimeError(FieldError):
    """Puff evaluated at or before its release time."""


class StepSizeError(FieldError):
    """Explicit grid step larger than the stability bound."""


class DomainError(FieldError):
    """Sample point too close to or outside the grid boundary."""


def _pairs(points):
    """The (x, y) pairs of an ``eval_many`` call: the caller's sequence
    as it is, or an (m, 2) ndarray's rows as float lists."""
    return points.tolist() if hasattr(points, "tolist") else points


def as_pair(pair, message: str) -> tuple[float, float]:
    """Any 2-sequence as a pair of floats; ValueError(message) when it
    holds more or fewer than two values."""
    try:
        x, y = pair
    except (TypeError, ValueError):
        raise ValueError(message) from None
    return float(x), float(y)


def hypot(x: float, y: float) -> float:
    """C's hypot, as ``np.hypot`` takes it: the abs of a complex, and inf
    where that raises OverflowError.  (``math.hypot`` rounds otherwise.)"""
    try:
        return abs(complex(x, y))
    except OverflowError:
        return math.inf


def dot(u, v) -> float:
    """u . v on Python floats, summed left to right from 0.0."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def mean_point(points) -> tuple[float, float]:
    """The mean (x, y) of a few points, each axis summed in point order
    from 0.0, as numpy's mean adds fewer than eight terms."""
    sx = sy = 0.0
    for x, y in points:
        sx += x
        sy += y
    return sx / len(points), sy / len(points)


def _aligned(n: int):
    """An uninitialised float array of n values that starts on a 64-byte
    boundary: an 8-value-longer array sliced at its aligned offset."""
    import numpy as np
    buf = np.empty(n + 8)
    k = -buf.ctypes.data % 64 // 8
    return buf[k:k + n]


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowField:
    """Spatially uniform flow, constant or piecewise constant in time.

    ``boundaries`` are strictly increasing switch times, ``velocities`` one
    more (vx, vy) pair; both are stored as Python floats.  Segment i is
    active on the half-open interval [boundaries[i-1], boundaries[i]), so a
    query exactly on a boundary returns the later segment's velocity.
    """

    velocities: tuple               # n_seg (vx, vy) float pairs
    boundaries: tuple               # n_seg - 1 floats

    def __post_init__(self):
        count = "need len(boundaries) + 1 velocity vectors"
        vs = tuple(as_pair(v, count) for v in self.velocities)
        b = tuple(map(float, self.boundaries))
        if len(vs) != len(b) + 1:
            raise ValueError(count)
        if not all(map(math.isfinite, (*b, *(x for v in vs for x in v)))):
            raise ValueError("flow velocities and boundaries must be finite")
        if not all(lo < hi for lo, hi in zip(b, b[1:])):
            raise ValueError("segment boundaries must be strictly increasing")
        object.__setattr__(self, "velocities", vs)
        object.__setattr__(self, "boundaries", b)
        # each switch's time and velocity jump (jx, jy)
        object.__setattr__(self, "_switches", [
            (bi, nx - px, ny - py)
            for bi, (px, py), (nx, ny) in zip(self.boundaries, vs, vs[1:])])

    @classmethod
    def uniform(cls, velocity) -> "FlowField":
        return cls([velocity], ())

    def at(self, t: float) -> list:
        """Flow velocity [vx, vy] at time t, everywhere: the flow is
        spatially uniform by construction.  A NaN t reads the last
        segment."""
        return list(self.velocities[bisect_right(self.boundaries, t)])

    def carry(self, x: float, y: float, t0: float, t: float) -> tuple:
        """(x, y) at time t0 moved with the flow to time t: plus the
        integral of v over [t0, t] where t >= t0, else (a NaN t too)
        minus that over [t, t0].  Over [lo, hi] it is v(hi) (hi - lo)
        minus each switch b <= hi's velocity jump times b - lo where
        lo < b, else 0.0: under a uniform flow exactly v (hi - lo)."""
        forward = t >= t0
        lo, hi = (t0, t) if forward else (t, t0)
        vx, vy = self.velocities[bisect_right(self.boundaries, hi)]
        dx, dy = vx * (hi - lo), vy * (hi - lo)
        for b, jx, jy in self._switches:
            if b <= hi:
                w = b - lo if lo < b else 0.0
                dx -= jx * w
                dy -= jy * w
        if forward:
            return x + dx, y + dy
        return x - dx, y - dy

    def displacement(self, t0, t1: float):
        """``carry``'s integral over [t0, t1] for each t0 of an array,
        shape ``(2,) + np.shape(t0)``, x and y first, by the same
        operations in the same order: bit for bit ``carry``'s increment
        where t0 <= t1.  ``PuffPlume._build`` also passes release times
        later than t1, which no switch reaches: v(t1) (t1 - t0)."""
        import numpy as np
        t0 = np.asarray(t0, dtype=float)
        disp = np.multiply.outer(self.at(t1), t1 - t0)
        for b, jx, jy in self._switches:
            if b <= t1:
                disp -= np.multiply.outer((jx, jy),
                                          np.where(t0 < b, b - t0, 0.0))
        return disp


# ---------------------------------------------------------------------------
# analytic puffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPuff:
    """Impulsive release of strength Q (ppb m^2) at ``point``/``release_time``.

    With age tau = t - release_time and advected center
    xc = point + v * tau, the exact solution is

        c(x, t)   = Q / (4 pi k tau) * exp(-|x - xc|^2 / (4 k tau))
        grad c    = -c * (x - xc) / (2 k tau)
        lap c     =  c * (|x - xc|^2 / (4 k^2 tau^2) - 1 / (k tau))
    """

    release_time: float
    point: tuple                    # (x, y) floats
    strength: float
    diffusion: float

    def __post_init__(self):
        object.__setattr__(self, "point", as_pair(self.point,
                                              "puff point must be (x, y)"))
        if not self.strength > 0:
            raise ValueError("puff strength Q must be > 0")
        if not self.diffusion > 0:
            raise ValueError("diffusion k must be > 0")

    def _age(self, t: float) -> float:
        """tau = t - release_time; PuffTimeError unless tau > 0 (a NaN
        t included)."""
        tau = t - self.release_time
        if not tau > 0:
            raise PuffTimeError(f"puff evaluated at age {tau:g}, not > 0")
        return tau

    def peak(self, t: float) -> float:
        return self.strength / (4.0 * math.pi * self.diffusion * self._age(t))

    def center(self, flow: FlowField, t: float) -> tuple[float, float]:
        """The advected centre at t, an (x, y) float pair."""
        self._age(t)
        return flow.carry(*self.point, self.release_time, t)


def puff_concentration(puff: GaussianPuff, flow: FlowField, x, t: float) -> float:
    """Exact concentration of a single puff at (x, t)."""
    import numpy as np
    tau = puff._age(t)
    d = np.asarray(x, dtype=float).reshape(2) - puff.center(flow, t)
    four_kt = 4.0 * puff.diffusion * tau
    return puff.strength / (math.pi * four_kt) * math.exp(-(d @ d) / four_kt)


def puff_gradient(puff: GaussianPuff, flow: FlowField, x, t: float):
    """Exact spatial gradient of a single puff at (x, t), a (2,) array."""
    import numpy as np
    tau = t - puff.release_time
    c = puff_concentration(puff, flow, x, t)
    d = np.asarray(x, dtype=float).reshape(2) - puff.center(flow, t)
    return -c * d / (2.0 * puff.diffusion * tau)


def puff_laplacian(puff: GaussianPuff, flow: FlowField, x, t: float) -> float:
    """Exact Laplacian of a single puff at (x, t)."""
    import numpy as np
    tau = t - puff.release_time
    c = puff_concentration(puff, flow, x, t)
    d = np.asarray(x, dtype=float).reshape(2) - puff.center(flow, t)
    kt = puff.diffusion * tau
    return c * ((d @ d) / (4.0 * kt * kt) - 2.0 / (2.0 * kt))


# ---------------------------------------------------------------------------
# puff-superposition plume
# ---------------------------------------------------------------------------

class _NeighbourList(NamedTuple):
    """Candidates for a plume's cull at times in [t, t + HORIZON] and
    query discs inside the disc of centre (qx, qy) and this radius: one
    float row (t0, x, y, Q) per puff, its release time, point and
    strength, in ``_rows`` order."""

    t: float
    qx: float
    qy: float
    radius: float
    rows: list


@dataclass(frozen=True, kw_only=True)
class PuffPlume:
    """Continuous source discretized as a train of Gaussian puffs.

    Every ``puff_interval`` seconds from ``start_time`` a puff of strength
    Q = emission_rate * puff_interval is released at ``source``.  Optional
    ``seed_puffs`` (e.g. one old, strong release that forms the main mound)
    are superposed on top.  Evaluation sums the closed-form puffs'
    concentrations; the PDE is linear, so the sum is itself an exact
    solution.  A puff's exact gradient and Laplacian are the point
    functions ``puff_gradient`` and ``puff_laplacian``.

    The plume holds a neighbour list, which is replaced whole and never
    changes a result, so a plume shared between runs stays deterministic.
    """

    source: tuple                   # (x, y) floats
    flow: FlowField
    diffusion: float
    emission_rate: float = 0.0      # ppb m^2 / s; 0 disables the train
    puff_interval: float = 0.5
    start_time: float = 0.0
    seed_puffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "source", as_pair(self.source,
                                               "source must be (x, y)"))
        if not self.emission_rate >= 0:
            raise ValueError("emission rate must be >= 0")
        if not self.puff_interval > 0:
            raise ValueError("puff interval must be > 0")
        if not self.diffusion > 0:
            raise ValueError("diffusion k must be > 0")
        for p in self.seed_puffs:
            if p.diffusion != self.diffusion:
                raise ValueError("seed puff diffusion must match the plume's")
        object.__setattr__(self, "_speed", max(
            hypot(vx, vy) for vx, vy in self.flow.velocities))
        object.__setattr__(self, "_neighbours", None)

    has_analytic_truth = True

    def _rows(self, t: float):
        """(release_times, points (2, n), strengths): every seed puff in
        document order, then the train puffs released before t, train
        puff i at start_time + i * puff_interval."""
        import numpy as np
        need = 0
        if self.emission_rate != 0 and t > self.start_time:
            # one row past the quotient, so that rounding in it cannot
            # leave out a release before t
            need = int(math.ceil((t - self.start_time) / self.puff_interval)) + 1
        n_seed = len(self.seed_puffs)
        rows = np.empty((4, n_seed + need))
        for i, p in enumerate(self.seed_puffs):
            rows[:, i] = p.release_time, *p.point, p.strength
        train = rows[:, n_seed:]
        train[0] = self.start_time + self.puff_interval * np.arange(need)
        train[1], train[2] = self.source
        train[3] = self.emission_rate * self.puff_interval
        k = n_seed + int(np.searchsorted(train[0], t, side="left"))
        return rows[0, :k], rows[1:3, :k], rows[3, :k]

    def _near(self, t: float, qx: float, qy: float, rho: float):
        """The puffs released before t, less those that cannot reach
        CULL_BOUND on the disc of centre (qx, qy) and radius rho: every
        puff the cull of ``eval_many`` keeps, as float rows
        (t0, x, y, Q) in ``_rows`` order.

        They come from the neighbour list, which is rebuilt unless it
        covers the disc at t (see ``_build``).
        """
        nl = self._neighbours
        if nl is None or not (
                nl.t <= t <= nl.t + HORIZON
                and math.hypot(qx - nl.qx, qy - nl.qy)
                + self._speed * (t - nl.t) + rho <= nl.radius):
            nl = self._build(t, qx, qy, rho)
            object.__setattr__(self, "_neighbours", nl)
        # t0 < t, but a NaN t keeps every candidate, so that the NaN
        # reaches the result
        return [row for row in nl.rows if not row[0] >= t]

    def _build(self, t: float, qx: float, qy: float,
               rho: float) -> _NeighbourList:
        """The neighbour list for queries within the disc of radius
        R = rho + SKIN about (qx, qy) over [t, t + HORIZON].

        It holds every puff released before t + HORIZON whose c can reach
        CULL_BOUND on that disc within the horizon.  With d- the distance
        from a puff's centre at t to the disc, a puff released before t
        has c at most

            peak(t) exp(-d-^2/(4 k (t + HORIZON - t0)))

        since the peak only falls and kt only grows.  A puff released
        from t on is summed while the list lasts only at ages tau in
        (0, HORIZON], and with a = d-^2/(4k) its c is then at most

            f(tau) = Q exp(-a/tau) / (4 pi k tau)

        f rises up to tau = a and falls after it, so c <= f(min(a,
        HORIZON)).  With L = log(2 Q / (4 pi k HORIZON CULL_BOUND)), the
        puff is left out where d-^2 > 4 k HORIZON max(1, L): then
        a > HORIZON and f(HORIZON) = Q/(4 pi k HORIZON) exp(-a/HORIZON)
        is below CULL_BOUND / 2, as L >= 1 gives a/HORIZON > L and L < 1
        gives 2 Q/(4 pi k HORIZON) < e CULL_BOUND.  Its centre at t is
        its point less v(t) (t0 - t), the flow at t run back from t0.

        Every centre at t' is then within V (t' - t) of where it stood at
        t, for V the fastest segment's speed: the flow is uniform, so the
        released puffs all move by one displacement, and a puff released
        at t0 > t stands V (t0 - t) at most from its point at t and
        V (t' - t0) at most from it at t'.  A disc (q', rho') at t' with
        |q' - q| + V (t' - t) + rho' <= R is at least as far from every
        centre as the R-disc was at t, and ``_near`` reuses the list while
        that holds.

        The bound is compared with half of CULL_BOUND, so that rounding
        in the distances cannot leave out a puff that the per-puff bound
        keeps, and in logarithms, d-^2 > 4 kt log(2 peak / CULL_BOUND):
        an exp that underflows to a subnormal is slow.  A NaN t keeps
        every puff.
        """
        import numpy as np
        t0s, pts, qs = self._rows(t + HORIZON)
        radius = rho + SKIN
        k = self.diffusion
        with np.errstate(all="ignore"):     # q / 0 at a HORIZON of 0
            age = t - t0s
            released = age > 0
            # a released puff: its peak at t and its kt at t + HORIZON; a
            # fresh one: its peak and kt at age HORIZON, and a log >= 1
            peak = qs / (4.0 * math.pi * k * np.where(released, age, HORIZON))
            log_ratio = np.log(peak * (2.0 / CULL_BOUND))
            reach2 = np.where(released, 4.0 * k * (age + HORIZON) * log_ratio,
                              4.0 * k * HORIZON * np.maximum(log_ratio, 1.0))
            cx, cy = pts + self.flow.displacement(t0s, t)
            dx, dy = cx - qx, cy - qy
            near = np.maximum(np.sqrt(dx * dx + dy * dy) - radius, 0.0)
            keep = ~(near * near > reach2)
        rows = np.vstack((t0s, pts, qs))[:, keep].T.tolist()
        return _NeighbourList(t, qx, qy, radius, rows)

    def eval_many(self, points, t: float) -> list:
        """Concentration at several points, a list of m floats.

        Puffs whose c is below CULL_BOUND everywhere on the disc around
        the points (centre q, radius rho) are left out.  With d the
        distance from a puff centre to q and d- = max(d - rho, 0), such a
        puff's c on the disc is at most

            peak exp(-d-^2/(4kt))

        so the result is exact for any caller.  The bound is applied to
        the candidates of the plume's neighbour list, which holds every
        released puff that can pass it, so the kept terms are those of a
        bound over every released puff.

        A call is a few puffs at a few points, so it runs on Python
        floats: ``math.exp`` for each term, and C's hypot (``hypot``)
        for d.  Each point's kept terms are summed left to right in
        ``_rows`` order, starting from 0.0.  For fewer than 8 terms that
        is how numpy's ``sum`` adds them too; for more, numpy would add
        them pairwise.
        """
        pts = _pairs(points)
        if not pts:
            return []
        # the disc: the points' mean and the largest distance from it
        qx, qy = mean_point(pts)
        rho = max(math.hypot(x - qx, y - qy) for x, y in pts)
        terms = []                              # (peak, cx, cy, 4kt)
        for t0, x0, y0, q in self._near(t, qx, qy, rho):
            # a kt that underflows to 0 makes the term NaN, as the IEEE
            # q / 0 and 0 * inf would; Python raises on a division by 0
            kt = self.diffusion * (t - t0) or math.nan
            peak = q / (4.0 * math.pi * kt)
            cx, cy = self.flow.carry(x0, y0, t0, t)
            near = max(hypot(cx - qx, cy - qy) - rho, 0.0)
            # not <, so that a NaN bound keeps the puff
            if not peak * math.exp(-near * near / (4.0 * kt)) < CULL_BOUND:
                terms.append((peak, cx, cy, 4.0 * kt))
        c = []
        for x, y in pts:
            total = 0.0
            for peak, cx, cy, four_kt in terms:
                dx, dy = x - cx, y - cy
                total += peak * math.exp(-(dx * dx + dy * dy) / four_kt)
            c.append(total)
        return c

    def centroid(self, t: float) -> tuple[float, float]:
        """Advected position of the first strongest puff released before
        t (the mound center for seeded plumes, the source trail head
        otherwise); the train's first puff stands for the whole train."""
        live = [p for p in self.seed_puffs if not p.release_time >= t]
        best = max(live, key=lambda p: p.strength, default=None)
        if self.emission_rate != 0 and t > self.start_time and (
                best is None
                or self.emission_rate * self.puff_interval > best.strength):
            return self.flow.carry(*self.source, self.start_time, t)
        if best is None:
            return self.source
        return self.flow.carry(*best.point, best.release_time, t)

    def advance(self, t: float, max_substep: float = math.inf) -> "PuffPlume":
        """Closed form: the plume at any time is this same object."""
        return self

    def level_set_radius(self, c0: float, t: float) -> float | None:
        """Radius of the circular c = c0 level curve of a single seeded
        release; None when the peak is below c0 (empty level set)."""
        if self.emission_rate != 0 or len(self.seed_puffs) != 1:
            raise ValueError("level-set radius needs a single-puff plume")
        puff = self.seed_puffs[0]
        peak = puff.peak(t)
        if peak < c0:
            return None
        tau = t - puff.release_time
        return math.sqrt(4.0 * puff.diffusion * tau * math.log(peak / c0))


# ---------------------------------------------------------------------------
# frozen translating Gaussian (zero-diffusion limit)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrozenGaussian:
    """Rigid Gaussian mound advected by the flow, k = 0 exactly.

    c(x, t) = peak * exp(-|x - ctr(t)|^2 / (2 sigma^2)) with
    ctr(t) = center + integral of v over [0, t].  Solves the transport
    equation dc/dt + v . grad c = 0, so it is the oracle for the
    pure-advection experiments.
    """

    peak: float
    sigma: float
    center: tuple                   # (x, y) floats at t = 0
    flow: FlowField

    def __post_init__(self):
        object.__setattr__(self, "center", as_pair(self.center,
                                               "center must be (x, y)"))
        if not (self.peak > 0 and self.sigma > 0):
            raise ValueError("peak and sigma must be > 0")
        if self.sigma * self.sigma == 0.0:
            raise ValueError(f"sigma {self.sigma:g} is too small to square")

    has_analytic_truth = True

    def centroid(self, t: float) -> tuple[float, float]:
        return self.flow.carry(*self.center, 0.0, t)

    def advance(self, t: float, max_substep: float = math.inf) -> "FrozenGaussian":
        """Closed form: the field at any time is this same object."""
        return self

    def level_set_radius(self, c0: float, t: float) -> float | None:
        """Radius of the circular c = c0 level curve; None when the peak is
        below c0 (empty level set)."""
        if self.peak < c0:
            return None
        return self.sigma * math.sqrt(2.0 * math.log(self.peak / c0))

    def eval_many(self, points, t: float) -> list:
        """Concentration at several points, a list of m floats, on
        Python floats: d0*d0 + d1*d1 for |x - ctr(t)|^2 and
        ``math.exp``."""
        cx, cy = self.centroid(t)
        s2 = self.sigma * self.sigma
        c = []
        for x, y in _pairs(points):
            d0, d1 = x - cx, y - cy
            c.append(self.peak * math.exp(-(d0 * d0 + d1 * d1) / (2.0 * s2)))
        return c


# ---------------------------------------------------------------------------
# finite-difference grid field
# ---------------------------------------------------------------------------

def stable_dt(v, h: float, k: float) -> float:
    """Positivity-preserving bound for one explicit grid step at flow v,
    cell size h and diffusion k, including the 0.9 safety factor:
    dt <= 0.9 / ((|vx|+|vy|)/h + 4 k / h^2).  It is 0.0 where the bound
    underflows (h^2 does for h below ~1e-162)."""
    rate = (abs(v[0]) + abs(v[1])) / h
    if k > 0:
        rate += 4.0 * k / (h * h) if h * h > 0 else math.inf
    if rate == 0.0:
        return math.inf
    return 0.9 / rate


@dataclass(frozen=True)
class GridField:
    """Explicit finite-difference solution of the dispersion PDE.

    Cell (i, j) is centered at origin + ((i + 0.5) h, (j + 0.5) h); the
    concentration array is indexed [i, j] with axis 0 along x.  Boundary
    mode is "periodic" (wrap) or "outflow" (zero-gradient ghost cells).
    """

    origin: tuple                    # (x, y) floats
    cell_size: float
    conc: object                     # (nx, ny) float array
    diffusion: float
    flow: FlowField
    boundary: str = "outflow"
    time: float = 0.0

    def __post_init__(self):
        import numpy as np
        object.__setattr__(self, "origin", as_pair(self.origin,
                                               "origin must be (x, y)"))
        c = np.asarray(self.conc, dtype=float)
        if c.ndim != 2 or min(c.shape) < 3:
            raise ValueError("grid must be 2-D with nx, ny >= 3")
        if not self.cell_size > 0:
            raise ValueError("cell size h must be > 0")
        if not self.diffusion >= 0:
            raise ValueError("diffusion k must be >= 0")
        if self.boundary not in ("outflow", "periodic"):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")
        own = _aligned(c.size).reshape(c.shape)     # C order: step's flat views
        own[...] = c
        own.flags.writeable = False
        object.__setattr__(self, "conc", own)
        object.__setattr__(self, "_scratch", None)   # step's work buffers

    def _scalars(self) -> tuple:
        """Every field but the cells, in declaration order."""
        return tuple(getattr(self, f.name) for f in fields(self)
                     if f.name != "conc")

    def __eq__(self, other):
        if type(other) is not GridField:
            return NotImplemented
        import numpy as np
        return (self._scalars() == other._scalars()
                and np.array_equal(self.conc, other.conc))

    def __hash__(self):
        # + 0.0 turns -0.0 cells, which array_equal calls equal, into 0.0
        return hash((self._scalars(), self.conc.shape,
                     (self.conc + 0.0).tobytes()))

    def __reduce__(self):
        # through the constructor, so a copy or a sweep worker's unpickled
        # grid owns aligned read-only cells too, and no work buffers
        return (GridField, (self.origin, self.cell_size, self.conc,
                            self.diffusion, self.flow, self.boundary,
                            self.time))

    has_analytic_truth = False

    @classmethod
    def from_puff(cls, puff: GaussianPuff, flow: FlowField, t: float,
                  origin, cell_size: float, shape, **kwargs):
        """Initialize cell values from the analytic puff at time t.
        Further keywords (``boundary``) go to the constructor."""
        import numpy as np
        nx, ny = shape
        x0, y0 = origin = as_pair(origin, "origin must be (x, y)")
        ctr = puff.center(flow, t)
        tau = t - puff.release_time
        four_kt = 4.0 * puff.diffusion * tau
        peak = puff.strength / (math.pi * four_kt) if four_kt else math.inf
        if not math.isfinite(peak):
            raise ValueError("puff peak Q/(4 pi k tau) overflows "
                             f"(k={puff.diffusion:g}, tau={tau:g})")
        # a centre or a square that overflows is a cell so far out that
        # its exact value, exp(-inf) = 0, is what the overflow gives
        with np.errstate(over="ignore"):
            xs = x0 + (np.arange(nx) + 0.5) * cell_size
            ys = y0 + (np.arange(ny) + 0.5) * cell_size
            r2 = (xs[:, None] - ctr[0]) ** 2 + (ys[None, :] - ctr[1]) ** 2
            arg = -r2 / four_kt
        # math.exp, so the cells do not depend on numpy's SIMD dispatch;
        # a row at a time, so the Python floats never outgrow one row
        e = np.empty_like(arg)
        for i, row in enumerate(arg):
            e[i] = list(map(math.exp, row.tolist()))
        e *= peak                           # in place: the constructor copies
        return cls(origin, cell_size, e, puff.diffusion, flow, time=t,
                   **kwargs)

    def mass(self) -> float:
        return float(self.conc.sum()) * self.cell_size * self.cell_size

    def centroid(self, t: float) -> tuple[float, float]:
        """Mass centroid of the cells, advected by the flow from
        ``self.time`` to t.  Each moment, the row or column masses times
        the cell centres, is a ``dot`` on Python floats, so no BLAS
        kernel sets its bits.  Sums and centres that
        overflow are inf, without a warning."""
        import numpy as np
        nx, ny = self.conc.shape
        with np.errstate(over="ignore"):
            xs = self.origin[0] + (np.arange(nx) + 0.5) * self.cell_size
            ys = self.origin[1] + (np.arange(ny) + 0.5) * self.cell_size
            m = float(self.conc.sum())
            rows, cols = self.conc.sum(axis=1), self.conc.sum(axis=0)
        if m <= 0:
            return self.origin
        cx = dot(rows.tolist(), xs.tolist()) / m
        cy = dot(cols.tolist(), ys.tolist()) / m
        return self.flow.carry(cx, cy, self.time, t)

    def level_set_radius(self, c0: float, t: float) -> float | None:
        raise ValueError("no closed-form level set for GridField")

    def max_stable_dt(self) -> float:
        """``stable_dt`` at the flow of ``self.time``."""
        return stable_dt(self.flow.at(self.time), self.cell_size,
                         self.diffusion)

    def step(self, dt: float) -> "GridField":
        """One explicit Euler step of first-order upwind advection and
        5-point central diffusion, in difference form:

            new = c + a_w (c_w - c) + a_e (c_e - c) + a_s (c_s - c) + a_n (c_n - c)

        a_w = dt (k/h^2 + max(vx, 0)/h) and a_e = dt (k/h^2 + max(-vx, 0)/h),
        a_s and a_n likewise with vy.  Every a_i >= 0 and their sum is
        dt ((|vx| + |vy|)/h + 4 k/h^2) <= 0.9 within ``max_stable_dt``, so a
        new cell is a convex combination of its 5-cell neighbourhood and
        never leaves that neighbourhood's range: no negative values.  An
        outflow ghost's difference is 0; a periodic one is the wrapped row or
        column.  Raises StepSizeError beyond the stability bound; the caller
        is expected to subdivide.

        Each axis takes one difference, D = c[i + 1] - c[i], for both of
        its directions: cell i's east term is + a_e D[i] and cell i + 1's
        west term - a_w D[i].  IEEE negation is exact, so the terms, their
        W, E, S, N order and every new cell's bits are those of four
        separate differences, for any c without a -0.0 cell (a step
        makes none).  The differences are flat passes; the y pair's
        first and last columns, whose flat neighbours are wrong, are set
        after.  The work buffers are made by the first step and handed to
        the field each step returns, so a run allocates only the returned
        ``conc`` per step; nothing a step leaves in them is read again,
        but two fields of one chain must not be stepped at once from two
        threads.  The new cells and both buffers start on 64-byte
        boundaries (see the module docstring), which changes no bits; the
        new cells are read-only once written.  The returned field copies
        this one's attributes but ``conc``, ``time`` and the buffers,
        without the constructor's conversions and checks."""
        import numpy as np
        if not dt > 0:
            raise ValueError("dt must be > 0")
        v = self.flow.at(self.time)
        h = self.cell_size
        bound = stable_dt(v, h, self.diffusion)
        if dt > bound * (1.0 + 1e-12):
            raise StepSizeError(f"dt={dt:g} exceeds stable bound {bound:g}")
        kh = self.diffusion / (h * h) if self.diffusion > 0 else 0.0
        a_w = dt * (kh + max(v[0], 0.0) / h)
        a_e = dt * (kh + max(-v[0], 0.0) / h)
        a_s = dt * (kh + max(v[1], 0.0) / h)
        a_n = dt * (kh + max(-v[1], 0.0) / h)
        c = self.conc
        n, ny = c.size, c.shape[1]
        d, ad = self._scratch or (_aligned(n), _aligned(n))
        new = _aligned(n).reshape(c.shape)
        flat_c, flat_new = c.ravel(), new.ravel()
        periodic = self.boundary == "periodic"
        # x pair: rows 1.. take the west term, rows ..-2 the east one, and
        # the ghost rows their ghost difference times a; the west products
        # go straight into the new cells they are taken from
        m = n - ny
        np.subtract(flat_c[ny:], flat_c[:m], out=d[:m])
        np.multiply(d[:m], a_w, out=flat_new[ny:])
        np.subtract(flat_c[ny:], flat_new[ny:], out=flat_new[ny:])
        new[0] = c[0] + a_w * (c[-1] - c[0] if periodic else 0.0)
        np.multiply(d[:m], a_e, out=ad[:m])
        np.add(flat_new[:m], ad[:m], out=flat_new[:m])
        new[-1] += a_e * (c[0] - c[-1] if periodic else 0.0)
        # y pair: the flat passes also cross from a row's end to the next
        # row's start, so the column each ghost borders is saved and set
        m = n - 1
        np.subtract(flat_c[1:], flat_c[:m], out=d[:m])
        first = new[:, 0].copy()
        np.multiply(d[:m], a_s, out=ad[:m])
        np.subtract(flat_new[1:], ad[:m], out=flat_new[1:])
        new[:, 0] = first + a_s * (c[:, -1] - c[:, 0] if periodic else 0.0)
        last = new[:, -1].copy()
        np.multiply(d[:m], a_n, out=ad[:m])
        np.add(flat_new[:m], ad[:m], out=flat_new[:m])
        new[:, -1] = last + a_n * (c[:, 0] - c[:, -1] if periodic else 0.0)
        new.flags.writeable = False
        g = object.__new__(GridField)
        g.__dict__.update(self.__dict__, conc=new, time=self.time + dt,
                          _scratch=(d, ad))
        return g

    def advance(self, t_target: float, max_substep: float = math.inf) -> "GridField":
        """Step until ``t_target`` using substeps within both the stability
        bound and ``max_substep``."""
        g = self
        while g.time < t_target - 1e-12:
            span = t_target - g.time
            dt_cap = min(g.max_stable_dt(), max_substep)
            if dt_cap <= 0.0:
                raise StepSizeError(f"no step fits the bound {dt_cap:g}")
            n = max(1, int(math.ceil(span / dt_cap - 1e-12)))
            g = g.step(span / n)
        return g

    def eval_many(self, points, t: float) -> list:
        """Concentration at each point at ``self.time``, a list of m
        floats; t is ignored, the caller advances the grid first.
        Bilinear interpolation of the cell values, continuous in x within
        each cell, on Python floats: with (fx, fy) the point's offset in
        its 2 x 2 cell block, the sum

            w00 c00 + w10 c10 + w01 c01 + w11 c11

        is taken left to right, w00 = (1 - fx)(1 - fy), w10 = fx (1 - fy),
        w01 = (1 - fx) fy and w11 = fx fy.  Raises DomainError for the
        first point that is not at least one cell inside the grid's outer
        ring, a NaN or infinite coordinate included."""
        x0, y0 = self.origin
        h = self.cell_size
        nx, ny = self.conc.shape
        cell = self.conc.item
        c = []
        for x, y in _pairs(points):
            u, v = (x - x0) / h - 0.5, (y - y0) / h - 0.5
            # the bilinear block needs only 0 <= floor(u) <= nx - 2; the
            # margin of one cell more on each side is kept so that runs
            # truncate where they always have.  The test is on u, which
            # math.floor refuses when NaN or infinite.
            if not (1 <= u < nx - 2 and 1 <= v < ny - 2):
                raise DomainError(
                    f"sample at {[x, y]} too close to the grid boundary")
            i, j = math.floor(u), math.floor(v)
            fx, fy = u - i, v - j
            gx, gy = 1 - fx, 1 - fy
            k = i * ny + j                      # flat index of c00
            c.append(gx * gy * cell(k) + fx * gy * cell(k + ny)
                     + gx * fy * cell(k + 1) + fx * fy * cell(k + ny + 1))
        return c
