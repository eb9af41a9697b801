"""Concentration and flow fields for the 2-D advection-diffusion plume.

The scalar concentration c(x, t) obeys

    dc/dt + v . grad(c) = k * lap(c)

with a spatially uniform (possibly piecewise-constant-in-time) flow v and a
scalar turbulent diffusion coefficient k.  Three field models are provided:

* ``GaussianPuff`` / ``PuffPlume`` - the closed-form impulsive-release
  solution and its superposition for a discretized continuous source.  A
  puff's centre moves with the flow's displacement integral, so the puffs
  stay exact under piecewise-constant flow.  The plume's concentration is
  exact, and the point functions ``puff_gradient`` and ``puff_laplacian``
  give a puff's exact derivatives, which makes the puffs the reference
  oracle for everything else.
* ``FrozenGaussian`` - a rigid Gaussian shape translating with the flow;
  the exact zero-diffusion (k = 0) solution.
* ``GridField`` - an explicit finite-difference solver (first-order upwind
  advection, 5-point central diffusion) validated against the puff oracle.
  A step is c + sum_i a_i (c_i - c) over the four neighbours, with scalar
  weights a_i >= 0 that sum to at most 0.9 within the stable dt, so each
  new cell is a convex combination of its neighbourhood and stays >= 0.
  It is computed from neighbour differences without padded copies; a
  sample gathers every point's 2 x 2 cell block at once.

All three share one protocol: ``eval_many(points, t)`` is the only
sampling call and gives the concentration c at every point (a
``GridField`` samples itself at its own ``time`` and ignores t); the
gradient and divergence the control law needs come from the sensor
stencil, not from the field.  ``advance(t, max_substep)`` returns the
field at time t (the analytic fields return themselves), ``centroid(t)``
is the plume centre, and ``level_set_radius(c0, t)`` is the radius of a
circular c = c0 curve or raises ``ValueError`` where there is no closed
form.

The puff plume keeps its puffs in a release table (seed puffs, then the
emission train) that grows by doubling and hands out prefix slices.  An
evaluation leaves out every puff whose c is below ``CULL_BOUND`` on the
disc around the query points; on case1 that is all but one of about
1,300 puffs.

Concentration is in ppb, lengths in m, times in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# A puff whose c is bounded by this (ppb) over every query point is left
# out of the sum.
CULL_BOUND = 1e-30


class FieldError(ValueError):
    """Base class for field-model errors."""


class PuffTimeError(FieldError):
    """Puff evaluated at or before its release time."""


class StepSizeError(FieldError):
    """Explicit grid step larger than the stability bound."""


class DomainError(FieldError):
    """Sample point too close to or outside the grid boundary."""


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowField:
    """Spatially uniform flow, constant or piecewise constant in time.

    ``boundaries`` are strictly increasing switch times; ``velocities`` has
    one more row than there are boundaries.  Segment i is active on the
    half-open interval [boundaries[i-1], boundaries[i]), so a query exactly
    on a boundary returns the later segment's velocity.
    """

    velocities: np.ndarray          # (n_seg, 2)
    boundaries: np.ndarray          # (n_seg - 1,)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        b = np.asarray(self.boundaries, dtype=float).ravel()
        if v.shape != (b.size + 1, 2):
            raise ValueError("need len(boundaries) + 1 velocity vectors")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(b))):
            raise ValueError("flow velocities and boundaries must be finite")
        if b.size and not np.all(np.diff(b) > 0):
            raise ValueError("segment boundaries must be strictly increasing")
        object.__setattr__(self, "velocities", v)
        object.__setattr__(self, "boundaries", b)

    @classmethod
    def uniform(cls, velocity) -> "FlowField":
        return cls(np.asarray([velocity], dtype=float), np.empty(0))

    def at(self, t: float) -> np.ndarray:
        """Flow velocity at time t, everywhere: the flow is spatially
        uniform by construction."""
        i = int(np.searchsorted(self.boundaries, t, side="right"))
        return self.velocities[i].copy()

    def displacement(self, t0, t1: float) -> np.ndarray:
        """Integral of v over [t0, t1] for t0 <= t1, vectorised over t0.

        v(t1) (t1 - t0) minus, for each switch b in (t0, t1], the velocity
        jump at b times (b - t0).  Shape ``(2,) + np.shape(t0)``, x and y
        first; under a uniform flow exactly v * (t1 - t0).
        """
        t0 = np.asarray(t0, dtype=float)
        disp = np.multiply.outer(self.at(t1), t1 - t0)
        for i, b in enumerate(self.boundaries):
            if b <= t1:
                jump = self.velocities[i + 1] - self.velocities[i]
                disp -= np.multiply.outer(jump, np.where(t0 < b, b - t0, 0.0))
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
    point: np.ndarray
    strength: float
    diffusion: float

    def __post_init__(self):
        object.__setattr__(self, "point",
                           np.asarray(self.point, dtype=float).reshape(2))
        if self.strength <= 0:
            raise ValueError("puff strength Q must be > 0")
        if self.diffusion <= 0:
            raise ValueError("diffusion k must be > 0")

    def peak(self, t: float) -> float:
        tau = t - self.release_time
        if tau <= 0:
            raise PuffTimeError(f"puff evaluated at age {tau:g} <= 0")
        return self.strength / (4.0 * math.pi * self.diffusion * tau)

    def center(self, flow: FlowField, t: float) -> np.ndarray:
        tau = t - self.release_time
        if tau <= 0:
            raise PuffTimeError(f"puff evaluated at age {tau:g} <= 0")
        return self.point + flow.displacement(self.release_time, t)


def puff_concentration(puff: GaussianPuff, flow: FlowField, x, t: float) -> float:
    """Exact concentration of a single puff at (x, t)."""
    tau = t - puff.release_time
    if tau <= 0:
        raise PuffTimeError(f"puff evaluated at age {tau:g} <= 0")
    d = np.asarray(x, dtype=float).reshape(2) - puff.center(flow, t)
    four_kt = 4.0 * puff.diffusion * tau
    return puff.strength / (math.pi * four_kt) * math.exp(-(d @ d) / four_kt)


def puff_gradient(puff: GaussianPuff, flow: FlowField, x, t: float) -> np.ndarray:
    """Exact spatial gradient of a single puff at (x, t)."""
    tau = t - puff.release_time
    c = puff_concentration(puff, flow, x, t)
    d = np.asarray(x, dtype=float).reshape(2) - puff.center(flow, t)
    return -c * d / (2.0 * puff.diffusion * tau)


def puff_laplacian(puff: GaussianPuff, flow: FlowField, x, t: float) -> float:
    """Exact Laplacian of a single puff at (x, t)."""
    tau = t - puff.release_time
    c = puff_concentration(puff, flow, x, t)
    d = np.asarray(x, dtype=float).reshape(2) - puff.center(flow, t)
    kt = puff.diffusion * tau
    return c * ((d @ d) / (4.0 * kt * kt) - 2.0 / (2.0 * kt))


# ---------------------------------------------------------------------------
# puff-superposition plume
# ---------------------------------------------------------------------------

class _ReleaseTable:
    """Release times, points and strengths of a plume's puffs: the seed
    puffs in document order, then the emission train by release time.

    The train part grows by doubling.  Train row i always holds
    start_time + i * puff_interval, so the values never depend on when the
    table grew and a plume shared between runs stays deterministic.
    """

    def __init__(self, plume: "PuffPlume"):
        seeds = plume.seed_puffs
        self._n_seed = len(seeds)
        self._seed_t0 = np.asarray([p.release_time for p in seeds], dtype=float)
        self._seed_pts = np.asarray([p.point for p in seeds],
                                    dtype=float).reshape(-1, 2).T
        self._seed_q = np.asarray([p.strength for p in seeds], dtype=float)
        self._last_seed = float(self._seed_t0.max()) if seeds else -math.inf
        self._plume = plume
        self._grow(0)

    def _grow(self, n_train: int):
        pl = self._plume
        self.t0s = np.concatenate(
            [self._seed_t0, pl.start_time + pl.puff_interval * np.arange(n_train)])
        self.pts = np.concatenate(
            [self._seed_pts, np.repeat(pl.source[:, None], n_train, axis=1)],
            axis=1)
        self.qs = np.concatenate(
            [self._seed_q,
             np.full(n_train, pl.emission_rate * pl.puff_interval)])

    def released(self, t: float):
        """(release_times, points (2, n), strengths) of the puffs with
        t0 < t; prefix slices of the table unless a seed puff is still to
        come."""
        pl = self._plume
        n = 0
        if pl.emission_rate != 0 and t > pl.start_time:
            need = int(math.ceil((t - pl.start_time) / pl.puff_interval)) + 1
            if need > self.t0s.size - self._n_seed:
                self._grow(2 * need)
            n = int(np.searchsorted(self.t0s[self._n_seed:], t, side="left"))
        k = self._n_seed + n
        t0s, pts, qs = self.t0s[:k], self.pts[:, :k], self.qs[:k]
        if t <= self._last_seed:
            live = t0s < t
            return t0s[live], pts[:, live], qs[live]
        return t0s, pts, qs


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
    """

    source: np.ndarray
    flow: FlowField
    diffusion: float
    emission_rate: float = 0.0      # ppb m^2 / s; 0 disables the train
    puff_interval: float = 0.5
    start_time: float = 0.0
    seed_puffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "source",
                           np.asarray(self.source, dtype=float).reshape(2))
        if self.emission_rate < 0:
            raise ValueError("emission rate must be >= 0")
        if self.puff_interval <= 0:
            raise ValueError("puff interval must be > 0")
        if self.diffusion <= 0:
            raise ValueError("diffusion k must be > 0")
        for p in self.seed_puffs:
            if p.diffusion != self.diffusion:
                raise ValueError("seed puff diffusion must match the plume's")
        object.__setattr__(self, "_table", _ReleaseTable(self))

    has_analytic_truth = True

    def eval_many(self, points, t: float):
        """Concentration (m,) at several points.

        Puffs whose c is below CULL_BOUND everywhere on the disc around
        the points (centre q, radius rho) are left out.  With d the
        distance from a puff centre to q and d- = max(d - rho, 0), such a
        puff's c on the disc is at most

            peak exp(-d-^2/(4kt))

        so the result is exact for any caller.  The kept terms are summed
        in table order.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        t0s, origins, qs = self._table.released(t)
        kt = self.diffusion * (t - t0s)                   # (n,)
        peak = qs / (4.0 * math.pi * kt)
        cx, cy = origins + self.flow.displacement(t0s, t)
        q = pts.mean(axis=0)
        rho = max(math.hypot(*p) for p in (pts - q).tolist())
        near = np.maximum(np.hypot(cx - q[0], cy - q[1]) - rho, 0.0)
        bound = peak * np.exp(-near * near / (4.0 * kt))
        keep = np.flatnonzero(~(bound < CULL_BOUND))
        dx = pts[:, 0, None] - cx[keep]                   # (m, n)
        dy = pts[:, 1, None] - cy[keep]
        c_terms = peak[keep] * np.exp(-(dx * dx + dy * dy) / (4.0 * kt[keep]))
        return c_terms.sum(axis=1)

    def centroid(self, t: float) -> np.ndarray:
        """Advected position of the strongest released puff (the mound
        center for seeded plumes, the source trail head otherwise)."""
        t0s, origins, qs = self._table.released(t)
        if t0s.size == 0:
            return self.source.copy()
        i = int(np.argmax(qs))
        return origins[:, i] + self.flow.displacement(t0s[i], t)

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
    center: np.ndarray
    flow: FlowField

    def __post_init__(self):
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float).reshape(2))
        if self.peak <= 0 or self.sigma <= 0:
            raise ValueError("peak and sigma must be > 0")
        if self.sigma * self.sigma == 0.0:
            raise ValueError(f"sigma {self.sigma:g} is too small to square")

    has_analytic_truth = True

    def centroid(self, t: float) -> np.ndarray:
        if t >= 0:
            return self.center + self.flow.displacement(0.0, t)
        return self.center - self.flow.displacement(t, 0.0)

    def advance(self, t: float, max_substep: float = math.inf) -> "FrozenGaussian":
        """Closed form: the field at any time is this same object."""
        return self

    def level_set_radius(self, c0: float, t: float) -> float | None:
        """Radius of the circular c = c0 level curve; None when the peak is
        below c0 (empty level set)."""
        if self.peak < c0:
            return None
        return self.sigma * math.sqrt(2.0 * math.log(self.peak / c0))

    def eval_many(self, points, t: float):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = pts - self.centroid(t)[None, :]
        r2 = np.einsum("mk,mk->m", d, d)
        s2 = self.sigma * self.sigma
        return self.peak * np.exp(-r2 / (2.0 * s2))


# ---------------------------------------------------------------------------
# finite-difference grid field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridField:
    """Explicit finite-difference solution of the dispersion PDE.

    Cell (i, j) is centered at origin + ((i + 0.5) h, (j + 0.5) h); the
    concentration array is indexed [i, j] with axis 0 along x.  Boundary
    mode is "periodic" (wrap) or "outflow" (zero-gradient ghost cells).
    """

    origin: np.ndarray
    cell_size: float
    conc: np.ndarray                 # (nx, ny)
    diffusion: float
    flow: FlowField
    boundary: str = "outflow"
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "origin",
                           np.asarray(self.origin, dtype=float).reshape(2))
        c = np.ascontiguousarray(self.conc, dtype=float)  # step's flat views
        if c.ndim != 2 or min(c.shape) < 3:
            raise ValueError("grid must be 2-D with nx, ny >= 3")
        if self.cell_size <= 0:
            raise ValueError("cell size h must be > 0")
        if self.diffusion < 0:
            raise ValueError("diffusion k must be >= 0")
        if self.boundary not in ("outflow", "periodic"):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")
        object.__setattr__(self, "conc", c)

    has_analytic_truth = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.conc.shape

    @classmethod
    def from_puff(cls, puff: GaussianPuff, flow: FlowField, t: float,
                  origin, cell_size: float, shape, **kwargs):
        """Initialize cell values from the analytic puff at time t.
        Further keywords (``boundary``) go to the constructor."""
        nx, ny = shape
        xs = np.asarray(origin, float)[0] + (np.arange(nx) + 0.5) * cell_size
        ys = np.asarray(origin, float)[1] + (np.arange(ny) + 0.5) * cell_size
        ctr = puff.center(flow, t)
        tau = t - puff.release_time
        four_kt = 4.0 * puff.diffusion * tau
        peak = puff.strength / (math.pi * four_kt) if four_kt else math.inf
        if not math.isfinite(peak):
            raise ValueError("puff peak Q/(4 pi k tau) overflows "
                             f"(k={puff.diffusion:g}, tau={tau:g})")
        r2 = (xs[:, None] - ctr[0]) ** 2 + (ys[None, :] - ctr[1]) ** 2
        conc = peak * np.exp(-r2 / four_kt)
        return cls(np.asarray(origin, float), cell_size, conc,
                   puff.diffusion, flow, time=t, **kwargs)

    def mass(self) -> float:
        return float(self.conc.sum() * self.cell_size * self.cell_size)

    def centroid(self, t: float) -> np.ndarray:
        """Mass centroid of the cells, advected by the flow from
        ``self.time`` to t."""
        nx, ny = self.shape
        xs = self.origin[0] + (np.arange(nx) + 0.5) * self.cell_size
        ys = self.origin[1] + (np.arange(ny) + 0.5) * self.cell_size
        m = self.conc.sum()
        if m <= 0:
            return self.origin.copy()
        cx = float((self.conc.sum(axis=1) @ xs) / m)
        cy = float((self.conc.sum(axis=0) @ ys) / m)
        if t >= self.time:
            disp = self.flow.displacement(self.time, t)
        else:
            disp = -self.flow.displacement(t, self.time)
        return np.array([cx, cy]) + disp

    def level_set_radius(self, c0: float, t: float) -> float | None:
        raise ValueError("no closed-form level set for GridField")

    def max_stable_dt(self) -> float:
        """Positivity-preserving bound for one explicit step, including the
        0.9 safety factor: dt <= 0.9 / ((|vx|+|vy|)/h + 4 k / h^2).  It is
        0.0 where the bound underflows (h^2 does for h below ~1e-162)."""
        v = self.flow.at(self.time)
        h = self.cell_size
        rate = (abs(v[0]) + abs(v[1])) / h
        if self.diffusion > 0:
            rate += 4.0 * self.diffusion / (h * h) if h * h > 0 else math.inf
        if rate == 0.0:
            return math.inf
        return 0.9 / rate

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
        is expected to subdivide."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if dt > self.max_stable_dt() * (1.0 + 1e-12):
            raise StepSizeError(
                f"dt={dt:g} exceeds stable bound {self.max_stable_dt():g}")
        v = self.flow.at(self.time)
        h = self.cell_size
        kh = self.diffusion / (h * h) if self.diffusion > 0 else 0.0
        c = self.conc
        new = np.empty_like(c)
        diff = np.empty_like(c)
        flat_c, flat_d = c.ravel(), diff.ravel()
        n, ny = c.size, c.shape[1]
        col = slice(None)
        acc = c
        # weight, neighbour offset in the flat array, the ghost row or
        # column and the one a periodic ghost wraps to
        for a, s, edge, wrap in (
                (dt * (kh + max(v[0], 0.0) / h), -ny, 0, -1),
                (dt * (kh + max(-v[0], 0.0) / h), ny, -1, 0),
                (dt * (kh + max(v[1], 0.0) / h), -1, (col, 0), (col, -1)),
                (dt * (kh + max(-v[1], 0.0) / h), 1, (col, -1), (col, 0))):
            # flat neighbour differences; the ghost row or column, which
            # also holds every wrong flat neighbour, is set after
            lo, hi = max(0, -s), n - max(0, s)
            np.subtract(flat_c[lo + s:hi + s], flat_c[lo:hi], out=flat_d[lo:hi])
            if self.boundary == "periodic":
                np.subtract(c[wrap], c[edge], out=diff[edge])
            else:
                diff[edge] = 0.0
            np.multiply(diff, a, out=diff)
            np.add(acc, diff, out=new)
            acc = new
        return replace(self, conc=new, time=self.time + dt)

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

    def eval_many(self, points, t: float):
        """Concentration at each point at ``self.time``; t is ignored, the
        caller advances the grid first.  Bilinear interpolation of the cell
        values, continuous in x within each cell: the points' 2 x 2 cell
        blocks are gathered at once and each bilinear sum is one batched
        dot product.  Raises DomainError for the first point that is not
        at least one cell inside the grid's outer ring."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        u = (pts - self.origin) / self.cell_size - 0.5
        node = np.floor(u)
        # the bilinear block needs only 0 <= node <= shape - 2; the margin
        # of one cell more on each side is kept so that runs truncate
        # where they always have
        inside = (node >= 1) & (node <= np.array(self.conc.shape) - 3)
        if not inside.all():
            pt = pts[np.argmin(inside.all(axis=1))]
            raise DomainError(
                f"sample at {pt.tolist()} too close to the grid boundary")
        fx, fy = (u - node).T
        # bilinear weights for nodes (i0, j0), (i0+1, j0), (i0, j0+1), (i0+1, j0+1)
        w = np.stack(((1 - fx) * (1 - fy), fx * (1 - fy),
                      (1 - fx) * fy, fx * fy), axis=1)
        i = node[:, 0].astype(np.intp)[:, None] + (0, 1)
        j = node[:, 1].astype(np.intp)[:, None] + (0, 1)
        # b[p, j, i], j first so that a reshape lists each 2 x 2 block in
        # the weights' node order
        b = self.conc[i[:, None, :], j[:, :, None]].reshape(len(pts), 4, 1)
        # a (1, 4) @ (4, 1) product per point: numpy hands those to its
        # dot routine, so each sum rounds as a 1-D w @ x does
        return (w[:, None, :] @ b)[:, 0, 0]
