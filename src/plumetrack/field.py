"""Concentration and flow fields for the 2-D advection-diffusion plume.

The scalar concentration c(x, t) obeys

    dc/dt + v . grad(c) = k * lap(c)

with a spatially uniform (possibly piecewise-constant-in-time) flow v and a
scalar turbulent diffusion coefficient k.  Three field models are provided:

* ``GaussianPuff`` / ``PuffPlume`` - the closed-form impulsive-release
  solution under uniform flow and its superposition for a discretized
  continuous source.  Concentration, gradient, and Laplacian are exact,
  which makes the puff plume the reference oracle for everything else.
* ``FrozenGaussian`` - a rigid Gaussian shape translating with the flow;
  the exact zero-diffusion (k = 0) solution.
* ``GridField`` - an explicit finite-difference solver (first-order upwind
  advection, 5-point central diffusion) validated against the puff oracle.

All three share one protocol: ``eval``/``eval_many`` give (c, grad, lap),
``advance(t, max_substep)`` returns the field at time t (the analytic
fields return themselves), ``centroid(t)`` is the plume centre, and
``level_set_radius(c0, t)`` is the radius of a circular c = c0 curve or
raises ``ValueError`` where there is no closed form.

Concentration is in ppb, lengths in m, times in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Puffs whose peak concentration falls below this are dropped from
# superpositions; well under the 0.01 ppb sensor floor.
PRUNE_PEAK = 1e-6


class FieldError(ValueError):
    """Base class for field-model errors."""


class PuffTimeError(FieldError):
    """Puff evaluated at or before its release time."""


class FlowUniformityError(FieldError):
    """Closed-form puff used across a flow change (model validity)."""


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

    @classmethod
    def piecewise(cls, boundaries, velocities) -> "FlowField":
        return cls(np.asarray(velocities, dtype=float),
                   np.asarray(boundaries, dtype=float))

    @property
    def is_uniform(self) -> bool:
        return self.boundaries.size == 0

    def at(self, x, t: float) -> np.ndarray:
        """Flow velocity at position x and time t (x is ignored; the flow
        is spatially uniform by construction)."""
        i = int(np.searchsorted(self.boundaries, t, side="right"))
        return self.velocities[i].copy()

    def constant_over(self, t0: float, t1: float) -> np.ndarray:
        """Velocity if the flow is constant on [t0, t1], else raise."""
        if self.is_uniform:
            return self.velocities[0].copy()
        i0 = int(np.searchsorted(self.boundaries, t0, side="right"))
        i1 = int(np.searchsorted(self.boundaries, t1, side="right"))
        if i0 != i1:
            raise FlowUniformityError(
                f"flow changes inside [{t0:g}, {t1:g}]; "
                "closed-form puff transport is invalid there")
        return self.velocities[i0].copy()


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
        v = flow.constant_over(self.release_time, t)
        return self.point + v * tau


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

@dataclass(frozen=True)
class PuffPlume:
    """Continuous source discretized as a train of Gaussian puffs.

    Every ``puff_interval`` seconds from ``start_time`` a puff of strength
    Q = emission_rate * puff_interval is released at ``source``.  Optional
    ``seed_puffs`` (e.g. one old, strong release that forms the main mound)
    are superposed on top.  Evaluation sums the closed-form puffs; the PDE
    is linear, so the sum is itself an exact solution.
    """

    source: np.ndarray
    emission_rate: float            # ppb m^2 / s; 0 disables the train
    puff_interval: float
    flow: FlowField
    diffusion: float
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
        object.__setattr__(self, "_seed_t0", np.asarray(
            [p.release_time for p in self.seed_puffs], dtype=float))
        object.__setattr__(self, "_seed_pts", np.asarray(
            [p.point for p in self.seed_puffs], dtype=float).reshape(-1, 2))
        object.__setattr__(self, "_seed_q", np.asarray(
            [p.strength for p in self.seed_puffs], dtype=float))
        object.__setattr__(self, "_schedule", np.empty(0))

    has_analytic_truth = True

    def _emission_times(self, t: float) -> np.ndarray:
        """Release times < t of the emission train (cached, grown on use)."""
        if self.emission_rate == 0 or t <= self.start_time:
            return np.empty(0)
        sched = self._schedule
        n = int(math.ceil((t - self.start_time) / self.puff_interval)) + 1
        if n > sched.size:
            sched = self.start_time + self.puff_interval * np.arange(2 * n)
            object.__setattr__(self, "_schedule", sched)
        idx = int(np.searchsorted(sched, t, side="left"))
        return sched[:idx]

    def _released(self, t: float):
        """(release_times, points, strengths) of puffs with t0 < t."""
        live = self._seed_t0 < t
        times = self._emission_times(t)
        t0s = np.concatenate([self._seed_t0[live], times])
        pts = np.concatenate([self._seed_pts[live],
                              np.broadcast_to(self.source, (times.size, 2))])
        qs = np.concatenate([self._seed_q[live],
                             np.full(times.size,
                                     self.emission_rate * self.puff_interval)])
        return t0s, pts, qs

    def eval_many(self, points, t: float):
        """Concentration, gradient, Laplacian at several points.

        Returns (c (m,), grad (m, 2), lap (m,)).  Requires t >= start_time
        and a flow that is constant over every live puff's lifetime.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if t < self.start_time:
            raise PuffTimeError(
                f"plume evaluated at t={t:g} before start_time={self.start_time:g}")
        t0s, origins, qs = self._released(t)
        if t0s.size == 0:
            return (np.zeros(len(pts)), np.zeros((len(pts), 2)),
                    np.zeros(len(pts)))
        v = self.flow.constant_over(float(t0s.min()), t)
        tau = t - t0s                                     # (n,)
        kt = self.diffusion * tau
        peak = qs / (4.0 * math.pi * kt)
        keep = peak >= PRUNE_PEAK
        if not keep.all():
            tau, kt, peak, t0s = tau[keep], kt[keep], peak[keep], t0s[keep]
            origins, qs = origins[keep], qs[keep]
        centers = origins + v[None, :] * tau[:, None]     # (n, 2)
        d = pts[:, None, :] - centers[None, :, :]         # (m, n, 2)
        r2 = np.einsum("mnk,mnk->mn", d, d)
        c_terms = peak[None, :] * np.exp(-r2 / (4.0 * kt)[None, :])
        c = c_terms.sum(axis=1)
        g_terms = -c_terms[:, :, None] * d / (2.0 * kt)[None, :, None]
        grad = g_terms.sum(axis=1)
        lap_terms = c_terms * (r2 / (4.0 * kt * kt)[None, :] - (1.0 / kt)[None, :])
        lap = lap_terms.sum(axis=1)
        return c, grad, lap

    def eval(self, x, t: float):
        """(c, grad, lap) at a single point."""
        c, g, l = self.eval_many(np.asarray(x, dtype=float)[None, :], t)
        return float(c[0]), g[0], float(l[0])

    def centroid(self, t: float) -> np.ndarray:
        """Advected position of the strongest released puff (the mound
        center for seeded plumes, the source trail head otherwise)."""
        t0s, origins, qs = self._released(t)
        if t0s.size == 0:
            return self.source.copy()
        i = int(np.argmax(qs))
        v = self.flow.constant_over(float(t0s[i]), t)
        return origins[i] + v * (t - t0s[i])

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

    has_analytic_truth = True

    def centroid(self, t: float) -> np.ndarray:
        # piecewise-constant flow integrates segment by segment
        b = self.flow.boundaries
        lo, hi = (0.0, t) if t >= 0 else (t, 0.0)
        edges = np.concatenate(([lo], b[(b > lo) & (b < hi)], [hi]))
        disp = np.zeros(2)
        for a, bnd in zip(edges[:-1], edges[1:]):
            disp += self.flow.at(None, 0.5 * (a + bnd)) * (bnd - a)
        return self.center + (disp if t >= 0 else -disp)

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
        c = self.peak * np.exp(-r2 / (2.0 * s2))
        grad = -c[:, None] * d / s2
        lap = c * (r2 / (s2 * s2) - 2.0 / s2)
        return c, grad, lap

    def eval(self, x, t: float):
        c, g, l = self.eval_many(np.asarray(x, dtype=float)[None, :], t)
        return float(c[0]), g[0], float(l[0])


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
        c = np.asarray(self.conc, dtype=float)
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
                  origin, cell_size: float, shape, boundary: str = "outflow"):
        """Initialize cell values from the analytic puff at time t."""
        nx, ny = shape
        xs = np.asarray(origin, float)[0] + (np.arange(nx) + 0.5) * cell_size
        ys = np.asarray(origin, float)[1] + (np.arange(ny) + 0.5) * cell_size
        ctr = puff.center(flow, t)
        tau = t - puff.release_time
        four_kt = 4.0 * puff.diffusion * tau
        r2 = (xs[:, None] - ctr[0]) ** 2 + (ys[None, :] - ctr[1]) ** 2
        conc = puff.strength / (math.pi * four_kt) * np.exp(-r2 / four_kt)
        return cls(np.asarray(origin, float), cell_size, conc,
                   puff.diffusion, flow, boundary, time=t)

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
        disp = self.flow.at(None, t) * (t - self.time)
        return np.array([cx, cy]) + disp

    def level_set_radius(self, c0: float, t: float) -> float | None:
        raise ValueError("no closed-form level set for GridField")

    def max_stable_dt(self) -> float:
        """Positivity-preserving bound for one explicit step, including the
        0.9 safety factor: dt <= 0.9 / ((|vx|+|vy|)/h + 4 k / h^2)."""
        v = self.flow.at(None, self.time)
        h = self.cell_size
        rate = (abs(v[0]) + abs(v[1])) / h + 4.0 * self.diffusion / (h * h)
        if rate == 0.0:
            return math.inf
        return 0.9 / rate

    def _padded(self) -> np.ndarray:
        mode = "wrap" if self.boundary == "periodic" else "edge"
        return np.pad(self.conc, 1, mode=mode)

    def step(self, dt: float) -> "GridField":
        """One explicit Euler step: first-order upwind advection plus
        5-point central diffusion.  Raises StepSizeError beyond the
        stability bound; the caller is expected to subdivide."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if dt > self.max_stable_dt() * (1.0 + 1e-12):
            raise StepSizeError(
                f"dt={dt:g} exceeds stable bound {self.max_stable_dt():g}")
        v = self.flow.at(None, self.time)
        h = self.cell_size
        p = self._padded()
        c = self.conc
        west, east = p[:-2, 1:-1], p[2:, 1:-1]
        south, north = p[1:-1, :-2], p[1:-1, 2:]
        adv_x = v[0] * ((c - west) if v[0] >= 0 else (east - c)) / h
        adv_y = v[1] * ((c - south) if v[1] >= 0 else (north - c)) / h
        lap = (east + west + north + south - 4.0 * c) / (h * h)
        new = c + dt * (self.diffusion * lap - adv_x - adv_y)
        return replace(self, conc=new, time=self.time + dt)

    def advance(self, t_target: float, max_substep: float = math.inf) -> "GridField":
        """Step until ``t_target`` using substeps within both the stability
        bound and ``max_substep``."""
        g = self
        while g.time < t_target - 1e-12:
            span = t_target - g.time
            dt_cap = min(g.max_stable_dt(), max_substep)
            n = max(1, int(math.ceil(span / dt_cap - 1e-12)))
            g = g.step(span / n)
        return g

    def _node_index(self, x) -> tuple[int, int, float, float]:
        pt = np.asarray(x, dtype=float).reshape(2)
        u = (pt - self.origin) / self.cell_size - 0.5
        i0, j0 = int(math.floor(u[0])), int(math.floor(u[1]))
        nx, ny = self.conc.shape
        # bilinear cell plus the central-difference ring must stay inside
        if i0 < 1 or j0 < 1 or i0 + 1 > nx - 2 or j0 + 1 > ny - 2:
            raise DomainError(
                f"sample at {pt.tolist()} too close to the grid boundary")
        return i0, j0, u[0] - i0, u[1] - j0

    def sample(self, x):
        """(c, grad, lap) at x: bilinear interpolation of the cell values
        and of nodal central-difference derivative estimates.  Continuous
        in x within each cell."""
        i0, j0, fx, fy = self._node_index(x)
        h = self.cell_size
        c = self.conc
        # bilinear weights for nodes (i0, j0), (i0+1, j0), (i0, j0+1), (i0+1, j0+1)
        w = np.array([(1 - fx) * (1 - fy), fx * (1 - fy),
                      (1 - fx) * fy, fx * fy])
        blk = c[i0 - 1:i0 + 3, j0 - 1:j0 + 3]                  # (4, 4) nodes
        gx = (blk[2:, 1:-1] - blk[:-2, 1:-1]) / (2 * h)        # (2, 2)
        gy = (blk[1:-1, 2:] - blk[1:-1, :-2]) / (2 * h)
        lp = (blk[2:, 1:-1] + blk[:-2, 1:-1] + blk[1:-1, 2:]
              + blk[1:-1, :-2] - 4.0 * blk[1:-1, 1:-1]) / (h * h)
        corners = np.array([c[i0, j0], c[i0 + 1, j0],
                            c[i0, j0 + 1], c[i0 + 1, j0 + 1]])
        val = float(w @ corners)
        grad = np.array([float(w @ gx.ravel(order="F")),
                         float(w @ gy.ravel(order="F"))])
        lap = float(w @ lp.ravel(order="F"))
        return val, grad, lap

    def eval_many(self, points, t: float):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cs, gs, ls = [], [], []
        for p in pts:
            c, g, l = self.sample(p)
            cs.append(c)
            gs.append(g)
            ls.append(l)
        return np.asarray(cs), np.asarray(gs), np.asarray(ls)

    def eval(self, x, t: float):
        return self.sample(x)

