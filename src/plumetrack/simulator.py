"""Closed-loop simulation runs, their logs, and derived metrics.

One run steps a scenario at the control period dt_c: advance the field
(grid fields substep for stability), evaluate it once at the four sensors
and the head point (the head point gives the ``ctrue`` oracle; a grid
field has none and is sampled at the sensors only), read the sensors
through the noise model, reconstruct the local field with the rig's
estimator, update the level-curve observer, compute the planar control,
convert it to actuator commands, and integrate the vessel.  A run seeds
a sensor generator only when ``noise.sigma`` > 0 and a flow generator
only when ``flow_noise_sigma`` > 0, so a noise-free run never imports
``numpy.random``; its sensors read zero normals.  The sensor normals
are drawn ``NOISE_BLOCK`` steps at a time; numpy's stream gives the same
values in blocks as four at a time.  Across steps the loop carries only
the vessel state, x_hat, the field and the generators it seeded.  The
log is one table preallocated for floor(duration / dt_c) + 1 records at
t = 0, dt_c, ...; each control step writes one row, a truncated run keeps
the rows written, and runs are bit-reproducible for a given seed.  The
status column is read from the logged columns after the loop, by
:func:`~plumetrack.guidance.status`.  That pass, :meth:`RunLog.to_csv`
and :func:`metrics` read the table ``LOG_CHUNK`` records at a time, and
the CSV is written chunk by chunk, so a finished run holds its table (176
bytes a record) plus one chunk of records.

A vessel that leaves a grid field's sampling domain truncates the run
(flagged on the log); a degenerate sensor stencil aborts it at the start
by raising :class:`~plumetrack.sensing.DegenerateStencilError`, and a
diverged observer by raising :class:`~plumetrack.guidance.NonFiniteError`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import guidance, sensing, vessel
from .field import DomainError
from .guidance import LOG_CHUNK, GuidanceGains
from .sensing import NoiseModel, SensorRig
from .vessel import VesselParams, VesselState

CSV_COLUMNS = ("t", "x", "y", "theta", "zx", "zy", "xhat", "yhat",
               "c1", "c2", "c3", "c4", "chat", "gx", "gy", "lap",
               "ux", "uy", "nu", "omega", "sat", "status", "ctrue")

TRACKED_POINTS = ("head", "center")

# The most control steps a run may take; its log is held in memory.
MAX_STEPS = 1_000_000
# Control steps whose sensor normals a run draws at once.
NOISE_BLOCK = 1024


@dataclass(frozen=True)
class Scenario:
    """Complete run configuration.  ``field0`` is the initial field model
    (PuffPlume, FrozenGaussian, or GridField); analytic fields are
    stateless and may be shared between runs.  The other models are
    frozen configuration; a run makes its own random generators."""

    name: str
    seed: int
    duration: float
    control_period: float
    physics_substep: float
    sign_convention: str
    tracked_point: str
    flow_noise_sigma: float
    field0: object
    rig: SensorRig
    noise: NoiseModel
    params: VesselParams
    start_pose: tuple[float, float, float]
    gains: GuidanceGains

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("duration must be > 0")
        if not self.control_period > 0:
            raise ValueError("control period must be > 0")
        steps = self.duration / self.control_period
        if steps < math.inf:            # counted as the run counts them
            steps = expected_records(self.duration, self.control_period) - 1
        if steps > MAX_STEPS:
            raise ValueError(f"duration / control period is {steps:,} "
                             f"steps; at most {MAX_STEPS:,}")
        if not 0 < self.physics_substep <= self.control_period + 1e-12:
            raise ValueError("physics substep must be in (0, control period]")
        if self.sign_convention not in guidance.SIGN_MODES:
            raise ValueError(f"unknown sign convention {self.sign_convention!r}")
        if self.tracked_point not in TRACKED_POINTS:
            raise ValueError(f"tracked point must be one of {TRACKED_POINTS}")
        if not self.flow_noise_sigma >= 0:
            raise ValueError("flow noise sigma must be >= 0")


@dataclass(frozen=True)
class RunLog:
    """Per-control-step time series of one run.  A run's arrays are
    column views of one table in CSV_COLUMNS order (status is a tuple)."""

    t: np.ndarray                 # (n,)
    pose: np.ndarray              # (n, 3): x, y, theta
    z: np.ndarray                 # (n, 2) head point
    xhat: np.ndarray              # (n, 2) observer estimate
    readings: np.ndarray          # (n, 4)
    chat: np.ndarray              # (n,)
    grad: np.ndarray              # (n, 2)
    lap: np.ndarray               # (n,)
    u: np.ndarray                 # (n, 2)
    nu: np.ndarray                # (n,)
    omega: np.ndarray             # (n,)
    sat: np.ndarray               # (n,) bool
    status: tuple                 # (n,) strings
    ctrue: np.ndarray             # (n,), NaN when the field has no oracle
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, fh=None) -> str | None:
        """Fixed-column CSV, floats at 9 significant digits, missing
        ctrue as an empty field.  The rows are formatted and written
        ``LOG_CHUNK`` records at a time to the text file ``fh``, so the
        writer holds one chunk beside the table (176 bytes a record);
        with no file the joined text is returned."""
        out = io.StringIO() if fh is None else fh
        row = ",".join(["%.9g"] * 20) + ",%s,%s,%s\n"
        out.write(",".join(CSV_COLUMNS) + "\n")
        for a in range(0, len(self), LOG_CHUNK):
            s = slice(a, a + LOG_CHUNK)
            floats = np.column_stack((
                self.t[s], self.pose[s], self.z[s], self.xhat[s],
                self.readings[s], self.chat[s], self.grad[s], self.lap[s],
                self.u[s], self.nu[s], self.omega[s])).tolist()
            out.write("".join(
                row % (*values, "1" if sat else "0", status,
                       "" if math.isnan(ctrue) else "%.9g" % ctrue)
                for values, sat, status, ctrue in zip(
                    floats, self.sat[s].tolist(), self.status[s],
                    self.ctrue[s].tolist())))
        return out.getvalue() if fh is None else None


def expected_records(duration: float, control_period: float) -> int:
    """floor(duration / dt_c) + 1 with a tolerance for binary dt_c."""
    return int(math.floor(duration / control_period + 1e-9)) + 1


def run(scenario: Scenario) -> RunLog:
    """Execute one closed-loop run; deterministic for a given seed."""
    sc = scenario
    # a generator only where its sigma is > 0, so that a noise-free run
    # never imports numpy.random.  Its sensors read a constant row of
    # zero normals: c + 0.0 differs from c + 0.0 g only for c = -0.0,
    # which the floor turns into 0.0 either way
    normals = [(0.0, 0.0, 0.0, 0.0)] * NOISE_BLOCK
    sensor_rng = flow_rng = None
    if sc.noise.sigma > 0:
        sensor_rng = np.random.default_rng(
            sc.seed if sc.noise.seed is None else sc.noise.seed)
    if sc.flow_noise_sigma > 0:
        flow_rng = np.random.default_rng([sc.seed, 2])
    state = VesselState(sc.start_pose[0], sc.start_pose[1],
                        vessel.normalize_heading(sc.start_pose[2]))
    xhat = state.position
    fieldmodel = sc.field0
    estimator = sensing.RigEstimator.for_offsets(sc.rig.offsets)
    n_steps = expected_records(sc.duration, sc.control_period) - 1
    dt = sc.control_period

    # one row per record: the CSV columns but status, in CSV order
    rows = np.empty((n_steps + 1, len(CSV_COLUMNS) - 1))
    truncated = False

    for i in range(n_steps + 1):
        t = i * dt
        fieldmodel = fieldmodel.advance(t, sc.physics_substep)
        positions = sensing.world_positions(sc.rig, state)
        z = vessel.head_point(state, sc.params.offset)
        truth = fieldmodel.has_analytic_truth
        points = (*positions, z) if truth else positions
        try:
            c = fieldmodel.eval_many(points, t)
        except DomainError:
            truncated = True
            rows = rows[:i]
            break
        ctrue = c[4] if truth else math.nan
        if sensor_rng is not None and i % NOISE_BLOCK == 0:
            normals = sensor_rng.standard_normal(
                (min(NOISE_BLOCK, n_steps + 1 - i), 4)).tolist()
        readings = sc.noise.read(c[:4], normals[i % NOISE_BLOCK])
        est = estimator.estimate(readings, state.heading)
        v_r = fieldmodel.flow.at(t)
        if flow_rng is not None:
            gx, gy = flow_rng.standard_normal(2).tolist()
            v_r = [v_r[0] + sc.flow_noise_sigma * gx,
                   v_r[1] + sc.flow_noise_sigma * gy]
        driven = z if sc.tracked_point == "head" else state.position
        xhat, u = guidance.step(xhat, sc.gains, sc.sign_convention,
                                state.position, driven, est.c_hat, est.grad,
                                est.lap, v_r, dt, t)
        cmd, saturated = vessel.to_actuators(u, state.heading, sc.params)

        rows[i] = (t, state.x, state.y, state.heading, *z, *xhat,
                   *readings, est.c_hat, *est.grad, est.lap, *u, cmd.nu,
                   cmd.omega, saturated, ctrue)

        if i < n_steps:
            state = vessel.step(state, cmd, dt)

    cols = dict(t=rows[:, 0], pose=rows[:, 1:4], z=rows[:, 4:6],
                xhat=rows[:, 6:8], readings=rows[:, 8:12], chat=rows[:, 12],
                grad=rows[:, 13:15], lap=rows[:, 15], u=rows[:, 16:18],
                nu=rows[:, 18], omega=rows[:, 19], sat=rows[:, 20] != 0,
                ctrue=rows[:, 21])
    status = guidance.status(cols["t"], cols["chat"], cols["z"], cols["xhat"],
                             cols["grad"], sc.gains)
    return RunLog(**cols, status=status, truncated=truncated)


# ---------------------------------------------------------------------------
# run metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunMetrics:
    """Flat scalar summary of a run.

    Error and patrol statistics are taken over the final half of the log;
    winding is accumulated from the first tracking record (final half if
    tracking was never reached) about the plume centroid at mid-run.
    """

    rms_conc_error: float
    mean_patrol_speed: float
    std_patrol_speed: float
    winding_sign: int
    winding_angle: float          # signed rad; clockwise is negative
    winding_backtrack: float      # largest excursion against the net direction
    mean_level_set_error: float | None
    saturation_fraction: float
    tracking_reached_at: float | None
    truncated: bool
    seed: int


def _winding(points: np.ndarray, center: np.ndarray):
    """(total signed angle, adverse excursion) of a polyline about center.
    The angles come from ``math.atan2``, ``LOG_CHUNK`` points at a time,
    as the field's exponentials come from ``math.exp``, so that they do
    not depend on numpy's SIMD dispatch."""
    ang = np.empty(len(points))
    for a in range(0, len(points), LOG_CHUNK):
        rel = points[a:a + LOG_CHUNK] - center[None, :]
        ang[a:a + LOG_CHUNK] = [math.atan2(y, x) for x, y in rel.tolist()]
    d = np.diff(ang)
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    if d.size == 0:
        return 0.0, 0.0
    cum = np.concatenate(([0.0], np.cumsum(d)))
    total = float(cum[-1])
    if total >= 0.0:
        adverse = float(np.max(np.maximum.accumulate(cum) - cum))
    else:
        adverse = float(np.max(cum - np.minimum.accumulate(cum)))
    return total, adverse


def _level_set_error(field0, c0: float, t: np.ndarray, z: np.ndarray):
    """Mean |distance from the centroid - level-set radius| over the
    records, or None when the field has no closed-form c0 level set at
    one of their times.  The records are read ``LOG_CHUNK`` at a time."""
    err = np.empty(len(t))
    for a in range(0, len(t), LOG_CHUNK):
        for j, ti, (zx, zy) in zip(range(a, a + LOG_CHUNK),
                                   t[a:a + LOG_CHUNK].tolist(),
                                   z[a:a + LOG_CHUNK].tolist()):
            try:
                r = field0.level_set_radius(c0, ti)
            except ValueError:
                return None
            if r is None:
                return None
            cx, cy = field0.centroid(ti)
            # abs of a complex is C's hypot, as np.hypot is
            err[j] = abs(abs(complex(zx - cx, zy - cy)) - r)
    return float(np.mean(err))


def metrics(log: RunLog, scenario: Scenario) -> RunMetrics:
    """Derived summary statistics for a run log."""
    if len(log) < 2:
        raise ValueError("metrics need at least 2 records")
    t = log.t
    # t increases, so the final half is the records from ``first`` on
    first = min(int(np.argmax(t >= t[-1] / 2.0)), len(t) - 2)

    c0 = scenario.gains.c0
    rms = float(np.sqrt(np.mean((log.chat[first:] - c0) ** 2)))

    dt = np.diff(t[first:])
    speeds = np.linalg.norm(np.diff(log.z[first:], axis=0), axis=1) / dt
    mean_speed = float(np.mean(speeds))
    std_speed = float(np.std(speeds))

    tracking_at = None
    for i, s in enumerate(log.status):
        if s == guidance.STATUS_TRACKING:
            tracking_at = float(t[i])
            break

    start = first if tracking_at is None else \
        int(np.argmax(t >= tracking_at))
    field0 = scenario.field0
    center = np.asarray(field0.centroid(float(t[-1]) / 2.0))
    total, adverse = _winding(log.z[start:], center)
    sign = 0 if abs(total) < 1e-6 else (1 if total > 0 else -1)

    return RunMetrics(
        rms_conc_error=rms,
        mean_patrol_speed=mean_speed,
        std_patrol_speed=std_speed,
        winding_sign=sign,
        winding_angle=total,
        winding_backtrack=adverse,
        mean_level_set_error=_level_set_error(field0, c0, t[first:],
                                              log.z[first:]),
        saturation_fraction=float(np.mean(log.sat)),
        tracking_reached_at=tracking_at,
        truncated=log.truncated,
        seed=scenario.seed,
    )
