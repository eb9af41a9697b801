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
the pose (x, y, theta) as floats, x_hat, the field and the generators it
seeded.  Each step takes the heading's cos and sin once and hands the
pair to every layer that rotates by it; the layers pass plain floats
and float tuples, and the loop calls them through their modules.  The
log is one ``array('d')`` table preallocated for floor(duration / dt_c)
+ 1 records at t = 0, dt_c, ..., 22 doubles (176 bytes) a record; each
control step packs one record, a truncated run keeps the records
written, and runs are bit-reproducible for a given seed.  The status
column is read from the logged columns after the loop, by
:func:`~plumetrack.guidance.status`.  That pass, :meth:`RunLog.to_csv`
and :func:`metrics` read the table ``LOG_CHUNK`` records at a time on
Python floats (:func:`records`), and the CSV is written chunk by chunk,
so a finished run holds its table plus one chunk of records.  The
metrics' means and deviations are summed in numpy's pairwise order, so
that they are the floats numpy's would be.  None of this imports numpy:
a run imports it only for a grid field, the one model that computes on
arrays (a puff plume's neighbour list is built on floats), or to draw
noise.

A vessel that leaves a grid field's sampling domain truncates the run
(flagged on the log); a degenerate sensor stencil aborts it at the start
by raising :class:`~plumetrack.sensing.DegenerateStencilError`, and a
diverged observer by raising :class:`~plumetrack.guidance.NonFiniteError`.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass

from . import guidance, sensing, vessel
from .field import DomainError, hypot
from .guidance import GuidanceGains
from .sensing import NoiseModel, SensorRig, as_seed
from .vessel import VesselParams

CSV_COLUMNS = ("t", "x", "y", "theta", "zx", "zy", "xhat", "yhat",
               "c1", "c2", "c3", "c4", "chat", "gx", "gy", "lap",
               "ux", "uy", "nu", "omega", "sat", "status", "ctrue")

# The run table's columns: the CSV columns but status, in CSV order, one
# double each, so 176 bytes a record
TABLE_COLUMNS = CSV_COLUMNS[:21] + CSV_COLUMNS[22:]
WIDTH = len(TABLE_COLUMNS)
_RECORD = struct.Struct(f"{WIDTH}d")
# the columns that guidance.status reads, in its order
STATUS_COLUMNS = ("t", "chat", "zx", "zy", "xhat", "yhat", "gx", "gy")

TRACKED_POINTS = ("head", "center")

# The most control steps a run may take; its log is held in memory.
MAX_STEPS = 1_000_000
# Control steps whose sensor normals a run draws at once.
NOISE_BLOCK = 1024
# Records that a pass over a finished run's log reads at once.
LOG_CHUNK = 256


@dataclass(frozen=True)
class Scenario:
    """Complete run configuration.  ``field0`` is the initial field model
    (PuffPlume, FrozenGaussian, or GridField); analytic fields are
    stateless and may be shared between runs.  The other models are
    frozen configuration; a run makes its own random generators.

    Every limit on a run is checked here, whether the scenario comes from
    a document or from library code (``dataclasses.replace`` included):
    at most MAX_STEPS control steps, and whatever ``field0.check_run``
    refuses for those steps and the physics substep.  So is what no model
    here judges: ``seed``, a non-negative integer (``sensing.as_seed``)
    kept as an int, and ``start_pose``, three finite numbers kept as floats."""

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
        object.__setattr__(self, "seed", as_seed(self.seed))
        try:
            pose = tuple(self.start_pose)
            finite = len(pose) == 3 and all(map(math.isfinite, pose))
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise ValueError("start_pose must be [x, y, theta] of finite numbers")
        object.__setattr__(self, "start_pose", tuple(map(float, pose)))
        if not self.duration > 0:
            raise ValueError("duration must be > 0")
        if not self.control_period > 0:
            raise ValueError("control period must be > 0")
        steps = self.duration / self.control_period
        if steps < math.inf:            # counted as the run counts them
            steps = expected_records(self.duration, self.control_period) - 1
        if steps > MAX_STEPS:
            # digit by digit below 1e15, in three figures from there
            count = f"{steps:,}" if steps < 1e15 else f"{steps:.3g}"
            raise ValueError(f"duration / control period is {count} "
                             f"steps; at most {MAX_STEPS:,}")
        if not 0 < self.physics_substep <= self.control_period + 1e-12:
            raise ValueError("physics substep must be in (0, control period]")
        self.field0.check_run(steps, self.control_period, self.physics_substep)
        if self.sign_convention not in guidance.SIGN_MODES:
            raise ValueError(f"unknown sign_convention {self.sign_convention!r}")
        if self.tracked_point not in TRACKED_POINTS:
            raise ValueError(f"tracked_point must be one of {TRACKED_POINTS}")
        if not self.flow_noise_sigma >= 0:
            raise ValueError("flow noise sigma must be >= 0")


def records(table: array, names, start: int = 0):
    """The float tuples of columns ``names`` of each record of a run's
    table, from record ``start`` on, read ``LOG_CHUNK`` records at a
    time."""
    cols = [TABLE_COLUMNS.index(name) for name in names]
    chunk = LOG_CHUNK * WIDTH
    for a in range(start * WIDTH, len(table), chunk):
        yield from zip(*[table[a + j:a + chunk:WIDTH].tolist() for j in cols])


@dataclass(frozen=True)
class RunLog:
    """Per-control-step time series of one run: one ``array('d')`` table
    of WIDTH doubles per record in TABLE_COLUMNS order (``sat`` is 0 or
    1, ``ctrue`` NaN when the field has no oracle), and the status of
    each record.  Passes read the table on floats with :func:`records`."""

    table: array
    status: tuple                 # (n,) strings
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.table) // WIDTH

    def to_csv(self, fh) -> None:
        """Fixed-column CSV, floats at 9 significant digits, missing
        ctrue as an empty field.  The rows are formatted and written
        ``LOG_CHUNK`` records at a time to the text file ``fh``, so the
        writer holds one chunk beside the table.  A chunk is one %-format
        of its cells, laid out from the table's flat values by strided
        slices."""
        row = "%.9g," * 20 + "%s,%s,%s\n"
        per_row = len(CSV_COLUMNS)
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for a in range(0, len(self), LOG_CHUNK):
            flat = self.table[a * WIDTH:(a + LOG_CHUNK) * WIDTH].tolist()
            rows = len(flat) // WIDTH
            cells = [None] * (rows * per_row)
            for j in range(20):
                cells[j::per_row] = flat[j::WIDTH]
            cells[20::per_row] = ["1" if s else "0" for s in flat[20::WIDTH]]
            cells[21::per_row] = self.status[a:a + LOG_CHUNK]
            cells[22::per_row] = ["" if c != c else "%.9g" % c
                                  for c in flat[21::WIDTH]]
            fh.write(row * rows % tuple(cells))


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
        import numpy as np
        sensor_rng = np.random.default_rng(
            sc.seed if sc.noise.seed is None else sc.noise.seed)
    flow_sigma = sc.flow_noise_sigma
    if flow_sigma > 0:
        import numpy as np
        flow_rng = np.random.default_rng([sc.seed, 2])
    x, y = sc.start_pose[0], sc.start_pose[1]
    heading = vessel.normalize_heading(sc.start_pose[2])
    xhat = (x, y)
    fieldmodel = sc.field0
    truth = fieldmodel.has_analytic_truth
    estimate = sensing.RigEstimator.for_offsets(sc.rig.offsets).estimate
    read = sc.noise.read
    rig, params, gains, mode = sc.rig, sc.params, sc.gains, sc.sign_convention
    offset, substep = params.offset, sc.physics_substep
    drive_head = sc.tracked_point == "head"
    n_steps = expected_records(sc.duration, sc.control_period) - 1
    dt = sc.control_period

    # WIDTH doubles per record, made without a transient list or bytes
    table = array("d", [0.0]) * (WIDTH * (n_steps + 1))
    pack_into, size = _RECORD.pack_into, _RECORD.size
    truncated = False

    for i in range(n_steps + 1):
        t = i * dt
        fieldmodel = fieldmodel.advance(t, substep)
        # the heading's rotation, shared by every layer that turns by it
        c, s = math.cos(heading), math.sin(heading)
        positions = sensing.world_positions(rig, x, y, c, s)
        z = vessel.head_point(x, y, c, s, offset)
        try:
            conc = fieldmodel.eval_many((*positions, z) if truth
                                        else positions, t)
        except DomainError:
            truncated = True
            del table[i * WIDTH:]
            break
        ctrue = conc[4] if truth else math.nan
        if sensor_rng is not None and i % NOISE_BLOCK == 0:
            normals = sensor_rng.standard_normal(
                (min(NOISE_BLOCK, n_steps + 1 - i), 4)).tolist()
        readings = read(conc[:4], normals[i % NOISE_BLOCK])
        c_hat, gx, gy, lap = estimate(readings, c, s)
        v_r = fieldmodel.flow.at(t)
        if flow_rng is not None:
            nx, ny = flow_rng.standard_normal(2).tolist()
            v_r = [v_r[0] + flow_sigma * nx, v_r[1] + flow_sigma * ny]
        xhat, u = guidance.step(xhat, gains, mode, (x, y),
                                z if drive_head else (x, y), c_hat, (gx, gy),
                                lap, v_r, dt, t)
        nu, omega, saturated = vessel.to_actuators(u, c, s, params)

        pack_into(table, i * size, t, x, y, heading, *z, *xhat, *readings,
                  c_hat, gx, gy, lap, *u, nu, omega, saturated, ctrue)

        if i < n_steps:
            x, y, heading = vessel.step(x, y, heading, nu, omega, dt)

    status = guidance.status(records(table, STATUS_COLUMNS), gains)
    return RunLog(table, status, truncated)


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


def pairwise_sum(x, lo: int = 0, hi: int | None = None) -> float:
    """The sum of x[lo:hi] in numpy's pairwise order, so the same float
    as ``np.add.reduce`` of a contiguous float64 array: fewer than 8
    terms are added in order from 0.0; up to 128 go to 8 strided
    accumulators, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), and then the remainder in order; more are split at half
    the count rounded down to a multiple of 8."""
    hi = len(x) if hi is None else hi
    n = hi - lo
    if n < 8:
        return _in_order(0.0, x[lo:hi])
    if n <= 128:
        m = hi - n % 8
        r = [_in_order(0.0, x[lo + j:m:8]) for j in range(8)]
        return _in_order(((r[0] + r[1]) + (r[2] + r[3]))
                         + ((r[4] + r[5]) + (r[6] + r[7])), x[m:hi])
    half = n // 2 - n // 2 % 8
    return pairwise_sum(x, lo, lo + half) + pairwise_sum(x, lo + half, hi)


def _in_order(total: float, values) -> float:
    """total plus each value, added left to right."""
    for v in values:
        total += v
    return total


def _mean(x) -> float:
    """``np.mean`` of a float64 array: its pairwise sum over the count."""
    return pairwise_sum(x) / len(x)


def _std(x) -> float:
    """``np.std``: the root of the mean of (x - mean) * (x - mean)."""
    m = _mean(x)
    return math.sqrt(_mean(array("d", ((v - m) * (v - m) for v in x))))


def _winding(points, center):
    """(total signed angle, adverse excursion) of a polyline of (x, y)
    points about the (x, y) center, in one pass on floats.  The angles
    come from ``math.atan2``, as the field's exponentials come from
    ``math.exp``; each step's change is wrapped into [-pi, pi) and
    summed in order.  The adverse excursion is the largest fall of that
    sum below its running maximum (above its running minimum when the
    total is negative).  A NaN sum stays NaN, and then the excursion is
    NaN too, as numpy's maximum and max propagate it."""
    cx, cy = center
    cum = top = bottom = up = down = 0.0
    prev = None
    for x, y in points:
        angle = math.atan2(y - cy, x - cx)
        if prev is not None:
            cum += (angle - prev + math.pi) % (2.0 * math.pi) - math.pi
            if cum > top:
                top = cum
            elif cum < bottom:
                bottom = cum
            if top - cum > up:
                up = top - cum
            if cum - bottom > down:
                down = cum - bottom
        prev = angle
    if cum != cum:
        return cum, cum
    return cum, (up if cum >= 0.0 else down)


def _level_set_error(field0, c0: float, rows):
    """Mean |distance from the centroid - level-set radius| over the
    (t, zx, zy) ``rows``, or None when the field has no closed-form c0
    level set at one of their times."""
    err = array("d")
    for t, zx, zy in rows:
        try:
            r = field0.level_set_radius(c0, t)
        except ValueError:
            return None
        if r is None:
            return None
        cx, cy = field0.centroid(t)
        err.append(abs(hypot(zx - cx, zy - cy) - r))
    return _mean(err)


def metrics(log: RunLog, scenario: Scenario) -> RunMetrics:
    """Derived summary statistics for a run log, read from its table
    ``LOG_CHUNK`` records at a time on floats.  Means and deviations are
    taken in numpy's pairwise order (:func:`pairwise_sum`), so that they
    are the floats of ``np.mean`` and ``np.std``."""
    n = len(log)
    if n < 2:
        raise ValueError("metrics need at least 2 records")
    table = log.table
    t_end = table[(n - 1) * WIDTH]
    # t increases (record i is at i dt), so the final half is the
    # records from the first at or after t_end / 2
    first = min(bisect_left(range(n), t_end / 2.0,
                            key=lambda i: table[i * WIDTH]), n - 2)

    c0 = scenario.gains.c0
    rms = math.sqrt(_mean(array("d", ((c - c0) * (c - c0) for (c,)
                                      in records(table, ("chat",), first)))))

    speeds = array("d")
    rows = records(table, ("t", "zx", "zy"), first)
    t0, x0, y0 = next(rows)
    for t, x, y in rows:
        dx, dy = x - x0, y - y0
        speeds.append(math.sqrt(dx * dx + dy * dy) / (t - t0))
        t0, x0, y0 = t, x, y

    try:
        start = log.status.index(guidance.STATUS_TRACKING)
    except ValueError:
        start, tracking_at = first, None
    else:
        tracking_at = table[start * WIDTH]
    field0 = scenario.field0
    total, adverse = _winding(records(table, ("zx", "zy"), start),
                              field0.centroid(t_end / 2.0))
    sign = 0 if abs(total) < 1e-6 else (1 if total > 0 else -1)
    saturated = sum(1 for (s,) in records(table, ("sat",)) if s != 0)

    return RunMetrics(
        rms_conc_error=rms,
        mean_patrol_speed=_mean(speeds),
        std_patrol_speed=_std(speeds),
        winding_sign=sign,
        winding_angle=total,
        winding_backtrack=adverse,
        mean_level_set_error=_level_set_error(
            field0, c0, records(table, ("t", "zx", "zy"), first)),
        saturation_fraction=saturated / n,
        tracking_reached_at=tracking_at,
        truncated=log.truncated,
        seed=scenario.seed,
    )
