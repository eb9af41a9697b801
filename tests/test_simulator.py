import copy
import dataclasses
import itertools
import json
import math
import tracemalloc
from array import array

import numpy as np
import pytest

from plumetrack import guidance as G, simulator
from plumetrack.field import (DomainError, FlowField, FrozenGaussian,
                              GaussianPuff, GridField, PuffPlume,
                              puff_concentration)
from plumetrack.guidance import GuidanceGains
from plumetrack.scenario_io import scenario_from_dict
from plumetrack.sensing import (NoiseModel, RigEstimator, SensorRig,
                                world_positions)
from plumetrack.simulator import (CSV_COLUMNS, RunLog, RunMetrics, Scenario,
                                  expected_records, metrics, run)
from plumetrack.vessel import (VesselParams, head_point, normalize_heading,
                               step as vessel_step, to_actuators)

from conftest import column, column_index, csv_text, rotation

STILL = FlowField.uniform((0.0, 0.0))

# a blob that advects out of its 16 m grid; the vessel follows it out
GRID_ESCAPE = {
    "schema": 1, "name": "grid-escape", "seed": 0, "duration": 30.0,
    "field": {
        "type": "grid", "origin": [-8.0, -8.0], "cell_size": 0.5,
        "shape": [32, 32], "diffusion": 0.05,
        "boundary": "outflow",
        "flow": {"type": "uniform", "velocity": [0.5, 0.0]},
        "init_puff": {"release_time": -40.0, "point": [-20.0, 0.0],
                      "strength": 1200.0}},
    "vessel": {"start_pose": [2.0, 0.0, -1.5707963267948966]},
    "gains": {"c0": 30.0, "k": 0.05, "k1": 5.0, "k2": 11.0, "v_d": 1.0},
}


def short_scenario(duration=5.0, **overrides):
    base = dict(
        name="short", seed=0, duration=duration, control_period=0.05,
        physics_substep=0.05, sign_convention=G.SIGN_PDE,
        tracked_point="head", flow_noise_sigma=0.0,
        field0=FrozenGaussian(60.0, 18.0, (0.0, 0.0), STILL),
        rig=SensorRig.cross(0.75), noise=NoiseModel(),
        params=VesselParams(), start_pose=(10.87, 0.5, -math.pi / 2),
        gains=GuidanceGains(c0=50.0, k=1.2, k1=5.0, k2=11.0, v_d=1.5))
    base.update(overrides)
    return Scenario(**base)


class TestRun:
    def test_record_count(self):
        assert expected_records(60.0, 0.05) == 1201
        log = run(short_scenario(duration=6.0))
        assert len(log) == 121
        assert np.allclose(np.diff(column(log, "t")), 0.05)

    def test_field_boundary_carries_only_floats(self, advection_doc):
        # the run hands its field a tuple of float pairs and takes back a
        # list, with no ndarray either way, and logs what it logs unwrapped
        class FloatsOnly:
            has_analytic_truth = True

            def __init__(self, inner):
                self.inner, self.flow, self.calls = inner, inner.flow, 0

            def advance(self, t, max_substep=math.inf):
                return self

            def check_run(self, steps, dt, max_substep):
                self.inner.check_run(steps, dt, max_substep)

            def eval_many(self, points, t):
                assert type(points) is tuple
                for p in points:
                    assert type(p) is tuple and len(p) == 2
                    assert all(type(v) is float for v in p)
                c = self.inner.eval_many(points, t)
                assert type(c) is list
                self.calls += 1
                return c

        doc = copy.deepcopy(advection_doc)
        doc["duration"] = 20.0
        sc = scenario_from_dict(doc)
        stub = FloatsOnly(sc.field0)
        want = run(sc)
        got = run(dataclasses.replace(sc, field0=stub))
        assert stub.calls == len(got) == len(want)
        for f in dataclasses.fields(RunLog):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    def test_determinism_bit_identical(self):
        sc = short_scenario(noise=NoiseModel(sigma=2.0), seed=5)
        a = csv_text(run(sc))
        b = csv_text(run(sc))
        assert a == b

    def test_different_seeds_differ(self):
        noisy = NoiseModel(sigma=2.0)
        a = csv_text(run(short_scenario(noise=noisy, seed=5)))
        b = csv_text(run(short_scenario(noise=noisy, seed=6)))
        assert a != b

    def test_flow_noise_is_seeded(self):
        sc = short_scenario(flow_noise_sigma=0.05, seed=9)
        assert csv_text(run(sc)) == csv_text(run(sc))

    def test_ctrue_logged_for_analytic_fields(self):
        log = run(short_scenario(duration=2.0))
        assert not np.any(np.isnan(column(log, "ctrue")))

    def test_tracked_point_switch_changes_run(self):
        a = run(short_scenario(duration=5.0, tracked_point="head"))
        b = run(short_scenario(duration=5.0, tracked_point="center"))
        assert np.abs(column(a, "z") - column(b, "z")).max() > 1e-6

    def test_substep_consistency_analytic(self, case1_doc):
        doc = copy.deepcopy(case1_doc)
        doc["duration"] = 5.0
        ref = run(scenario_from_dict(doc))
        doc["physics_substep"] = 0.025
        halved = run(scenario_from_dict(doc))
        assert np.abs(column(ref, "z")[-1]
                      - column(halved, "z")[-1]).max() < 1e-3

    def test_grid_scenario_runs_and_can_truncate(self):
        log = run(scenario_from_dict(GRID_ESCAPE))
        # the blob advects out of the 16 m box and the vessel follows
        assert log.truncated
        assert len(log) < expected_records(30.0, 0.05)
        # no unwritten row of the preallocated table leaks into the log
        n = len(log)
        assert len(log.table) == n * simulator.WIDTH
        assert len(log.status) == n
        for name in ("t", "pose", "z", "xhat", "readings", "chat", "grad",
                     "lap", "u", "nu", "omega", "sat", "ctrue"):
            value = column(log, name)
            assert len(value) == n, name
            if name != "ctrue":
                assert np.isfinite(value).all(), name
        assert np.array_equal(column(log, "t"), np.arange(n) * 0.05)

    def test_grid_truncates_where_a_sensor_first_leaves(self):
        sc = scenario_from_dict(GRID_ESCAPE)
        log = run(sc)
        grid = sc.field0

        def inside(x, y, theta):
            # the cell and central-difference ring rule, per sensor
            u = ((np.array(world_positions(sc.rig, x, y, *rotation(theta)))
                  - grid.origin) / grid.cell_size - 0.5)
            node = np.floor(u)
            return bool(((node >= 1)
                         & (node <= np.array(grid.conc.shape) - 3)).all())

        assert all(inside(*pose) for pose in column(log, "pose"))
        nxt = vessel_step(*column(log, "pose")[-1], column(log, "nu")[-1],
                          column(log, "omega")[-1], sc.control_period)
        assert not inside(*nxt)

    def test_log_columns_replay_the_loop(self):
        # each logged column is recomputed from the others by the layer
        # that produced it, so a column in the wrong place fails
        sc = short_scenario(duration=2.0, field0=FrozenGaussian(
            60.0, 18.0, (0.0, 0.0), FlowField.uniform((0.1, 0.05))))
        log = run(sc)
        noise, rng = sc.noise, np.random.default_rng(sc.seed)
        estimator = RigEstimator.for_offsets(sc.rig.offsets)
        t_col, pose, z_col, xhat_col, readings, chat, grad, lap, u_col, nu, \
            omega, sat, ctrue = (column(log, name) for name in (
                "t", "pose", "z", "xhat", "readings", "chat", "grad", "lap",
                "u", "nu", "omega", "sat", "ctrue"))
        assert np.array_equal(t_col, np.arange(len(log)) * 0.05)
        xhat = tuple(pose[0, :2])
        replayed = []               # the status's inputs, in its order
        for i, t in enumerate(t_col):
            x, y, theta = pose[i]
            cos_sin = rotation(theta)
            z = head_point(x, y, *cos_sin, sc.params.offset)
            assert np.array_equal(z_col[i], z)
            c = sc.field0.eval_many(
                np.vstack((world_positions(sc.rig, x, y, *cos_sin), z)), t)
            assert np.array_equal(readings[i], noise.read(
                c[:4], rng.standard_normal(4).tolist()))
            assert ctrue[i] == c[4]
            c_hat, gx, gy, est_lap = estimator.estimate(readings[i], *cos_sin)
            assert (chat[i], lap[i]) == (c_hat, est_lap)
            assert np.array_equal(grad[i], (gx, gy))
            xhat, u = G.step(xhat, sc.gains, sc.sign_convention, (x, y), z,
                             c_hat, (gx, gy), est_lap, sc.field0.flow.at(t),
                             0.05, t)
            assert np.array_equal(xhat_col[i], xhat)
            assert np.array_equal(u_col[i], u)
            replayed.append((c_hat, z, xhat, (gx, gy)))
            cmd_nu, cmd_omega, saturated = to_actuators(u, *cos_sin,
                                                        sc.params)
            assert (nu[i], omega[i], sat[i]) == \
                (cmd_nu, cmd_omega, saturated)
            if i + 1 < len(log):
                nxt = vessel_step(x, y, theta, cmd_nu, cmd_omega, 0.05)
                assert tuple(pose[i + 1]) == nxt
        assert log.status == status_of(
            t_col, *map(np.array, zip(*replayed)), sc.gains)
        assert {G.STATUS_SEEKING, G.STATUS_TRACKING} <= set(log.status)

    @staticmethod
    def per_step_readings(sc, log):
        """The readings of the logged poses, each step's four normals
        drawn from a fresh generator, four at a time."""
        rng = np.random.default_rng(
            sc.seed if sc.noise.seed is None else sc.noise.seed)
        f, readings = sc.field0, []
        for t, (x, y, theta) in zip(column(log, "t").tolist(),
                                    column(log, "pose").tolist()):
            f = f.advance(t, sc.physics_substep)
            c = f.eval_many(world_positions(sc.rig, x, y, *rotation(theta)),
                            t)
            readings.append(sc.noise.read(c, rng.standard_normal(4).tolist()))
        return readings

    def test_block_draws_match_per_step_draws(self, case1_doc, monkeypatch):
        # A7's document runs 1,201 steps, past the first block; the noisy
        # grid run truncates inside a block, at the run's block size and at
        # one that crosses several
        a7 = copy.deepcopy(case1_doc)
        a7["noise"]["sigma"] = 2.0
        sc = scenario_from_dict(a7)
        log = run(sc)
        assert len(log) == 1201 > simulator.NOISE_BLOCK
        assert (column(log, "readings").tolist()
                == self.per_step_readings(sc, log))
        grid = copy.deepcopy(GRID_ESCAPE)
        grid["noise"] = {"sigma": 0.5}
        sc = scenario_from_dict(grid)
        for block in (simulator.NOISE_BLOCK, 7):
            monkeypatch.setattr(simulator, "NOISE_BLOCK", block)
            log = run(sc)
            assert log.truncated and len(log) % 7
            assert (column(log, "readings").tolist()
                    == self.per_step_readings(sc, log))

    @pytest.mark.parametrize("seed", [1, 5])
    def test_status_and_step_agree_on_degeneracy(self, case1_doc, seed):
        # A7's document (case1, sensor noise sigma 2) at two seeds that log
        # a degenerate-gradient record: exactly there the step took its
        # pull-only branch, holding x_hat and commanding -k2 (z - x_hat)
        doc = copy.deepcopy(case1_doc)
        doc["seed"] = seed
        doc["noise"]["sigma"] = 2.0
        sc = scenario_from_dict(doc)
        assert sc.tracked_point == "head"
        log = run(sc)
        pose, z, xhat, u = (column(log, name)
                            for name in ("pose", "z", "xhat", "u"))
        before = np.vstack((pose[:1, :2], xhat[:-1]))
        held = (xhat == before).all(axis=1)
        pull_only = (u == -sc.gains.k2 * (z - xhat)).all(axis=1)
        degenerate = np.array(log.status) == G.STATUS_DEGENERATE
        assert degenerate.any()
        assert np.array_equal(degenerate, held & pull_only)

    def test_degenerate_stencil_aborts(self):
        from plumetrack.sensing import DegenerateStencilError
        rig = SensorRig(np.array([[1.0, 0.0], [-1.0, 0.0],
                                  [0.0, 1e-7], [0.0, -1e-7]]))
        with pytest.raises(DegenerateStencilError):
            run(short_scenario(duration=1.0, rig=rig))


# perfbench's grid field: a puff spread over 0.5 m cells in a domain that
# holds the tracked curve for the whole 60 s
GRID_FIELD = {
    "type": "grid",
    "origin": [-40.0, -40.0],
    "cell_size": 0.5,
    "shape": [160, 160],
    "diffusion": 0.05,
    "flow": {"type": "uniform", "velocity": [0.01, 0.005]},
    "init_puff": {"release_time": -3000.0, "point": [-30.0, -15.0],
                  "strength": 113000.0},
}


def shifted(doc: dict, dx: float, dy: float) -> dict:
    """``doc`` with every world position moved by (dx, dy): the source,
    seed points, centre, grid origin, init-puff point and start pose."""
    doc = copy.deepcopy(doc)
    f = doc["field"]
    points = [f] + f.get("seed_puffs", []) + [f.get("init_puff", {})]
    for obj, key in itertools.product(points, ("source", "center",
                                               "origin", "point")):
        if key in obj:
            obj[key] = [obj[key][0] + dx, obj[key][1] + dy]
    pose = doc["vessel"]["start_pose"]
    doc["vessel"]["start_pose"] = [pose[0] + dx, pose[1] + dy, pose[2]]
    return doc


class TestWorldFrame:
    """The law reads positions only as differences, so a run does not
    depend on where the world is: moving every position in a document by
    one offset leaves the commands, the estimates and the true
    concentration within rounding of the offset coordinates, and the
    status the same."""

    @pytest.mark.parametrize("make", ["case1", "advection", "grid"])
    def test_run_is_the_same_shifted(self, make, case1_doc, advection_doc):
        doc = {"case1": case1_doc, "advection": advection_doc,
               "grid": dict(case1_doc, name="grid", field=GRID_FIELD)}[make]
        moved = shifted(doc, 1000.0, -500.0)
        assert moved != doc
        sa, sb = scenario_from_dict(doc), scenario_from_dict(moved)
        a, b = run(sa), run(sb)
        assert len(a) == len(b) > 1000
        for name in ("nu", "omega", "chat", "grad", "ctrue"):
            u, v = column(a, name), column(b, name)
            close = np.abs(u - v) <= 1e-6 * np.maximum(np.abs(u), 1.0)
            assert np.all(close | np.isnan(u) & np.isnan(v)), name
        assert a.status == b.status
        assert "tracking" in a.status
        assert metrics(a, sa).tracking_reached_at == \
            metrics(b, sb).tracking_reached_at


# The matrix forms of one control step, as the step chain computed them on
# numpy 2-vectors before it ran on floats: a reference for the float chain.

def matrix_positions(offsets, x, y, theta):
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return np.array([x, y])[None, :] + offsets @ rot.T


def matrix_estimate(pinv, readings, theta):
    c_hat = float(readings.mean())
    gamma = pinv @ (readings - c_hat)
    c, s = math.cos(theta), math.sin(theta)
    return (c_hat, np.array([[c, -s], [s, c]]) @ gamma[:2],
            float(gamma[2] + gamma[5]))


def matrix_guidance(xhat0, gains, mode, x_r, driven, c_hat, g, lap, v, dt):
    """(x_hat, u, scale), scale being the largest term of the observer
    and the control."""
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    xhat0, x_r, driven, g, v = (np.asarray(a, dtype=float)
                                for a in (xhat0, x_r, driven, g, v))
    norm = float(np.hypot(g[0], g[1]))
    if norm < gains.grad_floor:
        u = -gains.k2 * (driven - xhat0)
        return xhat0, u, max(1.0, float(np.abs(u).max()))
    speed = ((G.ADVECTION_SIGN[mode] * float(v @ g) - gains.k * lap)
             / float(g @ g))
    drift = speed * g + gains.v_d * (rot90 @ g) / norm
    c_err = c_hat - gains.c0
    correction = gains.k1 * (float(g @ (xhat0 - x_r)) + c_err) * g
    xhat = xhat0 + dt * (drift - correction)
    correction2 = gains.k1 * (float(g @ (xhat - x_r)) + c_err) * g
    pull = gains.k2 * (driven - xhat)
    u = drift - correction2 - pull
    scale = max(1.0, *(float(np.abs(a).max()) for a in (
        xhat0, xhat, x_r, drift, correction, correction2, pull)))
    return xhat, u, scale


def matrix_status(window, converged, gains, z, xhat, c_hat, g, t):
    """(status, window, converged) after one record, from the window and
    the sticky flag before it: the status half of the step as it was
    computed inside the loop, on numpy 2-vectors."""
    if float(np.hypot(g[0], g[1])) < gains.grad_floor:
        return G.STATUS_DEGENERATE, None, converged
    if (abs(c_hat - gains.c0) < G.TRACK_BAND * gains.c0
            and float(np.hypot(*(z - xhat))) < G.TRACK_DIST):
        window = t if window is None else window
        converged = converged or t - window >= G.TRACK_HOLD
    else:
        window = None
    status = G.STATUS_TRACKING if converged else G.STATUS_SEEKING
    return status, window, converged


def matrix_actuators(u, theta, params):
    c, s = math.cos(theta), math.sin(theta)
    l0 = params.offset
    raw = np.array([[c, s], [-s / l0, c / l0]]) @ np.asarray(u, dtype=float)
    nu = min(max(raw[0], -params.nu_max), params.nu_max)
    omega = min(max(raw[1], -params.omega_max), params.omega_max)
    return nu, omega, bool(nu != raw[0] or omega != raw[1]), raw


class TestRunIsItsLayers:
    """Each record of a run recomputed from the one before it by the
    public layer functions, compared with == on floats: the loop adds no
    formula of its own and calls every layer as a caller would."""

    @staticmethod
    def document(name, scenarios_dir):
        if name == "grid":
            return copy.deepcopy(GRID_ESCAPE)
        if name == "a7-seed-3":
            # A7's document at one seed; it has no flow noise, which the
            # replay could not redraw since v_r is not logged
            doc = json.loads((scenarios_dir / "case1.json").read_text())
            doc["seed"], doc["noise"]["sigma"] = 3, 2.0
            return doc
        return json.loads((scenarios_dir / f"{name}.json").read_text())

    @pytest.mark.parametrize("name", ["case1", "pure_advection",
                                      "uneven_rig_demo", "grid", "a7-seed-3"])
    def test_each_record_is_the_layers_applied_to_the_last(self, name,
                                                           scenarios_dir):
        sc = scenario_from_dict(self.document(name, scenarios_dir))
        assert sc.flow_noise_sigma == 0.0
        log = run(sc)
        dt, offset, noisy = sc.control_period, sc.params.offset, \
            sc.noise.sigma > 0
        estimator = RigEstimator.for_offsets(sc.rig.offsets)
        f = sc.field0
        x, y = sc.start_pose[:2]
        theta = normalize_heading(sc.start_pose[2])
        xhat = (x, y)
        for i, record in enumerate(simulator.records(
                log.table, simulator.TABLE_COLUMNS)):
            r = dict(zip(simulator.TABLE_COLUMNS, record))
            t = i * dt
            assert (r["t"], r["x"], r["y"], r["theta"]) == (t, x, y, theta)
            cos_sin = rotation(theta)
            positions = world_positions(sc.rig, x, y, *cos_sin)
            z = head_point(x, y, *cos_sin, offset)
            assert (r["zx"], r["zy"]) == z
            f = f.advance(t, sc.physics_substep)
            c = f.eval_many((*positions, z) if f.has_analytic_truth
                            else positions, t)
            readings = (r["c1"], r["c2"], r["c3"], r["c4"])
            if not noisy:
                assert list(readings) == sc.noise.read(c[:4], (0.0,) * 4)
            if f.has_analytic_truth:
                assert r["ctrue"] == c[4]
            else:
                assert math.isnan(r["ctrue"])
            c_hat, gx, gy, lap = estimator.estimate(readings, *cos_sin)
            assert (r["chat"], r["gx"], r["gy"], r["lap"]) == \
                (c_hat, gx, gy, lap)
            driven = z if sc.tracked_point == "head" else (x, y)
            xhat, u = G.step(xhat, sc.gains, sc.sign_convention, (x, y),
                             driven, c_hat, (gx, gy), lap, f.flow.at(t), dt,
                             t)
            assert ((r["xhat"], r["yhat"]), (r["ux"], r["uy"])) == (xhat, u)
            nu, omega, saturated = to_actuators(u, *cos_sin, sc.params)
            assert (r["nu"], r["omega"], r["sat"]) == (nu, omega, saturated)
            x, y, theta = vessel_step(x, y, theta, nu, omega, dt)
        assert i + 1 == len(log)
        # a truncated run stops where the next record's field call fails
        n = expected_records(sc.duration, dt)
        assert log.truncated == (len(log) < n)
        if log.truncated:
            f = f.advance(len(log) * dt, sc.physics_substep)
            with pytest.raises(DomainError):
                f.eval_many(world_positions(sc.rig, x, y, *rotation(theta)),
                            len(log) * dt)


class TestFloatChainMatchesMatrixForms:
    def test_one_step_at_random_states(self):
        def assert_close(got, want, scale):
            err = np.abs(np.asarray(got, dtype=float)
                         - np.asarray(want, dtype=float)).max()
            assert err <= 1e-12 * scale

        rng = np.random.default_rng(13)
        rigs = [SensorRig.cross(0.75), SensorRig.uneven_cross(),
                SensorRig(matrix_positions(SensorRig.cross(0.6).offsets,
                                           0.0, 0.0, 0.9))]
        estimators = [RigEstimator.for_offsets(rig.offsets) for rig in rigs]
        degenerate, saturation = set(), set()
        for i in range(2000):
            rig, estimator = rigs[i % 3], estimators[i % 3]
            x, y = rng.uniform(-50, 50, 2)
            theta = rng.uniform(-math.pi, math.pi)
            cos_sin = rotation(theta)
            positions = world_positions(rig, x, y, *cos_sin)
            ref = matrix_positions(rig.offsets, x, y, theta)
            assert_close(positions, ref, max(1.0, abs(x), abs(y)))

            # readings of a local quadratic field; every fourth gradient
            # is scaled down to straddle the degenerate floor
            d = ref - (x, y)
            grad_true = rng.uniform(-5, 5, 2) * (0.01 if i % 4 == 0 else 1)
            H = rng.uniform(-1, 1, (2, 2))
            readings = np.abs(rng.uniform(0, 100) + d @ grad_true
                              + 0.5 * np.einsum("ij,jk,ik->i", d, H + H.T, d)
                              + rng.normal(0.0, 0.5, 4))
            est = estimator.estimate(readings, *cos_sin)
            c_hat, grad, lap = matrix_estimate(estimator.pinv, readings, theta)
            assert_close(est, (c_hat, *grad, lap),
                         max(1.0, float(readings.max())))

            params = VesselParams(offset=rng.uniform(0.1, 2.0),
                                  nu_max=rng.uniform(0.5, 20.0),
                                  omega_max=rng.uniform(0.5, 20.0))
            gains = GuidanceGains(c0=c_hat * rng.uniform(0.85, 1.15) + 1e-3,
                                  k=rng.uniform(0, 2), k1=rng.uniform(0.1, 10),
                                  k2=rng.uniform(0.1, 20),
                                  v_d=rng.uniform(0, 2))
            mode = G.SIGN_MODES[i % 2]
            z = head_point(x, y, *cos_sin, params.offset)
            driven = z if i % 3 else (x, y)
            t = rng.uniform(0, 100)
            xhat0 = tuple(np.add(z, rng.uniform(-2, 2, 2)))
            v = rng.uniform(-1, 1, 2)
            xhat, u = G.step(xhat0, gains, mode, (x, y), driven, c_hat, grad,
                             lap, v, 0.05, t)
            want = matrix_guidance(xhat0, gains, mode, (x, y), driven, c_hat,
                                   grad, lap, v, 0.05)
            assert_close((*xhat, *u), (*want[0], *want[1]), want[2])
            degenerate.add(bool(np.hypot(*grad) < gains.grad_floor))

            *cmd, saturated = to_actuators(want[1], *cos_sin, params)
            nu, omega, sat, raw = matrix_actuators(want[1], theta, params)
            assert_close(cmd, (nu, omega), max(1.0, float(np.abs(raw).max())))
            assert saturated == sat
            saturation.add(sat)
        assert degenerate == {False, True}
        assert saturation == {False, True}

    def test_status_at_random_record_sequences(self):
        # sequences of records whose concentration, head-point distance and
        # gradient straddle the band, TRACK_DIST and grad_floor, against the
        # per-record reference
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(300):
            n = 80
            gains = GuidanceGains(c0=rng.uniform(10, 100), k=1.2, k1=5.0,
                                  k2=11.0, v_d=1.5,
                                  grad_floor=rng.uniform(0.01, 0.5))
            t = rng.uniform(0, 100) + rng.choice([0.05, 0.1]) * np.arange(n)
            spread = rng.uniform(0.8, 1.3, 2)
            c_hat = gains.c0 * (1 + G.TRACK_BAND * spread[0]
                                * rng.uniform(-1, 1, n))
            xhat = rng.uniform(-50, 50, (n, 2))
            angle = rng.uniform(-math.pi, math.pi, n)
            dist = G.TRACK_DIST * spread[1] * rng.uniform(0, 1, n)
            z = xhat + dist[:, None] * np.column_stack((np.cos(angle),
                                                        np.sin(angle)))
            size = np.where(rng.uniform(size=n) < 0.05,
                            gains.grad_floor * rng.uniform(0.5, 1.5, n),
                            rng.uniform(0.1, 5, n))
            angle = rng.uniform(-math.pi, math.pi, n)
            grad = size[:, None] * np.column_stack((np.cos(angle),
                                                    np.sin(angle)))
            want, window, converged = [], None, False
            for j in range(n):
                status, window, converged = matrix_status(
                    window, converged, gains, z[j], xhat[j], c_hat[j],
                    grad[j], t[j])
                want.append(status)
            assert status_of(t, c_hat, z, xhat, grad, gains) == tuple(want)
            seen.update(want)
        assert seen == {G.STATUS_SEEKING, G.STATUS_TRACKING,
                        G.STATUS_DEGENERATE}

    @pytest.mark.parametrize("n", [simulator.LOG_CHUNK - 1,
                                   simulator.LOG_CHUNK,
                                   simulator.LOG_CHUNK + 1,
                                   2 * simulator.LOG_CHUNK + 1])
    def test_status_across_a_chunk_edge(self, n):
        # records up to b are out of band; a window opens at b + 1, is
        # broken at b + 2 (by the band, the distance or the gradient) and
        # reopens at b + 3, so for b near a chunk edge it straddles the
        # edge; at 2 s a record, tracking starts the record after it opens
        gains = GuidanceGains(c0=50.0, k=1.2, k1=5.0, k2=11.0, v_d=1.5)
        for edge, b in itertools.product(
                range(simulator.LOG_CHUNK, n + 2, simulator.LOG_CHUNK),
                range(-6, 2)):
            b += edge
            for broken_by in ("band", "distance", "gradient"):
                t = 2.0 * np.arange(n)
                c_hat = np.full(n, gains.c0)
                c_hat[:b + 1] = gains.c0 * (1 + 2 * G.TRACK_BAND)
                xhat = np.zeros((n, 2))
                z = np.tile([0.5 * G.TRACK_DIST, 0.0], (n, 1))
                grad = np.tile([1.0, 1.0], (n, 1))
                if b + 2 < n:
                    if broken_by == "band":
                        c_hat[b + 2] = gains.c0 * (1 - 2 * G.TRACK_BAND)
                    elif broken_by == "distance":
                        z[b + 2] = (0.0, 2 * G.TRACK_DIST)
                    else:
                        grad[b + 2] = (0.5 * gains.grad_floor, 0.0)
                want, window, converged = [], None, False
                for j in range(n):
                    status, window, converged = matrix_status(
                        window, converged, gains, z[j], xhat[j], c_hat[j],
                        grad[j], t[j])
                    want.append(status)
                got = status_of(t, c_hat, z, xhat, grad, gains)
                assert got == tuple(want), (b, broken_by)
                tracking = [j for j, s in enumerate(got)
                            if s == G.STATUS_TRACKING]
                assert tracking == list(range(b + 4, n)), (b, broken_by)


class TestLevelSetRadius:
    def test_hundred_to_fifty(self):
        # peak 100 ppb at tau = 1, k = 1: R = sqrt(4 ln 2)
        q = 100.0 * 4.0 * math.pi
        puff = GaussianPuff(0.0, (0.0, 0.0), q, 1.0)
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          seed_puffs=(puff,))
        r = plume.level_set_radius(50.0, 1.0)
        assert r == pytest.approx(math.sqrt(4.0 * math.log(2.0)), rel=1e-12)
        assert r == pytest.approx(1.66511, abs=1e-5)
        # oracle: the concentration at that radius is exactly c0
        assert puff_concentration(puff, STILL, (r, 0.0), 1.0) == \
            pytest.approx(50.0, abs=1e-9)

    def test_empty_level_set(self):
        q = 40.0 * 4.0 * math.pi
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          seed_puffs=(GaussianPuff(0.0, (0, 0), q, 1.0),))
        assert plume.level_set_radius(50.0, 1.0) is None

    def test_peak_equals_level(self):
        q = 50.0 * 4.0 * math.pi
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          seed_puffs=(GaussianPuff(0.0, (0, 0), q, 1.0),))
        assert plume.level_set_radius(50.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_gaussian(self):
        blob = FrozenGaussian(60.0, 18.0, (0.0, 0.0), STILL)
        r = blob.level_set_radius(50.0, 12.3)
        c = blob.eval_many([(r, 0.0)], 12.3)
        assert c[0] == pytest.approx(50.0, abs=1e-9)

    def test_multi_puff_plume_rejected(self):
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          emission_rate=1.0)
        with pytest.raises(ValueError):
            plume.level_set_radius(50.0, 1.0)

    def test_grid_has_no_closed_form(self):
        grid = GridField((0.0, 0.0), 1.0, np.ones((8, 8)), 0.5, STILL)
        with pytest.raises(ValueError):
            grid.level_set_radius(50.0, 1.0)


def table_of(n, **columns) -> array:
    """A run table of n records whose columns, named as ``column`` names
    them, hold the given values (broadcast to their shape); 0.0 elsewhere."""
    rows = np.zeros((n, simulator.WIDTH))
    for name, values in columns.items():
        rows[:, column_index(name)] = values
    return array("d", rows.tobytes())


def synthetic_log(z, dt=0.05, c0=50.0, status="tracking", **columns):
    """A log of head points z at a dt time step, at c0 everywhere, with a
    unit x gradient; keywords replace whole columns, and ``status`` is
    one status for every record or a sequence of them."""
    n = len(z)
    cols = dict(t=np.arange(n) * dt, pose=np.column_stack([z, np.zeros(n)]),
                z=z, xhat=z, readings=c0, chat=c0, grad=(1.0, 0.0),
                ctrue=c0)
    cols.update(columns)
    if isinstance(status, str):
        status = (status,) * n
    return RunLog(table_of(n, **cols), tuple(status))


def status_of(t, c_hat, z, xhat, grad, gains) -> tuple:
    """guidance.status of the records of these columns, read from a run
    table as a run reads them."""
    table = table_of(len(t), t=t, chat=c_hat, z=z, xhat=xhat, grad=grad)
    return G.status(simulator.records(table, simulator.STATUS_COLUMNS), gains)


def written_csv(log: RunLog, tmp_path) -> bytes:
    """The bytes that RunLog.to_csv writes to a text file."""
    path = tmp_path / "written.csv"
    with open(path, "w") as fh:
        assert log.to_csv(fh) is None
    return path.read_bytes()


def reference_csv(log: RunLog) -> str:
    """RunLog.to_csv's format written out cell by cell."""
    def f(v) -> str:
        return "%.9g" % v

    lines = [",".join(CSV_COLUMNS)]
    t, pose, z, xhat, readings, chat, grad, lap, u, nu, omega, sat, ctrue = (
        column(log, name) for name in ("t", "pose", "z", "xhat", "readings",
                                       "chat", "grad", "lap", "u", "nu",
                                       "omega", "sat", "ctrue"))
    for i in range(len(t)):
        row = [f(t[i]),
               f(pose[i, 0]), f(pose[i, 1]), f(pose[i, 2]),
               f(z[i, 0]), f(z[i, 1]),
               f(xhat[i, 0]), f(xhat[i, 1]),
               f(readings[i, 0]), f(readings[i, 1]),
               f(readings[i, 2]), f(readings[i, 3]),
               f(chat[i]),
               f(grad[i, 0]), f(grad[i, 1]), f(lap[i]),
               f(u[i, 0]), f(u[i, 1]),
               f(nu[i]), f(omega[i]),
               "1" if sat[i] else "0",
               log.status[i],
               "" if math.isnan(ctrue[i]) else f(ctrue[i])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestCsv:
    SPECIALS = (-0.0, 0.0, 1e76, -1e76, 1e-300, -1e-300, 1.0 / 3.0,
                123456789.123, -2.5e-7)
    STATUSES = (G.STATUS_SEEKING, G.STATUS_TRACKING, G.STATUS_DEGENERATE)

    def test_matches_cell_by_cell_reference(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 300

        def draw(*shape):
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
            special = rng.random(shape) < 0.3
            v[special] = rng.choice(self.SPECIALS, int(special.sum()))
            return v

        ctrue = draw(n)
        ctrue[rng.random(n) < 0.3] = math.nan
        log = synthetic_log(
            draw(n, 2), t=draw(n), pose=draw(n, 3),
            xhat=draw(n, 2), readings=draw(n, 4), chat=draw(n),
            grad=draw(n, 2), lap=draw(n), u=draw(n, 2), nu=draw(n),
            omega=draw(n), sat=rng.random(n) < 0.5,
            status=tuple(self.STATUSES[j] for j in rng.integers(3, size=n)),
            ctrue=ctrue)
        assert set(log.status) == set(self.STATUSES)
        assert column(log, "sat").any() and not column(log, "sat").all()
        text = csv_text(log)
        assert text == reference_csv(log)
        assert written_csv(log, tmp_path) == text.encode()
        for cell in (",-0,", "1e+76", "-1e+76", "1e-300", ",\n"):
            assert cell in text

    def test_run_logs_match_reference(self, tmp_path):
        logs = (run(short_scenario(duration=2.0, noise=NoiseModel(sigma=2.0),
                                   seed=3)),
                run(scenario_from_dict(dict(GRID_ESCAPE, duration=2.0))),
                run(scenario_from_dict(GRID_ESCAPE)))
        assert logs[2].truncated
        for log in logs:
            assert csv_text(log) == reference_csv(log)
            assert written_csv(log, tmp_path) == csv_text(log).encode()

    def test_zero_rows_is_header_only(self, tmp_path):
        log = synthetic_log(np.zeros((0, 2)))
        assert csv_text(log) == reference_csv(log) == \
            ",".join(CSV_COLUMNS) + "\n"
        assert written_csv(log, tmp_path) == csv_text(log).encode()


class TestLogPassMemory:
    """A pass over a finished run's log reads it ``LOG_CHUNK`` records at a
    time, so it holds little beyond the table, however long the run."""

    BOUND = 5_000_000               # bytes over the table
    N = 100_000

    @pytest.fixture(scope="class")
    def long_log(self):
        # a slow noisy circle about the origin, tracking from its midpoint
        rng = np.random.default_rng(23)
        ang = np.linspace(0.0, 6.0 * math.pi, self.N)
        z = 10.0 * np.column_stack((np.cos(ang), np.sin(ang)))
        z += rng.normal(0.0, 0.1, z.shape)
        half = self.N // 2
        status = (G.STATUS_SEEKING,) * half + \
            (G.STATUS_TRACKING,) * (self.N - half)
        return synthetic_log(
            z, readings=rng.normal(50.0, 5.0, (self.N, 4)),
            chat=rng.normal(50.0, 1.0, self.N),
            grad=rng.normal(0.0, 2.0, (self.N, 2)),
            u=rng.normal(0.0, 1.0, (self.N, 2)), status=status,
            ctrue=np.where(rng.random(self.N) < 0.5, math.nan, 50.0))

    @staticmethod
    def peak(fn) -> int:
        """The most bytes held at once while fn runs, counting only what
        is allocated after it starts."""
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_csv_written_to_a_file(self, long_log, tmp_path):
        path = tmp_path / "log.csv"
        with open(path, "w") as fh:
            assert self.peak(lambda: long_log.to_csv(fh)) < self.BOUND
        assert path.read_bytes().count(b"\n") == self.N + 1

    def test_status(self, long_log):
        gains = short_scenario().gains
        assert self.peak(lambda: G.status(simulator.records(
            long_log.table, simulator.STATUS_COLUMNS), gains)) < self.BOUND

    def test_metrics(self, long_log):
        sc = short_scenario()           # a Gaussian, so a level-set error
        m = metrics(long_log, sc)
        assert m.mean_level_set_error is not None
        assert m.tracking_reached_at == column(long_log, "t")[self.N // 2]
        assert self.peak(lambda: metrics(long_log, sc)) < self.BOUND


class TestMetrics:
    def scenario_for_synthetic(self):
        return short_scenario(duration=5.0)

    def test_unit_circle_ccw(self):
        # chord step sized so the polyline speed is exactly 1 m/s
        dt = 0.05
        alpha = 2.0 * math.asin(dt / 2.0)
        n = int(math.ceil(2 * math.pi / alpha)) + 1
        ang = alpha * np.arange(n)
        z = np.column_stack([np.cos(ang), np.sin(ang)])
        m = metrics(synthetic_log(z, dt=dt), self.scenario_for_synthetic())
        assert m.mean_patrol_speed == pytest.approx(1.0, abs=1e-6)
        assert m.winding_sign == 1
        assert m.winding_angle >= 2 * math.pi - alpha
        assert m.rms_conc_error == 0.0

    def test_constant_position(self):
        z = np.tile([3.0, 4.0], (100, 1))
        m = metrics(synthetic_log(z), self.scenario_for_synthetic())
        assert m.mean_patrol_speed == 0.0
        assert m.winding_sign == 0
        assert m.winding_angle == 0.0

    def test_backtrack_detects_reversal(self):
        dt = 0.05
        alpha = 2.0 * math.asin(dt / 2.0)
        fwd = alpha * np.arange(100)
        ang = np.concatenate([fwd, fwd[-1] - alpha * np.arange(1, 41)])
        z = np.column_stack([np.cos(ang), np.sin(ang)])
        m = metrics(synthetic_log(z), self.scenario_for_synthetic())
        assert m.winding_backtrack == pytest.approx(40 * alpha, rel=1e-6)

    def test_level_set_error_on_analytic_run(self, advection_doc):
        doc = copy.deepcopy(advection_doc)
        doc["duration"] = 20.0
        sc = scenario_from_dict(doc)
        m = metrics(run(sc), sc)
        assert m.mean_level_set_error is not None
        assert m.mean_level_set_error < 0.05

    @staticmethod
    def reference_level_set_error(log, sc):
        """``mean_level_set_error`` as numpy arrays, with one ``np.hypot``
        of array differences per row."""
        t, z, field0 = column(log, "t"), column(log, "z"), sc.field0
        half = t >= t[-1] / 2.0
        radii = [field0.level_set_radius(sc.gains.c0, float(ti))
                 for ti in t[half]]
        dists = [float(np.hypot(*(z[j] - field0.centroid(float(t[j])))))
                 for j in np.nonzero(half)[0]]
        return float(np.mean(np.abs(np.asarray(dists) - np.asarray(radii))))

    @pytest.mark.parametrize("plume", ["frozen-gaussian", "single-seed",
                                       "frozen-gaussian-60s"])
    def test_level_set_error_bit_equal_to_array_form(self, plume,
                                                     advection_doc):
        if plume.startswith("frozen-gaussian"):
            doc = copy.deepcopy(advection_doc)
            # the 60 s run's final half is more than two LOG_CHUNKs
            doc["duration"] = 60.0 if plume.endswith("60s") else 20.0
            sc = scenario_from_dict(doc)
        else:
            # peak 75.6 ppb at age 50 s, so the c0 = 50 curve has a
            # radius of about 10 m while the flow carries the puff
            k = 1.2
            sc = short_scenario(duration=10.0, field0=PuffPlume(
                source=(0.0, 0.0), flow=FlowField.uniform((0.2, 0.1)),
                diffusion=k,
                seed_puffs=(GaussianPuff(-50.0, (0.0, 0.0), 57000.0, k),)))
        log = run(sc)
        m = metrics(log, sc)
        want = self.reference_level_set_error(log, sc)
        assert m.mean_level_set_error is not None
        assert m.mean_level_set_error.hex() == want.hex()

    def test_winding_bit_equal_to_array_form(self):
        # a noisy two-turn loop with a reversal, several LOG_CHUNKs long,
        # against the angles of the whole polyline taken at once
        rng = np.random.default_rng(29)
        n = 3 * simulator.LOG_CHUNK + 5
        ang = np.concatenate((np.linspace(0.0, 4.0 * math.pi, n - 100),
                              np.linspace(4.0 * math.pi, 3.0 * math.pi, 100)))
        z = np.column_stack((np.cos(ang), np.sin(ang))) * 12.0
        z += rng.normal(0.0, 0.5, z.shape)
        center = np.array([0.3, -0.2])
        rel = z - center[None, :]
        d = np.diff(np.array([math.atan2(y, x) for x, y in rel.tolist()]))
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        cum = np.concatenate(([0.0], np.cumsum(d)))
        adverse = float(np.max(np.maximum.accumulate(cum) - cum))
        assert cum[-1] > 0 and adverse > 2.0
        total, got_adverse = simulator._winding(z.tolist(), center.tolist())
        assert (total.hex(), got_adverse.hex()) == \
            (float(cum[-1]).hex(), adverse.hex())

    def test_needs_two_records(self):
        z = np.tile([0.0, 0.0], (1, 1))
        with pytest.raises(ValueError):
            metrics(synthetic_log(z), self.scenario_for_synthetic())

    def test_two_record_log_stays_finite(self):
        z = np.array([[0.0, 0.0], [0.05, 0.0]])
        m = metrics(synthetic_log(z), self.scenario_for_synthetic())
        assert np.isfinite(m.mean_patrol_speed)
        assert m.mean_patrol_speed == pytest.approx(1.0)

    def test_convergence_error_trends_agree(self, advection_doc):
        # |ctrue - c0| and the level-set distance error both shrink
        # window over window while the vessel closes in on the curve
        doc = copy.deepcopy(advection_doc)
        doc["duration"] = 20.0
        doc["vessel"]["start_pose"] = [16.0, 0.5, -1.5707963267948966]
        sc = scenario_from_dict(doc)
        log = run(sc)
        c0 = sc.gains.c0
        conc_err = np.abs(column(log, "ctrue") - c0)
        dist_err = np.array([
            abs(np.hypot(*(column(log, "z")[i] - sc.field0.centroid(t)))
                - sc.field0.level_set_radius(c0, t))
            for i, t in enumerate(column(log, "t"))])
        w = 40                                   # 2 s windows
        rms = lambda a: float(np.sqrt(np.mean(a ** 2)))
        conc_rms = [rms(conc_err[i:i + w]) for i in range(0, 160, w)]
        dist_rms = [rms(dist_err[i:i + w]) for i in range(0, 160, w)]
        assert all(np.diff(conc_rms) < 0)
        assert all(np.diff(dist_rms) < 0)


def same_float(a, b) -> bool:
    """a and b are the same float, any NaN matching any other."""
    return (a != a and b != b) or float(a).hex() == float(b).hex()


class TestPairwiseSum:
    """The float passes' sum, mean and deviation are numpy's floats."""

    @staticmethod
    def arrays():
        # 0 to 20,000 values at scales from subnormal to overflowing, some
        # with an inf, a -inf, a NaN or only negative zeros in them
        rng = np.random.default_rng(31)
        for i in range(240):
            n = int(rng.integers(0, 300 if i % 3 else 20_001))
            x = rng.standard_normal(n) * 10.0 ** rng.choice(
                [-320, -5, 0, 3, 300, 307])
            if n and i % 5 == 1:
                x[rng.integers(n, size=3)] = rng.choice(
                    [math.inf, -math.inf, math.nan], 3)
            if i % 17 == 2:
                x[:] = -0.0
            yield x

    def test_sum_is_add_reduce(self):
        for x in self.arrays():
            with np.errstate(all="ignore"):
                want = float(np.add.reduce(x))
            assert same_float(simulator.pairwise_sum(x.tolist()), want), \
                len(x)
            assert same_float(simulator.pairwise_sum(array("d", x)), want)

    def test_mean_and_std(self):
        for x in self.arrays():
            if not len(x):
                continue
            with np.errstate(all="ignore"):
                want = (float(np.mean(x)), float(np.std(x)))
            got = (simulator._mean(x.tolist()), simulator._std(x.tolist()))
            assert all(map(same_float, got, want)), len(x)


def reference_metrics(log: RunLog, sc) -> RunMetrics:
    """``metrics`` as it was taken on numpy arrays, the reference for the
    float passes' bits."""
    t, z = column(log, "t"), column(log, "z")
    first = min(int(np.argmax(t >= t[-1] / 2.0)), len(t) - 2)
    c0 = sc.gains.c0
    rms = float(np.sqrt(np.mean((column(log, "chat")[first:] - c0) ** 2)))
    speeds = (np.linalg.norm(np.diff(z[first:], axis=0), axis=1)
              / np.diff(t[first:]))
    tracking_at = next((float(t[i]) for i, s in enumerate(log.status)
                        if s == G.STATUS_TRACKING), None)
    start = first if tracking_at is None else \
        int(np.argmax(t >= tracking_at))
    center = np.asarray(sc.field0.centroid(float(t[-1]) / 2.0))
    rel = z[start:] - center[None, :]
    d = np.diff(np.array([math.atan2(y, x) for x, y in rel.tolist()]))
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    total = adverse = 0.0
    if d.size:
        cum = np.concatenate(([0.0], np.cumsum(d)))
        total = float(cum[-1])
        adverse = float(np.max(np.maximum.accumulate(cum) - cum)
                        if total >= 0.0 else
                        np.max(cum - np.minimum.accumulate(cum)))
    err = []
    for ti, (zx, zy) in zip(t[first:].tolist(), z[first:].tolist()):
        try:
            r = sc.field0.level_set_radius(c0, ti)
        except ValueError:
            r = None
        if r is None:
            err = None
            break
        cx, cy = sc.field0.centroid(ti)
        err.append(abs(float(np.hypot(zx - cx, zy - cy)) - r))
    return RunMetrics(
        rms_conc_error=rms, mean_patrol_speed=float(np.mean(speeds)),
        std_patrol_speed=float(np.std(speeds)),
        winding_sign=0 if abs(total) < 1e-6 else (1 if total > 0 else -1),
        winding_angle=total, winding_backtrack=adverse,
        mean_level_set_error=None if err is None else float(np.mean(err)),
        saturation_fraction=float(np.mean(column(log, "sat"))),
        tracking_reached_at=tracking_at, truncated=log.truncated,
        seed=sc.seed)


class TestMetricsMatchArrayForm:
    @staticmethod
    def assert_same(log, sc):
        with np.errstate(all="ignore"):
            want = dataclasses.asdict(reference_metrics(log, sc))
        got = dataclasses.asdict(metrics(log, sc))
        assert got.keys() == want.keys()
        for key, value in got.items():
            if isinstance(value, float):
                assert same_float(value, want[key]), key
            else:
                assert value == want[key], key

    @pytest.mark.parametrize("name", ["case1", "case2", "pure_advection",
                                      "uneven_rig_demo"])
    def test_bundled_logs(self, scenarios_dir, name):
        sc = scenario_from_dict(
            json.loads((scenarios_dir / f"{name}.json").read_text()))
        self.assert_same(run(sc), sc)

    def test_truncated_grid_log(self):
        sc = scenario_from_dict(GRID_ESCAPE)
        log = run(sc)
        assert log.truncated
        self.assert_same(log, sc)

    def test_non_finite_logs(self):
        # an inf concentration, a NaN point and a speed that overflows
        rng = np.random.default_rng(37)
        n = 3 * simulator.LOG_CHUNK + 11
        z = rng.normal(0.0, 5.0, (n, 2))
        sc = short_scenario()
        for chat, zx in ((math.inf, 0.0), (50.0, math.nan), (50.0, 1e308)):
            zs = z.copy()
            zs[n - 40, 0] = zx
            log = synthetic_log(zs, chat=np.where(np.arange(n) == n - 5,
                                                  chat, 50.0),
                                status=G.STATUS_SEEKING)
            self.assert_same(log, sc)


NAN = math.nan
GAINS = dict(c0=50.0, k=1.2, k1=5.0, k2=11.0, v_d=1.5)


@pytest.mark.parametrize("make, message", [
    (lambda: GaussianPuff(0.0, (0, 0), NAN, 1.0), "strength Q must be > 0"),
    (lambda: GaussianPuff(0.0, (0, 0), 1.0, NAN), "diffusion k must be > 0"),
    (lambda: PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                       emission_rate=NAN), "emission rate must be >= 0"),
    (lambda: PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                       puff_interval=NAN), "puff interval must be > 0"),
    (lambda: PuffPlume(source=(0, 0), flow=STILL, diffusion=NAN),
     "diffusion k must be > 0"),
    (lambda: GaussianPuff(0.0, (0, 0), 1.0, 1.0).peak(NAN),
     "puff evaluated at age nan"),
    (lambda: GaussianPuff(0.0, (0, 0), 1.0, 1.0).center(STILL, NAN),
     "puff evaluated at age nan"),
    (lambda: puff_concentration(GaussianPuff(0.0, (0, 0), 1.0, 1.0), STILL,
                                (0, 0), NAN), "puff evaluated at age nan"),
    (lambda: PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                       seed_puffs=(GaussianPuff(0.0, (0, 0), 1.0, 1.0),)
                       ).level_set_radius(0.1, NAN),
     "puff evaluated at age nan"),
    (lambda: FrozenGaussian(NAN, 1.0, (0, 0), STILL), "peak and sigma"),
    (lambda: FrozenGaussian(1.0, NAN, (0, 0), STILL), "peak and sigma"),
    (lambda: GridField((0, 0), NAN, np.zeros((4, 4)), 0.1, STILL),
     "cell size h must be > 0"),
    (lambda: GridField((0, 0), 0.5, np.zeros((4, 4)), NAN, STILL),
     "diffusion k must be >= 0"),
    (lambda: NoiseModel(sigma=NAN), "need sigma >= 0"),
    (lambda: NoiseModel(floor=NAN), "need sigma >= 0"),
    (lambda: NoiseModel(range_max=NAN), "need sigma >= 0"),
    (lambda: VesselParams(offset=NAN), "offset l0 must be > 0"),
    (lambda: VesselParams(nu_max=NAN), "actuator limits must be > 0"),
    (lambda: VesselParams(omega_max=NAN), "actuator limits must be > 0"),
    (lambda: GuidanceGains(**{**GAINS, "c0": NAN}), "c0 must be > 0"),
    (lambda: GuidanceGains(**{**GAINS, "k": NAN}), "constant k must be >= 0"),
    (lambda: GuidanceGains(**{**GAINS, "k1": NAN}), "k1, k2 must be > 0"),
    (lambda: GuidanceGains(**{**GAINS, "k2": NAN}), "k1, k2 must be > 0"),
    (lambda: GuidanceGains(**{**GAINS, "v_d": NAN}), "v_d must be >= 0"),
    (lambda: GuidanceGains(**GAINS, grad_floor=NAN), "floor must be > 0"),
    (lambda: short_scenario(duration=NAN), "duration must be > 0"),
    (lambda: short_scenario(control_period=NAN),
     "control period must be > 0"),
    (lambda: short_scenario(flow_noise_sigma=NAN),
     "flow noise sigma must be >= 0"),
    (lambda: GridField((0, 0), 0.5, np.zeros((4, 4)), 0.1, STILL).step(NAN),
     "dt must be > 0"),
    (lambda: vessel_step(0.0, 0.0, 0.0, 1.0, 0.0, NAN), "dt must be > 0"),
    (lambda: head_point(0.0, 0.0, 1.0, 0.0, NAN),
     "head-point offset l0 must be > 0"),
    (lambda: G.step((0.0, 0.0), GuidanceGains(**GAINS), G.SIGN_PDE,
                    (0.0, 0.0), (0.0, 0.0), 50.0, (1.0, 0.0), 0.0,
                    (0.0, 0.0), NAN, 0.0), "dt must be > 0"),
])
def test_range_checks_refuse_nan(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestCentroid:
    def test_puff_plume_centroid_advects(self, case1_doc):
        sc = scenario_from_dict(copy.deepcopy(case1_doc))
        c0 = np.asarray(sc.field0.centroid(0.0))
        c1 = np.asarray(sc.field0.centroid(10.0))
        assert np.allclose(c1 - c0, np.array([0.03, 0.015]) * 10.0)

    def test_frozen_gaussian_centroid(self):
        blob = FrozenGaussian(60.0, 18.0, (2.0, 3.0),
                              FlowField.uniform((0.1, 0.0)))
        assert np.allclose(blob.centroid(5.0), [2.5, 3.0])
