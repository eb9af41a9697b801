import copy
import dataclasses
import math

import numpy as np
import pytest

from plumetrack import guidance as G
from plumetrack.field import (FlowField, FrozenGaussian, GaussianPuff,
                              GridField, PuffPlume, puff_concentration)
from plumetrack.guidance import GuidanceGains
from plumetrack.scenario_io import scenario_from_dict
from plumetrack.sensing import (NoiseModel, RigEstimator, SensorRig,
                                world_positions)
from plumetrack.simulator import (CSV_COLUMNS, RunLog, Scenario,
                                  expected_records, metrics, run)
from plumetrack.vessel import (ActuatorCommand, VesselParams, VesselState,
                               head_point, step as vessel_step,
                               to_actuators)

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
        assert np.allclose(np.diff(log.t), 0.05)

    def test_determinism_bit_identical(self):
        sc = short_scenario(noise=NoiseModel(sigma=2.0), seed=5)
        a = run(sc).to_csv()
        b = run(sc).to_csv()
        assert a == b

    def test_different_seeds_differ(self):
        noisy = NoiseModel(sigma=2.0)
        a = run(short_scenario(noise=noisy, seed=5)).to_csv()
        b = run(short_scenario(noise=noisy, seed=6)).to_csv()
        assert a != b

    def test_flow_noise_is_seeded(self):
        sc = short_scenario(flow_noise_sigma=0.05, seed=9)
        assert run(sc).to_csv() == run(sc).to_csv()

    def test_ctrue_logged_for_analytic_fields(self):
        log = run(short_scenario(duration=2.0))
        assert not np.any(np.isnan(log.ctrue))

    def test_tracked_point_switch_changes_run(self):
        a = run(short_scenario(duration=5.0, tracked_point="head"))
        b = run(short_scenario(duration=5.0, tracked_point="center"))
        assert np.abs(a.z - b.z).max() > 1e-6

    def test_substep_consistency_analytic(self, case1_doc):
        doc = copy.deepcopy(case1_doc)
        doc["duration"] = 5.0
        ref = run(scenario_from_dict(doc))
        doc["physics_substep"] = 0.025
        halved = run(scenario_from_dict(doc))
        assert np.abs(ref.z[-1] - halved.z[-1]).max() < 1e-3

    def test_grid_scenario_runs_and_can_truncate(self):
        log = run(scenario_from_dict(GRID_ESCAPE))
        # the blob advects out of the 16 m box and the vessel follows
        assert log.truncated
        assert len(log) < expected_records(30.0, 0.05)
        # no unwritten row of the preallocated table leaks into the log
        n = len(log)
        for field in dataclasses.fields(RunLog):
            value = getattr(log, field.name)
            if field.name != "truncated":
                assert len(value) == n, field.name
            if field.name not in ("truncated", "status", "ctrue"):
                assert np.isfinite(value).all(), field.name
        assert np.array_equal(log.t, np.arange(n) * 0.05)

    def test_grid_truncates_where_a_sensor_first_leaves(self):
        sc = scenario_from_dict(GRID_ESCAPE)
        log = run(sc)
        grid = sc.field0

        def inside(state):
            # the cell and central-difference ring rule, per sensor
            u = ((world_positions(sc.rig, state) - grid.origin)
                 / grid.cell_size - 0.5)
            node = np.floor(u)
            return bool(((node >= 1) & (node <= np.array(grid.shape) - 3)).all())

        assert all(inside(VesselState(*pose)) for pose in log.pose)
        last = VesselState(*log.pose[-1])
        nxt = vessel_step(last, ActuatorCommand(log.nu[-1], log.omega[-1]),
                          sc.control_period)
        assert not inside(nxt)

    def test_log_columns_replay_the_loop(self):
        # each logged column is recomputed from the others by the layer
        # that produced it, so a column in the wrong place fails
        sc = short_scenario(duration=2.0, field0=FrozenGaussian(
            60.0, 18.0, (0.0, 0.0), FlowField.uniform((0.1, 0.05))))
        log = run(sc)
        noise, rng = sc.noise, np.random.default_rng(sc.seed)
        estimator = RigEstimator.for_rig(sc.rig)
        assert np.array_equal(log.t, np.arange(len(log)) * 0.05)
        g = G.init(log.pose[0, :2])
        for i, t in enumerate(log.t):
            state = VesselState(*log.pose[i])
            z = head_point(state, sc.params.offset)
            assert np.array_equal(log.z[i], z)
            c = sc.field0.eval_many(
                np.vstack((world_positions(sc.rig, state), z)), t)
            assert np.array_equal(log.readings[i], noise.read(c[:4], rng))
            assert log.ctrue[i] == c[4]
            est = estimator.estimate(log.readings[i], state.heading)
            assert (log.chat[i], log.lap[i]) == (est.c_hat, est.lap)
            assert np.array_equal(log.grad[i], est.grad)
            g, u = G.step(g, sc.gains, sc.sign_convention, state.position, z,
                          z, est.c_hat, est.grad, est.lap,
                          sc.field0.flow.at(t), 0.05, t)
            assert np.array_equal(log.xhat[i], g.xhat)
            assert np.array_equal(log.u[i], u)
            assert log.status[i] == g.status
            cmd, saturated = to_actuators(u, state.heading, sc.params)
            assert (log.nu[i], log.omega[i], log.sat[i]) == \
                (cmd.nu, cmd.omega, saturated)
            if i + 1 < len(log):
                nxt = vessel_step(state, cmd, 0.05)
                assert tuple(log.pose[i + 1]) == (nxt.x, nxt.y, nxt.heading)
        assert {G.STATUS_SEEKING, G.STATUS_TRACKING} <= set(log.status)

    def test_degenerate_stencil_aborts(self):
        from plumetrack.sensing import DegenerateStencilError
        rig = SensorRig(np.array([[1.0, 0.0], [-1.0, 0.0],
                                  [0.0, 1e-7], [0.0, -1e-7]]))
        with pytest.raises(DegenerateStencilError):
            run(short_scenario(duration=1.0, rig=rig))


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


def synthetic_log(z, dt=0.05, c0=50.0, status="tracking"):
    n = len(z)
    t = np.arange(n) * dt
    zeros = np.zeros(n)
    return RunLog(
        t=t, pose=np.column_stack([z[:, 0], z[:, 1], zeros]), z=z,
        xhat=z.copy(), readings=np.full((n, 4), c0),
        chat=np.full(n, c0), grad=np.tile([1.0, 0.0], (n, 1)), lap=zeros,
        u=np.zeros((n, 2)), nu=zeros, omega=zeros,
        sat=np.zeros(n, dtype=bool), status=tuple([status] * n),
        ctrue=np.full(n, c0))


def reference_csv(log: RunLog) -> str:
    """RunLog.to_csv's format written out cell by cell."""
    def f(v) -> str:
        return "%.9g" % v

    lines = [",".join(CSV_COLUMNS)]
    for i in range(len(log.t)):
        row = [f(log.t[i]),
               f(log.pose[i, 0]), f(log.pose[i, 1]), f(log.pose[i, 2]),
               f(log.z[i, 0]), f(log.z[i, 1]),
               f(log.xhat[i, 0]), f(log.xhat[i, 1]),
               f(log.readings[i, 0]), f(log.readings[i, 1]),
               f(log.readings[i, 2]), f(log.readings[i, 3]),
               f(log.chat[i]),
               f(log.grad[i, 0]), f(log.grad[i, 1]), f(log.lap[i]),
               f(log.u[i, 0]), f(log.u[i, 1]),
               f(log.nu[i]), f(log.omega[i]),
               "1" if log.sat[i] else "0",
               log.status[i],
               "" if math.isnan(log.ctrue[i]) else f(log.ctrue[i])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestCsv:
    SPECIALS = (-0.0, 0.0, 1e76, -1e76, 1e-300, -1e-300, 1.0 / 3.0,
                123456789.123, -2.5e-7)
    STATUSES = (G.STATUS_SEEKING, G.STATUS_TRACKING, G.STATUS_DEGENERATE)

    def test_matches_cell_by_cell_reference(self):
        rng = np.random.default_rng(11)
        n = 300

        def draw(*shape):
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
            special = rng.random(shape) < 0.3
            v[special] = rng.choice(self.SPECIALS, int(special.sum()))
            return v

        ctrue = draw(n)
        ctrue[rng.random(n) < 0.3] = math.nan
        log = dataclasses.replace(
            synthetic_log(draw(n, 2)), t=draw(n), pose=draw(n, 3),
            xhat=draw(n, 2), readings=draw(n, 4), chat=draw(n),
            grad=draw(n, 2), lap=draw(n), u=draw(n, 2), nu=draw(n),
            omega=draw(n), sat=rng.random(n) < 0.5,
            status=tuple(self.STATUSES[j] for j in rng.integers(3, size=n)),
            ctrue=ctrue)
        assert set(log.status) == set(self.STATUSES)
        assert log.sat.any() and not log.sat.all()
        text = log.to_csv()
        assert text == reference_csv(log)
        for cell in (",-0,", "1e+76", "-1e+76", "1e-300", ",\n"):
            assert cell in text

    def test_run_logs_match_reference(self):
        logs = (run(short_scenario(duration=2.0, noise=NoiseModel(sigma=2.0),
                                   seed=3)),
                run(scenario_from_dict(dict(GRID_ESCAPE, duration=2.0))),
                run(scenario_from_dict(GRID_ESCAPE)))
        assert logs[2].truncated
        for log in logs:
            assert log.to_csv() == reference_csv(log)

    def test_zero_rows_is_header_only(self):
        log = synthetic_log(np.zeros((0, 2)))
        assert log.to_csv() == reference_csv(log) == \
            ",".join(CSV_COLUMNS) + "\n"


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
        conc_err = np.abs(log.ctrue - c0)
        dist_err = np.array([
            abs(np.hypot(*(log.z[i] - sc.field0.centroid(t)))
                - sc.field0.level_set_radius(c0, t))
            for i, t in enumerate(log.t)])
        w = 40                                   # 2 s windows
        rms = lambda a: float(np.sqrt(np.mean(a ** 2)))
        conc_rms = [rms(conc_err[i:i + w]) for i in range(0, 160, w)]
        dist_rms = [rms(dist_err[i:i + w]) for i in range(0, 160, w)]
        assert all(np.diff(conc_rms) < 0)
        assert all(np.diff(dist_rms) < 0)


class TestCentroid:
    def test_puff_plume_centroid_advects(self, case1_doc):
        sc = scenario_from_dict(copy.deepcopy(case1_doc))
        c0 = sc.field0.centroid(0.0)
        c1 = sc.field0.centroid(10.0)
        assert np.allclose(c1 - c0, np.array([0.03, 0.015]) * 10.0)

    def test_frozen_gaussian_centroid(self):
        blob = FrozenGaussian(60.0, 18.0, (2.0, 3.0),
                              FlowField.uniform((0.1, 0.0)))
        assert np.allclose(blob.centroid(5.0), [2.5, 3.0])
