import copy
import math

import numpy as np
import pytest

from plumetrack import guidance as G
from plumetrack import simulator as SIM
from plumetrack.field import FlowField, FrozenGaussian
from plumetrack.guidance import (
    GuidanceGains, NonFiniteError, SIGN_OPPOSED, SIGN_PDE, step)
from plumetrack.scenario_io import scenario_from_dict
from plumetrack.sensing import NoiseModel, SensorRig
from plumetrack.vessel import VesselParams

from conftest import column

GAINS = GuidanceGains(c0=50.0, k=1.2, k1=5.0, k2=11.0, v_d=1.5)
# no patrol: with x_r on the linearised level curve through x_hat and a
# still fluid the observer rate is zero
QUIET = GuidanceGains(c0=50.0, k=1.2, k1=5.0, k2=11.0, v_d=0.0)


def statuses(t, c_hat, grad, z=(0.1, 0.0), xhat=(0.0, 0.0)):
    """guidance.status of records at times t; a c_hat, gradient, head
    point or estimate given once holds for every record."""
    n = len(t)
    c_hat, grad, z, xhat = (
        np.broadcast_to(np.asarray(a, dtype=float), shape)
        for a, shape in ((c_hat, (n,)), (grad, (n, 2)), (z, (n, 2)),
                         (xhat, (n, 2))))
    return G.status(zip(np.asarray(t, dtype=float).tolist(), c_hat.tolist(),
                        *z.T.tolist(), *xhat.T.tolist(), *grad.T.tolist()),
                    QUIET)


def static_scenario(pose, duration=30.0, peak=60.0, sigma=18.0, c0=50.0):
    blob = FrozenGaussian(peak=peak, sigma=sigma, center=(0.0, 0.0),
                          flow=FlowField.uniform((0.0, 0.0)))
    return SIM.Scenario(
        name="static", seed=0, duration=duration, control_period=0.05,
        physics_substep=0.05, sign_convention=SIGN_PDE, tracked_point="head",
        flow_noise_sigma=0.0, field0=blob, rig=SensorRig.cross(0.75),
        noise=NoiseModel(), params=VesselParams(), start_pose=pose,
        gains=GuidanceGains(c0=c0, k=1.2, k1=5.0, k2=11.0, v_d=1.5))


def observer_rate(gains, mode, grad, lap, v):
    """x_hat' of one step from an on-curve x_r (x_r = x_hat, c_hat = c0):
    with the correction zero, dt = 1 makes the update the rate itself."""
    xhat, _ = step((0, 0), gains, mode, (0, 0), (0, 0), gains.c0, grad, lap,
                   v, 1.0, 0.0)
    return np.asarray(xhat)


def folded_law(gains, mode, xhat, x_r, driven, c_hat, grad, lap, v, dt):
    """The module docstring's observer and control, term by term, with
    the largest term's size for a relative tolerance."""
    gx, gy = grad
    gg = gx * gx + gy * gy
    norm = math.hypot(gx, gy)
    vg = v[0] * gx + v[1] * gy
    if mode == SIGN_PDE:
        n_ff = (vg - gains.k * lap) / gg * np.array([gx, gy])
    else:
        n_ff = -(vg + gains.k * lap) / gg * np.array([gx, gy])
    patrol = gains.v_d / norm * np.array([-gy, gx])

    def correction(p):
        residual = gx * (p[0] - x_r[0]) + gy * (p[1] - x_r[1]) \
            + c_hat - gains.c0
        return -gains.k1 * residual * np.array([gx, gy])

    rate = n_ff + patrol + correction(xhat)
    xhat_new = xhat + dt * rate
    pull = -gains.k2 * (driven - xhat_new)
    u = n_ff + patrol + correction(xhat_new) + pull
    terms = (xhat, n_ff, patrol, correction(xhat), correction(xhat_new), pull)
    return xhat_new, u, max(float(np.abs(a).max()) for a in terms)


class TestFoldedLaw:
    def test_step_matches_docstring_formulas(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(400):
            gains = GuidanceGains(c0=rng.uniform(10, 100),
                                  k=rng.uniform(0, 2), k1=rng.uniform(0.1, 10),
                                  k2=rng.uniform(1, 20), v_d=rng.uniform(0, 2))
            grad = rng.uniform(-3, 3, 2)
            if np.hypot(*grad) < gains.grad_floor:
                continue
            xhat, x_r, driven = rng.uniform(-10, 10, (3, 2))
            c_hat, lap = rng.uniform(0, 100), rng.uniform(-2, 2)
            v, dt = rng.uniform(-1, 1, 2), rng.uniform(0.01, 0.2)
            for mode in (SIGN_PDE, SIGN_OPPOSED):
                xhat2, u = step(xhat, gains, mode, x_r, driven, c_hat, grad,
                                lap, v, dt, 0.0)
                want_xhat, want_u, scale = folded_law(
                    gains, mode, xhat, x_r, driven, c_hat, grad, lap, v, dt)
                assert np.abs(xhat2 - want_xhat).max() <= 1e-12 * scale
                assert np.abs(u - want_u).max() <= 1e-12 * scale
                checked += 1
        assert checked > 700


class TestNormalFeedforward:
    # no patrol and an on-curve x_r leave the feedforward as the whole rate
    STILL = GuidanceGains(c0=50.0, k=0.0, k1=5.0, k2=11.0, v_d=0.0)

    def test_still_fluid_no_curvature(self):
        for mode in (SIGN_PDE, SIGN_OPPOSED):
            nf = observer_rate(self.STILL, mode, (2, 1), 0.0, (0, 0))
            assert np.allclose(nf, 0.0)

    def test_pure_advection_modes(self):
        # a translating level set moves with the flow under the derived sign
        nf = observer_rate(self.STILL, SIGN_PDE, (2, 0), 0.0, (1, 0))
        assert np.allclose(nf, [1.0, 0.0])
        nf = observer_rate(self.STILL, SIGN_OPPOSED, (2, 0), 0.0, (1, 0))
        assert np.allclose(nf, [-1.0, 0.0])

    def test_modes_differ_only_in_advection_sign(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.uniform(-3, 3, 2)
            if np.hypot(*g) < 0.1:
                continue
            lap, v = rng.uniform(-2, 2), rng.uniform(-1, 1, 2)
            a = np.asarray(observer_rate(QUIET, SIGN_PDE, g, lap, v))
            b = np.asarray(observer_rate(QUIET, SIGN_OPPOSED, g, lap, v))
            adv = float(v @ g) / float(g @ g) * g
            assert np.allclose(a - b, 2 * adv, atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="sign convention"):
            step((0, 0), GAINS, "bogus", (0, 0), (0, 0), 50.0, (1, 0), 0.0,
                 (0, 0), 0.1, 0.0)


class TestObserver:
    def test_tangential_only(self):
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=1.5)
        xhat, _ = step((0, 0), gains, SIGN_PDE, (0, 0), (0, 0), 50.0, (1, 0),
                       0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(xhat, [0.0, 0.15], atol=1e-15)

    def test_measurement_correction(self):
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=0.0)
        xhat, _ = step((0, 0), gains, SIGN_PDE, (0, 0), (0, 0), 51.0, (1, 0),
                       0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(xhat, [-0.5, 0.0], atol=1e-15)

    def test_degenerate_gradient_holds_estimate(self):
        xhat, _ = step((3, -2), GAINS, SIGN_PDE, (3, -2), (3, -2), 50.0,
                       (0, 0), 0.0, (0, 0), 0.1, 0.0)
        assert xhat == (3, -2)
        assert statuses([0.0], 50.0, (0, 0), (3, -2), xhat) == \
            (G.STATUS_DEGENERATE,)

    def test_fixed_point(self):
        # on-curve, still fluid, no patrol: observer is the identity
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=0.0)
        xhat, u = step((1.0, 2.0), gains, SIGN_PDE, (1.0, 2.0), (1.5, 2.0),
                       50.0, (0.7, 0.2), 0.0, (0, 0), 0.05, 0.0)
        assert np.allclose(xhat, (1.0, 2.0), atol=1e-15)
        assert np.allclose(u, -11.0 * np.array([0.5, 0.0]), atol=1e-12)

    def test_run_starts_at_vessel_position(self):
        # a run's x_hat starts at the vessel position, and its first
        # record, with no hold behind it, is seeking
        for pose in ((10.87, 0.5, -math.pi / 2), (3.0, -2.0, 1.0)):
            sc = static_scenario(pose, duration=0.05)
            log = SIM.run(sc)
            z = column(log, "z")[0]
            est = (column(log, "chat")[0], column(log, "grad")[0],
                   column(log, "lap")[0])
            xhat, _ = step(pose[:2], sc.gains, SIGN_PDE, pose[:2], z, *est,
                           (0.0, 0.0), 0.05, 0.0)
            assert np.array_equal(column(log, "xhat")[0], xhat)
            assert log.status[0] == G.STATUS_SEEKING

    def test_nonfinite_rejected(self):
        ok = dict(x_r=(0.0, 0.0), grad=(1.0, 0.0), v_r=(0.0, 0.0),
                  c_hat=50.0, lap=0.0)

        def run(**inputs):
            a = dict(ok, **inputs)
            step((0, 0), GAINS, SIGN_PDE, a["x_r"], (0, 0), a["c_hat"],
                 a["grad"], a["lap"], a["v_r"], 0.1, 0.0)

        for name in ok:
            for bad in (math.nan, math.inf, -math.inf):
                value = bad if name in ("c_hat", "lap") else (0.0, bad)
                with pytest.raises(
                        NonFiniteError,
                        match=rf"^non-finite observer input {name} at t=0 s$"):
                    run(**{name: value})
        # the first bad input in the order x_r, grad, v_r, c_hat, lap
        with pytest.raises(NonFiniteError, match=" input grad "):
            run(grad=(math.inf, 0.0), v_r=(math.nan, 0.0), lap=math.nan)

    def test_nonfinite_control_raises(self):
        # an observer that has already diverged yields no finite command
        with pytest.raises(NonFiniteError, match="control"), \
                np.errstate(over="ignore", invalid="ignore"):
            step((1e308, 0.0), GAINS, SIGN_PDE, (0, 0), (0, 0), 50.0, (1, 0),
                 0.0, (0, 0), 0.1, 0.0)

    def test_overflowing_gradient_norm_raises_nonfinite(self):
        # a finite gradient whose norm overflows has |g| = inf, as C's
        # hypot gives, so its control is not finite
        with pytest.raises(NonFiniteError, match="control"):
            step((0, 0), GAINS, SIGN_PDE, (0, 0), (0, 0), 50.0,
                 (1.3e308, 1.3e308), 0.0, (0, 0), 0.05, 0.0)

    def test_nonfinite_degenerate_control_raises(self):
        # the degenerate branch's pull -k2 (driven - x_hat) overflows too
        gains = GuidanceGains(c0=50.0, k=1.2, k1=5.0, k2=1e308, v_d=1.5)
        with pytest.raises(NonFiniteError, match="control"), \
                np.errstate(over="ignore"):
            step((0, 0), gains, SIGN_PDE, (0, 0), (2, 0), 50.0, (0, 0), 0.0,
                 (0, 0), 0.1, 0.0)

    def test_control_uses_updated_estimate(self):
        # x_hat moves to (-0.5, 0) first; the correction and the pull then
        # act on it: u = -5 * 0.5 * (1, 0) - 11 * (0.5, 0) = (-8, 0).  The
        # pre-update x_hat would give (-5, 0).
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=0.0)
        xhat, u = step((0, 0), gains, SIGN_PDE, (0, 0), (0, 0), 51.0, (1, 0),
                       0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(xhat, [-0.5, 0.0], atol=1e-15)
        assert np.allclose(u, [-8.0, 0.0], atol=1e-12)

    def test_status_measures_head_point_not_driven_point(self):
        # the control drives the hull centre, the status watches the head
        xhat, far, near = (0, 0), (5.0, 0.0), (0.0, 0.0)
        estimates = []
        for t in (0.0, 2.0):
            xhat, u = step(xhat, QUIET, SIGN_PDE, (0, 0), near, 50.0, (1, 0),
                           0.0, (0, 0), 0.05, t)
            estimates.append(xhat)
        assert np.allclose(u, 0.0)
        assert statuses([0.0, 2.0], 50.0, (1, 0), far, estimates) == \
            (G.STATUS_SEEKING,) * 2
        assert statuses([0.0, 2.0], 50.0, (1, 0), near, estimates)[-1] == \
            G.STATUS_TRACKING


class TestControl:
    def test_patrol_only(self):
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=1.5)
        # x_hat starts one patrol step behind z, so the update lands on z
        _, u = step((0, -0.15), gains, SIGN_PDE, (0, 0), (0, 0), 50.0, (1, 0),
                    0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(u, [0.0, 1.5], atol=1e-15)

    def test_pure_tracking_term(self):
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=0.0)
        _, u = step((0, 0), gains, SIGN_PDE, (0, 0), (1.0, 0.0), 50.0, (1, 0),
                    0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(u, [-11.0, 0.0], atol=1e-12)

    def test_degenerate_fallback_is_pure_tracking(self):
        _, u = step((0, 0), GAINS, SIGN_PDE, (0, 0), (2.0, -1.0), 50.0,
                    (0, 0), 0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(u, [-22.0, 11.0])

    def test_rotation_preserves_norm(self):
        # the patrol term v_d A g / |g|, with k = 0 and a still fluid
        # alone in the rate, is g turned +90 degrees at the patrol speed
        gains = GuidanceGains(c0=50.0, k=0.0, k1=5.0, k2=11.0, v_d=1.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = rng.uniform(-5, 5, 2)
            rate = np.asarray(observer_rate(gains, SIGN_PDE, g, 0.0, (0, 0)))
            assert rate * np.hypot(*g) == pytest.approx([-g[1], g[0]],
                                                        rel=1e-15)

    def test_tangential_orthogonal_and_normed(self):
        # on-curve x_r and a still fluid: the patrol is the whole rate
        rng = np.random.default_rng(2)
        for _ in range(200):
            g = rng.uniform(-5, 5, 2)
            if np.hypot(*g) < GAINS.grad_floor:
                continue
            tan = observer_rate(GAINS, SIGN_PDE, g, 0.0, (0, 0))
            assert abs(float(tan @ g)) < 1e-12 * np.hypot(*g)
            assert np.hypot(*tan) == pytest.approx(1.5, abs=1e-12)


class TestStatus:
    def test_promotion_needs_sustained_band(self):
        t = [*np.arange(0, 2.0, 0.05), 2.0]
        got = statuses(t, 50.0, (1, 0))
        assert got[:-1] == (G.STATUS_SEEKING,) * (len(t) - 1)
        assert got[-1] == G.STATUS_TRACKING

    def test_band_break_resets_window(self):
        got = statuses([0.0, 1.0, 1.5, 2.5, 4.5],
                       [50.0, 50.0, 80.0, 50.0, 50.0], (1, 0))
        assert got[3] == G.STATUS_SEEKING
        assert got[4] == G.STATUS_TRACKING

    def test_tracking_is_sticky_and_degeneracy_reports(self):
        got = statuses([0.0, 2.0, 2.05, 2.10], 50.0,
                       [(1, 0), (1, 0), (0, 0), (1, 0)])
        assert got[1:] == (G.STATUS_TRACKING, G.STATUS_DEGENERATE,
                           G.STATUS_TRACKING)


    def test_overflowing_norms_are_inf(self):
        # |g| and |z - x_hat| that overflow are inf: not degenerate, so
        # such a gradient tracks as a unit one does, and not near
        big = (1.3e308, 1.3e308)
        assert statuses([0.0, 2.0, 4.0], 50.0, big) == \
            statuses([0.0, 2.0, 4.0], 50.0, (1, 0)) == \
            (G.STATUS_SEEKING, G.STATUS_TRACKING, G.STATUS_TRACKING)
        assert statuses([0.0, 2.0, 4.0], 50.0, (1, 0), z=big) == \
            (G.STATUS_SEEKING,) * 3


class TestClosedLoop:
    def test_clockwise_circulation_for_inward_gradient(self):
        # radially decreasing field: gradient points at the maximum, the
        # patrol term circulates the vessel clockwise around it
        sc = static_scenario((10.87, 0.5, -math.pi / 2), duration=20.0)
        log = SIM.run(sc)
        center = np.zeros(2)
        p = column(log, "z") - center
        steps = np.diff(column(log, "z"), axis=0)
        crosses = p[:-1, 0] * steps[:, 1] - p[:-1, 1] * steps[:, 0]
        assert crosses.sum() < 0.0
        m = SIM.metrics(log, sc)
        assert m.winding_sign == -1

    def test_static_field_residual_envelope_nonincreasing(self):
        # empirical Lyapunov check: 2 s max-envelope of |c(z) - c0| does
        # not grow after the first 5 s, from 20 random detectable poses
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = rng.uniform(4.0, 28.0)
            phi = rng.uniform(0, 2 * math.pi)
            heading = rng.uniform(-math.pi, math.pi)
            sc = static_scenario((r * math.cos(phi), r * math.sin(phi),
                                  heading))
            log = SIM.run(sc)
            resid = np.abs(column(log, "ctrue") - 50.0)
            w, i5 = 40, 100                     # 2 s window, start at 5 s
            env = np.array([resid[j:j + w].max()
                            for j in range(i5, len(resid) - w)])
            assert np.all(np.diff(env) <= 1e-3)

    def test_scaling_consistency(self, case1_doc):
        # field * s, c0 * s, k1 / s^2 leaves the trajectory unchanged
        s = 7.5
        base = copy.deepcopy(case1_doc)
        base["duration"] = 10.0
        scaled = copy.deepcopy(base)
        scaled["field"]["emission_rate"] *= s
        for puff in scaled["field"]["seed_puffs"]:
            puff["strength"] *= s
        scaled["gains"]["c0"] *= s
        scaled["gains"]["k1"] /= s * s
        log_a = SIM.run(scenario_from_dict(base))
        log_b = SIM.run(scenario_from_dict(scaled))
        for name in ("z", "xhat"):
            assert np.abs(column(log_a, name)
                          - column(log_b, name)).max() < 1e-8
