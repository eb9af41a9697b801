import math

import numpy as np
import pytest

from plumetrack import guidance as G
from plumetrack import simulator as SIM
from plumetrack.field import FlowField, FrozenGaussian
from plumetrack.guidance import (
    DegenerateGradientError, GuidanceGains, NonFiniteError,
    SIGN_OPPOSED, SIGN_PDE, init, normal_feedforward, step, tangential)
from plumetrack.scenario_io import copy_doc, scenario_from_dict
from plumetrack.sensing import SensorRig
from plumetrack.vessel import VesselParams

GAINS = GuidanceGains(c0=50.0, k=1.2, k1=5.0, k2=11.0, v_d=1.5)
# no patrol: with x_r on the linearised level curve through x_hat and a
# still fluid the observer rate is zero, so a step exercises the status alone
QUIET = GuidanceGains(c0=50.0, k=1.2, k1=5.0, k2=11.0, v_d=0.0)


def status_step(g, c_hat, grad, z, t):
    """One guidance step that leaves x_hat where it is."""
    grad = np.asarray(grad, dtype=float)
    gg = float(grad @ grad)
    x_r = g.xhat + (c_hat - QUIET.c0) / gg * grad if gg else g.xhat
    g2, _ = step(g, QUIET, SIGN_PDE, x_r, z, z, c_hat, grad, 0.0, (0, 0),
                 0.05, t)
    assert np.array_equal(g2.xhat, g.xhat)
    return g2


def static_scenario(pose, duration=30.0, peak=60.0, sigma=18.0, c0=50.0):
    blob = FrozenGaussian(peak=peak, sigma=sigma, center=(0.0, 0.0),
                          flow=FlowField.uniform((0.0, 0.0)))
    return SIM.Scenario(
        name="static", seed=0, duration=duration, control_period=0.05,
        physics_substep=0.05, sign_convention=SIGN_PDE, tracked_point="head",
        flow_noise_sigma=0.0, field0=blob, rig=SensorRig.cross(0.75),
        noise_sigma=0.0, noise_floor=0.01, noise_range_max=10000.0,
        noise_seed=None, params=VesselParams(), start_pose=pose,
        gains=GuidanceGains(c0=c0, k=1.2, k1=5.0, k2=11.0, v_d=1.5))


class TestNormalFeedforward:
    def test_still_fluid_no_curvature(self):
        for mode in (SIGN_PDE, SIGN_OPPOSED):
            nf = normal_feedforward((2, 1), 0.0, (0, 0), 0.0, mode)
            assert np.allclose(nf, 0.0)

    def test_pure_advection_modes(self):
        # a translating level set moves with the flow under the derived sign
        nf = normal_feedforward((2, 0), 0.0, (1, 0), 0.0, SIGN_PDE)
        assert np.allclose(nf, [1.0, 0.0])
        nf = normal_feedforward((2, 0), 0.0, (1, 0), 0.0, SIGN_OPPOSED)
        assert np.allclose(nf, [-1.0, 0.0])

    def test_modes_differ_only_in_advection_sign(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.uniform(-3, 3, 2)
            if np.hypot(*g) < 0.1:
                continue
            lap, v, k = rng.uniform(-2, 2), rng.uniform(-1, 1, 2), 1.2
            a = normal_feedforward(g, lap, v, k, SIGN_PDE)
            b = normal_feedforward(g, lap, v, k, SIGN_OPPOSED)
            adv = float(v @ g) / float(g @ g) * g
            assert np.allclose(a - b, 2 * adv, atol=1e-12)

    def test_zero_gradient_raises(self):
        with pytest.raises(DegenerateGradientError):
            normal_feedforward((0, 0), 1.0, (1, 0), 1.2, SIGN_PDE)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            normal_feedforward((1, 0), 0.0, (0, 0), 0.0, "bogus")


class TestObserver:
    def test_tangential_only(self):
        g = init((0, 0))
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=1.5)
        g2, _ = step(g, gains, SIGN_PDE, (0, 0), (0, 0), (0, 0), 50.0, (1, 0),
                     0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(g2.xhat, [0.0, 0.15], atol=1e-15)

    def test_measurement_correction(self):
        g = init((0, 0))
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=0.0)
        g2, _ = step(g, gains, SIGN_PDE, (0, 0), (0, 0), (0, 0), 51.0, (1, 0),
                     0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(g2.xhat, [-0.5, 0.0], atol=1e-15)

    def test_degenerate_gradient_holds_estimate(self):
        g = init((3, -2))
        g2, _ = step(g, GAINS, SIGN_PDE, (3, -2), (3, -2), (3, -2), 50.0,
                     (0, 0), 0.0, (0, 0), 0.1, 0.0)
        assert np.array_equal(g2.xhat, g.xhat)
        assert g2.status == G.STATUS_DEGENERATE

    def test_fixed_point(self):
        # on-curve, still fluid, no patrol: observer is the identity
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=0.0)
        g = init((1.0, 2.0))
        g2, u = step(g, gains, SIGN_PDE, (1.0, 2.0), (1.5, 2.0), (1.5, 2.0),
                     50.0, (0.7, 0.2), 0.0, (0, 0), 0.05, 0.0)
        assert np.allclose(g2.xhat, g.xhat, atol=1e-15)
        assert np.allclose(u, -11.0 * np.array([0.5, 0.0]), atol=1e-12)

    def test_init_examples(self):
        assert np.array_equal(init((0, 0)).xhat, [0, 0])
        assert np.array_equal(init((3, -2)).xhat, [3, -2])
        assert init((0, 0)).status == G.STATUS_SEEKING

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            step(init((0, 0)), GAINS, SIGN_PDE, (0, 0), (0, 0), (0, 0),
                 math.nan, (1, 0), 0.0, (0, 0), 0.1, 0.0)
        with pytest.raises(ValueError):
            step(init((0, 0)), GAINS, SIGN_PDE, (0, 0), (0, 0), (0, 0), 50.0,
                 (1, 0), 0.0, (math.nan, 0.0), 0.1, 0.0)

    def test_nonfinite_control_raises(self):
        # an observer that has already diverged yields no finite command
        g = init((1e308, 0.0))
        with pytest.raises(NonFiniteError, match="control"), \
                np.errstate(over="ignore", invalid="ignore"):
            step(g, GAINS, SIGN_PDE, (0, 0), (0, 0), (0, 0), 50.0, (1, 0),
                 0.0, (0, 0), 0.1, 0.0)

    def test_control_uses_updated_estimate(self):
        # x_hat moves to (-0.5, 0) first; the correction and the pull then
        # act on it: u = -5 * 0.5 * (1, 0) - 11 * (0.5, 0) = (-8, 0).  The
        # pre-update x_hat would give (-5, 0).
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=0.0)
        g2, u = step(init((0, 0)), gains, SIGN_PDE, (0, 0), (0, 0), (0, 0),
                     51.0, (1, 0), 0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(g2.xhat, [-0.5, 0.0], atol=1e-15)
        assert np.allclose(u, [-8.0, 0.0], atol=1e-12)

    def test_status_measures_head_point_not_driven_point(self):
        # the control drives the hull centre, the status watches the head
        g = init((0, 0))
        far, near = (5.0, 0.0), (0.0, 0.0)
        for t in (0.0, 2.0):
            g, u = step(g, QUIET, SIGN_PDE, (0, 0), far, near, 50.0, (1, 0),
                        0.0, (0, 0), 0.05, t)
        assert np.allclose(u, 0.0)
        assert g.status == G.STATUS_SEEKING


class TestControl:
    def test_patrol_only(self):
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=1.5)
        # x_hat starts one patrol step behind z, so the update lands on z
        g = init((0, -0.15))
        _, u = step(g, gains, SIGN_PDE, (0, 0), (0, 0), (0, 0), 50.0, (1, 0),
                    0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(u, [0.0, 1.5], atol=1e-15)

    def test_pure_tracking_term(self):
        gains = GuidanceGains(c0=50, k=0.0, k1=5, k2=11, v_d=0.0)
        g = init((0, 0))
        _, u = step(g, gains, SIGN_PDE, (0, 0), (1.0, 0.0), (1.0, 0.0), 50.0,
                    (1, 0), 0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(u, [-11.0, 0.0], atol=1e-12)

    def test_degenerate_fallback_is_pure_tracking(self):
        g = init((0, 0))
        _, u = step(g, GAINS, SIGN_PDE, (0, 0), (2.0, -1.0), (2.0, -1.0),
                    50.0, (0, 0), 0.0, (0, 0), 0.1, 0.0)
        assert np.allclose(u, [-22.0, 11.0])

    def test_rotation_preserves_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = rng.uniform(-5, 5, 2)
            assert np.hypot(*(G.ROT90 @ g)) == pytest.approx(np.hypot(*g),
                                                             rel=1e-15)

    def test_tangential_orthogonal_and_normed(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            g = rng.uniform(-5, 5, 2)
            if np.hypot(*g) < GAINS.grad_floor:
                continue
            tan = tangential(g, 1.5)
            assert abs(float(tan @ g)) < 1e-12 * np.hypot(*g)
            assert np.hypot(*tan) == pytest.approx(1.5, abs=1e-12)


class TestStatus:
    def test_promotion_needs_sustained_band(self):
        g = init((0, 0))
        z = (0.1, 0.0)
        for i, t in enumerate(np.arange(0, 2.0, 0.05)):
            g = status_step(g, 50.0, (1, 0), z, float(t))
            if t < 2.0:
                assert g.status == G.STATUS_SEEKING
        g = status_step(g, 50.0, (1, 0), z, 2.0)
        assert g.status == G.STATUS_TRACKING

    def test_band_break_resets_window(self):
        g = init((0, 0))
        g = status_step(g, 50.0, (1, 0), (0.1, 0), 0.0)
        g = status_step(g, 50.0, (1, 0), (0.1, 0), 1.0)
        g = status_step(g, 80.0, (1, 0), (0.1, 0), 1.5)
        g = status_step(g, 50.0, (1, 0), (0.1, 0), 2.5)
        assert g.status == G.STATUS_SEEKING
        g = status_step(g, 50.0, (1, 0), (0.1, 0), 4.5)
        assert g.status == G.STATUS_TRACKING

    def test_tracking_is_sticky_and_degeneracy_reports(self):
        g = init((0, 0))
        g = status_step(g, 50.0, (1, 0), (0.1, 0), 0.0)
        g = status_step(g, 50.0, (1, 0), (0.1, 0), 2.0)
        assert g.status == G.STATUS_TRACKING
        g = status_step(g, 50.0, (0, 0), (0.1, 0), 2.05)
        assert g.status == G.STATUS_DEGENERATE
        g = status_step(g, 50.0, (1, 0), (0.1, 0), 2.10)
        assert g.status == G.STATUS_TRACKING


class TestClosedLoop:
    def test_clockwise_circulation_for_inward_gradient(self):
        # radially decreasing field: gradient points at the maximum, the
        # patrol term circulates the vessel clockwise around it
        sc = static_scenario((10.87, 0.5, -math.pi / 2), duration=20.0)
        log = SIM.run(sc)
        center = np.zeros(2)
        p = log.z - center
        steps = np.diff(log.z, axis=0)
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
            resid = np.abs(log.ctrue - 50.0)
            w, i5 = 40, 100                     # 2 s window, start at 5 s
            env = np.array([resid[j:j + w].max()
                            for j in range(i5, len(resid) - w)])
            assert np.all(np.diff(env) <= 1e-3)

    def test_scaling_consistency(self, case1_doc):
        # field * s, c0 * s, k1 / s^2 leaves the trajectory unchanged
        s = 7.5
        base = copy_doc(case1_doc)
        base["duration"] = 10.0
        scaled = copy_doc(base)
        scaled["field"]["emission_rate"] *= s
        for puff in scaled["field"]["seed_puffs"]:
            puff["strength"] *= s
        scaled["gains"]["c0"] *= s
        scaled["gains"]["k1"] /= s * s
        log_a = SIM.run(scenario_from_dict(base))
        log_b = SIM.run(scenario_from_dict(scaled))
        assert np.abs(log_a.z - log_b.z).max() < 1e-8
        assert np.abs(log_a.xhat - log_b.xhat).max() < 1e-8
