import copy
import dataclasses
import math
import pickle
import struct
import sys

import numpy as np
import pytest

from plumetrack.sensing import (
    DegenerateStencilError, NoiseModel, RigEstimator, SensorRig, _condition,
    design_matrix, world_positions)

from conftest import rotation

# the rotation of heading 0, under which body axes are world axes
HEADING_0 = rotation(0.0)


def quad_field(g, H, c0):
    """Quadratic c(x) = c0 + g.x + 0.5 x'Hx as a readings function."""
    g = np.asarray(g, float)
    H = np.asarray(H, float)

    def f(points):
        pts = np.atleast_2d(np.asarray(points, float))
        return (c0 + pts @ g
                + 0.5 * np.einsum("ni,ij,nj->n", pts, H, pts))
    return f


def rotated(rig: SensorRig, theta: float) -> SensorRig:
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return SensorRig(np.array(rig.offsets) @ rot.T)


def brute_force_quadratic_fit(f, x_r, span=1.0, n=7):
    """Oracle: dense least-squares quadratic fit around x_r; returns the
    gradient of the fitted surface at x_r."""
    offs = np.linspace(-span, span, n)
    pts = np.array([(x_r[0] + a, x_r[1] + b) for a in offs for b in offs])
    d = pts - np.asarray(x_r, float)
    A = np.column_stack([np.ones(len(d)), d[:, 0], d[:, 1],
                         d[:, 0] ** 2, d[:, 0] * d[:, 1], d[:, 1] ** 2])
    coef, *_ = np.linalg.lstsq(A, f(pts), rcond=None)
    return coef[1:3]


class TestWorldPositions:
    def test_identity_pose(self):
        wp = world_positions(SensorRig.cross(0.75), 0, 0, *HEADING_0)
        assert np.allclose(wp, [[0.75, 0], [-0.75, 0], [0, 0.75], [0, -0.75]])

    def test_quarter_turn(self):
        wp = world_positions(SensorRig.cross(0.75), 0, 0,
                             *rotation(math.pi / 2))
        assert np.allclose(wp, [[0, 0.75], [0, -0.75], [-0.75, 0], [0.75, 0]],
                           atol=1e-15)

    def test_translation(self):
        rig = SensorRig.cross(0.75)
        wp = world_positions(rig, 5, 5, *HEADING_0)
        assert np.allclose(wp, np.array(rig.offsets) + [5, 5])

    def test_unrolled_is_the_loop_bit_for_bit(self):
        # the per-offset loop that world_positions once ran
        def looped(rig, x, y, c, s):
            return tuple([(x + (ox * c + oy * -s), y + (ox * s + oy * c))
                          for ox, oy in rig.offsets])

        def bits(points):
            return struct.pack("8d", *(v for p in points for v in p))

        big = sys.float_info.max
        rng = np.random.default_rng(34)
        rigs = [SensorRig.cross(), SensorRig.uneven_cross(),
                SensorRig(((1.0, -0.0), (-1.0, 0.0), (-0.0, 2.0),
                           (0.0, -2.0))),
                SensorRig.cross(1e150)]
        for _ in range(20):
            a = rng.normal(0, 2, (4, 2))
            rigs.append(SensorRig(a - a.mean(axis=0)))
        specials = [0.0, -0.0, 1.0, -1.0, big, -big]
        rotations = [(1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, -1.0),
                     *map(rotation, rng.uniform(-4, 4, 6))]
        poses = [(x, y) for x in specials for y in specials]
        poses += rng.normal(0, 100, (200, 2)).tolist()
        for rig in rigs:
            for x, y in poses:
                for c, s in rotations:
                    assert (bits(world_positions(rig, x, y, c, s))
                            == bits(looped(rig, x, y, c, s))), (x, y, c, s)


class TestRigValidation:
    def test_wrong_count(self):
        with pytest.raises(ValueError):
            SensorRig(np.array([[1, 0], [-1, 0], [0, 1]]))

    def test_nonzero_mean(self):
        with pytest.raises(ValueError):
            SensorRig(np.array([[1, 0], [1, 0], [0, 1], [0, -1]]))

    def test_collinear(self):
        with pytest.raises(ValueError):
            SensorRig(np.array([[1, 0], [-1, 0], [0.5, 0], [-0.5, 0]]))

    def test_offsets_are_the_rigs_read_only_copy(self):
        with pytest.raises(TypeError):
            SensorRig.cross().offsets[0][0] = 1.5
        # writing into the caller's array leaves the rig as it was built
        given = np.array(SensorRig.cross().offsets)
        rig = SensorRig(given)
        given[0, 0], given[1, 0] = 1.5, -1.5
        stock, pose = SensorRig.cross(), (0.0, 0.0, *HEADING_0)
        assert rig == stock
        assert world_positions(rig, *pose) == world_positions(stock, *pose)
        for copied in (copy.deepcopy(stock), pickle.loads(pickle.dumps(stock))):
            assert copied == stock and hash(copied) == hash(stock)
            with pytest.raises(TypeError):
                copied.offsets[0][0] = 1.5

    def test_equal_rigs_compare_and_hash_equal(self):
        a, b = SensorRig.cross(), SensorRig([[0.75, 0], [-0.75, 0],
                                             [0, 0.75], [0, -0.75]])
        assert a == b and hash(a) == hash(b)
        assert a != SensorRig.uneven_cross()
        assert a.offsets == ((0.75, 0.0), (-0.75, 0.0), (0.0, 0.75),
                             (0.0, -0.75))
        assert all(type(v) is float for pair in b.offsets for v in pair)


RNG = np.random.default_rng


def clip_read(noise, c, rng):
    """``NoiseModel.read`` as first written, on arrays."""
    g = rng.standard_normal(len(c))
    readings = np.clip(c + noise.sigma * g, 0.0, noise.range_max)
    readings[readings < noise.floor] = 0.0
    return readings


class TestNoise:
    def test_noiseless_passthrough(self):
        readings = NoiseModel(sigma=0.0).read(
            np.full(4, 5.0), RNG().standard_normal(4).tolist())
        assert readings == [5.0] * 4

    def test_detection_floor(self):
        readings = NoiseModel(sigma=0.0).read(
            np.full(4, 0.005), RNG().standard_normal(4).tolist())
        assert readings == [0.0] * 4

    def test_range_clamp(self):
        readings = NoiseModel(sigma=0.0).read(
            np.full(4, 2e4), RNG().standard_normal(4).tolist())
        assert readings == [10000.0] * 4

    def test_seeded_reproducibility_and_draw_order(self):
        noise = NoiseModel(sigma=2.0, seed=9)
        r1 = noise.read(np.full(4, 50.0),
                        RNG(noise.seed).standard_normal(4).tolist())
        r2 = noise.read(np.full(4, 50.0),
                        RNG(noise.seed).standard_normal(4).tolist())
        assert np.array_equal(r1, r2)
        # one draw per sensor per call, in sensor order
        expected = np.clip(
            50.0 + 2.0 * np.random.default_rng(9).standard_normal(4),
            0.0, 10000.0)
        assert np.array_equal(r1, expected)

    def test_plain_frozen_configuration(self):
        noise = NoiseModel(sigma=2.0)
        assert noise.seed is None          # the run's seed
        assert not hasattr(noise, "rng")
        with pytest.raises(dataclasses.FrozenInstanceError):
            noise.sigma = 1.0

    @pytest.mark.parametrize("settings", [
        {"sigma": -1.0}, {"floor": -0.01}, {"floor": 5.0, "range_max": 5.0}])
    def test_invalid_settings_rejected(self, settings):
        with pytest.raises(ValueError, match="range_max"):
            NoiseModel(**settings)

    @pytest.mark.parametrize("noise", [
        NoiseModel(sigma=0.0), NoiseModel(sigma=2.0),
        NoiseModel(sigma=0.0, floor=0.0),
        NoiseModel(sigma=0.5, floor=0.0, range_max=50.0)])
    def test_float_read_matches_clip_form(self, noise):
        # NaN, negative and signed-zero, below, at and above the floor,
        # at and over the range
        edges = [math.nan, -1.0, -0.0, 0.0, 0.005, 0.01, 0.01 + 1e-18,
                 5.0, 49.9999, 50.0, 1e4, 2e4, math.inf, -math.inf]
        pick = RNG(4)
        for seed in range(40):
            c = pick.choice(edges, 4)
            got = noise.read(c.tolist(), RNG(seed).standard_normal(4).tolist())
            assert all(type(r) is float for r in got)
            want = clip_read(noise, c, RNG(seed))
            assert np.array(got).tobytes() == want.tobytes(), (c, seed)

    def test_stream_advances_even_at_zero_sigma(self):
        rng = RNG(9)
        NoiseModel(sigma=0.0).read(np.full(4, 5.0),
                                   rng.standard_normal(4).tolist())
        follow = rng.standard_normal(4)
        fresh = np.random.default_rng(9).standard_normal(8)[4:]
        assert np.array_equal(follow, fresh)


class TestEstimator:
    def test_linear_field_example(self):
        # c = 2x + 3y + 5 on the d = 0.5 cross at the origin
        rig = SensorRig.cross(0.5)
        pos = np.asarray(world_positions(rig, 0, 0, *HEADING_0))
        readings = 2 * pos[:, 0] + 3 * pos[:, 1] + 5
        assert np.allclose(readings, [6.0, 4.0, 6.5, 3.5])
        c_hat, gx, gy, lap = RigEstimator.for_offsets(pos).estimate(
            readings, *HEADING_0)
        assert c_hat == pytest.approx(5.0)
        assert np.allclose((gx, gy), [2.0, 3.0], atol=1e-12)
        assert lap == pytest.approx(0.0, abs=1e-12)

    def test_linear_field_example_vs_explicit_pseudoinverse(self):
        rig = SensorRig.cross(0.5)
        pos = world_positions(rig, 0, 0, *HEADING_0)
        readings = np.array([6.0, 4.0, 6.5, 3.5])
        B = np.array(design_matrix(pos))
        y = readings - readings.mean()
        gamma = B.T @ np.linalg.solve(B @ B.T, y)
        est = RigEstimator.for_offsets(pos).estimate(readings, *HEADING_0)
        assert np.allclose(est[1:],
                           [*gamma[:2], gamma[2] + gamma[5]], atol=1e-12)
        # at heading 0 the body frame is the world frame
        assert np.allclose(RigEstimator.for_offsets(rig.offsets).pinv @ y,
                           gamma, atol=1e-12)

    def test_constant_field(self):
        pos = SensorRig.cross().offsets
        c_hat, gx, gy, lap = RigEstimator.for_offsets(pos).estimate(
            np.full(4, 7.0), *HEADING_0)
        assert c_hat == 7.0
        assert np.all(np.asarray((gx, gy)) == 0.0)
        assert lap == 0.0

    def test_quadratic_bowl_trace_blind(self):
        # c = x^2 + y^2 on the unit cross: all readings 1, so the
        # mean-referenced system sees nothing (true Laplacian is 4)
        pos = np.array(SensorRig.cross(1.0).offsets)
        readings = pos[:, 0] ** 2 + pos[:, 1] ** 2
        assert np.all(readings == 1.0)
        _, gx, gy, lap = RigEstimator.for_offsets(pos).estimate(
            readings, *HEADING_0)
        assert np.allclose((gx, gy), 0.0, atol=1e-14)
        assert lap == pytest.approx(0.0, abs=1e-14)

    def test_affine_exactness_on_shipped_rigs(self):
        rng = np.random.default_rng(10)
        rigs = [SensorRig.cross(0.75), SensorRig.uneven_cross(),
                rotated(SensorRig.cross(0.6), 0.77),
                rotated(SensorRig.uneven_cross(0.9, 0.3), 2.1)]
        for rig in rigs:
            for _ in range(20):
                g = rng.uniform(-5, 5, 2)
                readings = np.array(rig.offsets) @ g + rng.uniform(1, 100)
                _, gx, gy, _ = RigEstimator.for_offsets(rig.offsets).estimate(
                    readings, *HEADING_0)
                scale = max(1.0, np.abs(g).max())
                assert np.abs((gx, gy) - g).max() / scale < 1e-9

    def test_mean_identity_and_zero_sum(self):
        rng = np.random.default_rng(11)
        pos = SensorRig.cross().offsets
        for _ in range(100):
            readings = rng.uniform(0, 1000, 4)
            c_hat = RigEstimator.for_offsets(pos).estimate(
                readings, *HEADING_0)[0]
            assert c_hat == readings.mean()
            y = readings - c_hat
            assert abs(y.sum()) <= 1e-12 * max(1.0, readings.max())

    def test_trace_blindness_on_symmetric_rigs(self):
        rng = np.random.default_rng(12)
        rigs = [SensorRig.cross(0.75), rotated(SensorRig.cross(1.2), 0.9)]
        for i in range(200):
            rig = rigs[i % 2]
            readings = rng.uniform(0, 200, 4)
            lap = RigEstimator.for_offsets(rig.offsets).estimate(
                readings, *HEADING_0)[3]
            assert abs(lap) <= 1e-10 * max(1.0, readings.max())

    def test_uneven_cross_sees_nonzero_trace(self):
        # c = x^2: readings (d1^2, d1^2, 0, 0); closed-form minimum-norm
        # solution gives trace (y1+y2)/d1^2 + (y3+y4)/d2^2
        d1, d2 = 0.75, 0.45
        rig = SensorRig.uneven_cross(d1, d2)
        readings = np.array(rig.offsets)[:, 0] ** 2
        lap = RigEstimator.for_offsets(rig.offsets).estimate(
            readings, *HEADING_0)[3]
        y = readings - readings.mean()
        expected = (y[0] + y[1]) / d1 ** 2 + (y[2] + y[3]) / d2 ** 2
        assert lap == pytest.approx(expected, rel=1e-12)
        assert abs(lap) > 0.1

    def test_quadratic_gradient_vs_brute_force_fit(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            g = rng.uniform(-4, 4, 2)
            H = rng.uniform(-2, 2, (2, 2))
            H = 0.5 * (H + H.T)
            f = quad_field(g, H, rng.uniform(10, 80))
            x_r = rng.uniform(-5, 5, 2)
            rig = rotated(SensorRig.cross(0.75), rng.uniform(0, math.pi))
            pos = np.array(rig.offsets) + x_r
            _, gx, gy, _ = RigEstimator.for_offsets(pos).estimate(
                f(pos), *HEADING_0)
            true_grad = g + np.asarray(H) @ x_r
            oracle = brute_force_quadratic_fit(f, x_r)
            assert np.abs(oracle - true_grad).max() < 1e-8
            scale = max(1.0, np.abs(true_grad).max())
            assert np.abs((gx, gy) - true_grad).max() / scale < 1e-9

    def test_rotation_equivariance_on_quadratics(self):
        rng = np.random.default_rng(14)
        g = np.array([1.3, -0.6])
        H = np.array([[0.8, 0.2], [0.2, -1.1]])
        f = quad_field(g, H, 30.0)
        x_r = np.array([2.0, -1.0])
        base = SensorRig.cross(0.75)
        pos = np.array(base.offsets) + x_r
        est0 = RigEstimator.for_offsets(pos).estimate(f(pos), *HEADING_0)
        for alpha in rng.uniform(0, 2 * math.pi, 5):
            pos = np.array(rotated(base, alpha).offsets) + x_r
            est = RigEstimator.for_offsets(pos).estimate(f(pos), *HEADING_0)
            assert np.abs(np.asarray(est[1:3])
                          - np.asarray(est0[1:3])).max() < 1e-9

    def test_degenerate_stencil_raises(self):
        pos = np.array([[1.0, 0], [-1.0, 0], [0.0, 1e-8], [0.0, -1e-8]])
        with pytest.raises(DegenerateStencilError):
            RigEstimator.for_offsets(pos).estimate(
                np.array([1.0, 2.0, 3.0, 4.0]), *HEADING_0)


class TestRigEstimator:
    def test_matches_general_estimator_at_any_heading(self):
        from plumetrack.validate import _rigs_for_checks
        rng = np.random.default_rng(15)
        for rig in _rigs_for_checks():
            per_rig = RigEstimator.for_offsets(rig.offsets)
            for theta in rng.uniform(-math.pi, math.pi, 2000):
                x, y = rng.uniform(-50, 50, 2)
                readings = rng.uniform(0, 100, 4)
                positions = world_positions(rig, x, y, *rotation(theta))
                ref = RigEstimator.for_offsets(positions).estimate(
                    readings, *HEADING_0)
                est = per_rig.estimate(readings, *rotation(theta))
                want = np.array(ref[1:])
                got = np.array(est[1:])
                # relative to the whole world-frame solution, Hessian
                # entries included: the reference solves positions 50 m
                # out, whose centring rounds at that scale
                B = np.array(design_matrix(positions))
                gamma = np.linalg.pinv(B) @ (readings - ref[0])
                scale = max(1.0, float(np.abs(gamma).max()))
                assert np.abs(got - want).max() / scale < 1e-12
                assert est[0] == ref[0]
                assert per_rig.condition == pytest.approx(
                    np.linalg.cond(B @ B.T), rel=1e-9)

    def test_agreement_check_catches_a_wrong_rotation(self, monkeypatch):
        from plumetrack.validate import check_pseudoinverse_agreement
        right = RigEstimator.estimate
        # R(-theta) = R^T rotates the body-frame gradient the wrong way
        monkeypatch.setattr(RigEstimator, "estimate",
                            lambda self, readings, c, s:
                            right(self, readings, c, -s))
        ok, detail = check_pseudoinverse_agreement()
        assert not ok, detail

    def test_equal_rigs_give_equal_estimators(self):
        a, b = (RigEstimator.for_offsets(SensorRig.cross().offsets)
                for _ in range(2))
        assert a == b and hash(a) == hash(b)
        assert a != RigEstimator.for_offsets(SensorRig.uneven_cross().offsets)

    def test_degenerate_rig_rejected_once(self):
        rig = SensorRig(np.array([[1.0, 0], [-1.0, 0], [0.0, 1e-8],
                                  [0.0, -1e-8]]))
        with pytest.raises(DegenerateStencilError):
            RigEstimator.for_offsets(rig.offsets)

    def test_condition_taken_without_lapack(self, monkeypatch):
        rigs = (SensorRig.cross(), SensorRig.uneven_cross(0.9, 0.2))
        want = [np.linalg.cond(np.array(design_matrix(r.offsets))
                               @ np.array(design_matrix(r.offsets)).T)
                for r in rigs]

        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np.linalg, "cond", no_lapack)
        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        for rig, cond in zip(rigs, want):
            assert RigEstimator.for_offsets(rig.offsets).condition == \
                pytest.approx(cond, rel=1e-12)
        with pytest.raises(DegenerateStencilError):
            RigEstimator.for_offsets([[1.0, 0], [-1.0, 0], [0.0, 1e-8],
                                      [0.0, -1e-8]])


class TestCondition:
    def test_diagonal_is_its_ratio(self):
        assert _condition([[4.0, 0.0], [0.0, 0.5]]) == 8.0

    def test_rotated_diagonal(self):
        c, s = math.cos(0.3), math.sin(0.3)
        r = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        a = r @ np.diag([9.0, 1.0, 3.0]) @ r.T
        assert _condition(a.tolist()) == pytest.approx(9.0, rel=1e-14)

    @pytest.mark.parametrize("a", [
        [[1.0, 1.0], [1.0, 1.0]],                  # singular
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, -1e-3]],                # indefinite
        [[1e308, 0.0], [0.0, 1e-308]]])            # the ratio overflows
    def test_no_finite_ratio_is_inf(self, a):
        assert _condition(a) == math.inf

    def test_matches_lapack_on_random_spd(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            m = rng.normal(size=(4, 6)) * rng.uniform(0.1, 10, (1, 6))
            a = m @ m.T
            assert _condition(a.tolist()) == pytest.approx(
                np.linalg.cond(a), rel=1e-9)
