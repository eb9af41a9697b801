import math
import struct
import sys

import numpy as np
import pytest

from plumetrack.vessel import (
    VesselParams, head_point, input_matrix, normalize_heading, step,
    to_actuators)

from conftest import rotation


def angle_diff(a, b):
    return abs(normalize_heading(a - b))


class TestHeadPoint:
    def test_examples(self):
        assert np.allclose(head_point(0, 0, *rotation(0), 1.0), [1, 0])
        assert np.allclose(head_point(2, 3, *rotation(math.pi / 2), 0.5),
                           [2, 3.5])
        assert np.allclose(head_point(1, 1, *rotation(math.pi), 1.0), [0, 1])

    def test_offset_must_be_positive(self):
        with pytest.raises(ValueError):
            head_point(0, 0, *rotation(0), 0.0)
        with pytest.raises(ValueError):
            VesselParams(offset=-1.0)


class TestTransform:
    def test_examples(self):
        nu, omega, sat = to_actuators((1, 0), *rotation(0.0),
                                      VesselParams(offset=1.0))
        assert (nu, omega) == pytest.approx((1.0, 0.0), abs=1e-15)
        assert not sat
        nu, omega, _ = to_actuators((0, 1), *rotation(0.0),
                                    VesselParams(offset=2.0))
        assert (nu, omega) == pytest.approx((0.0, 0.5), abs=1e-15)
        nu, omega, _ = to_actuators((0, 1), *rotation(math.pi / 2),
                                    VesselParams(offset=1.0))
        assert nu == pytest.approx(1.0, abs=1e-15)
        assert omega == pytest.approx(0.0, abs=1e-15)

    def test_examples_forward_verified(self):
        # independent check: C (nu, omega)^T must reproduce u
        for theta, l0, u in ((0.0, 2.0, (0, 1)), (math.pi / 2, 1.0, (0, 1)),
                             (0.7, 0.4, (0.3, -0.8))):
            params = VesselParams(offset=l0, nu_max=50.0, omega_max=50.0)
            nu, omega, sat = to_actuators(u, *rotation(theta), params)
            assert not sat
            back = input_matrix(theta, l0) @ [nu, omega]
            assert np.abs(back - np.asarray(u, float)).max() < 1e-12

    def test_exact_inverse_property(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            theta = rng.uniform(-math.pi, math.pi)
            l0 = rng.uniform(1e-3, 10.0)
            # C^-1 column by column, as to_actuators applies it
            params = VesselParams(offset=l0, nu_max=1e6, omega_max=1e6)
            inverse = np.column_stack(
                [to_actuators(e, *rotation(theta), params)[:2]
                 for e in ((1, 0), (0, 1))])
            err = np.abs(input_matrix(theta, l0) @ inverse - np.eye(2)).max()
            assert err < 1e-12

    def test_roundtrip_when_unsaturated(self):
        rng = np.random.default_rng(2)
        params = VesselParams(offset=0.5, nu_max=100.0, omega_max=100.0)
        for _ in range(500):
            theta = rng.uniform(-math.pi, math.pi)
            u = rng.uniform(-2, 2, size=2)
            nu, omega, sat = to_actuators(u, *rotation(theta), params)
            assert not sat
            back = input_matrix(theta, params.offset) @ [nu, omega]
            assert np.abs(back - u).max() < 1e-12

    def test_saturation_flag_and_clamp(self):
        params = VesselParams(offset=0.5, nu_max=2.0, omega_max=1.5)
        nu, _, sat = to_actuators((50, 0), *rotation(0.0), params)
        assert sat and nu == 2.0
        _, omega, sat = to_actuators((0, -50), *rotation(0.0), params)
        assert sat and omega == -1.5

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            to_actuators((math.nan, 0), *rotation(0.0), VesselParams())

    def test_clip_is_the_builtin_clip_bit_for_bit(self):
        # the clip as min(max(v, -lim), lim), which to_actuators once called
        def builtin_clip(u, c, s, params):
            ux, uy = u
            l0 = params.offset
            nu_raw = c * ux + s * uy
            omega_raw = -s / l0 * ux + c / l0 * uy
            nu = min(max(nu_raw, -params.nu_max), params.nu_max)
            omega = min(max(omega_raw, -params.omega_max), params.omega_max)
            return nu, omega, nu != nu_raw or omega != omega_raw

        def bits(result):
            return struct.pack("2d?", *result)

        big = sys.float_info.max
        rng = np.random.default_rng(33)
        # l0 = 1e-300 makes omega_raw inf, or NaN where 0 * inf meets it
        for params in (VesselParams(), VesselParams(0.25, 0.7, 3.0),
                       VesselParams(1e-300, big, big)):
            specials = [0.0, -0.0, big, -big, params.nu_max, -params.nu_max,
                        params.omega_max * params.offset,
                        -params.omega_max * params.offset, 1.0, -1.0]
            rotations = [(1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, -1.0),
                         *map(rotation, rng.uniform(-4, 4, 6))]
            # every special command under every rotation, then random ones
            cases = [((a, b), r) for a in specials for b in specials
                     for r in rotations]
            cases += [(u, rotations[i % len(rotations)]) for i, u in
                      enumerate(rng.normal(0, 3, (2000, 2)).tolist())]
            for u, (c, s) in cases:
                assert (bits(to_actuators(u, c, s, params))
                        == bits(builtin_clip(u, c, s, params))), (u, c, s)


class TestStep:
    def test_straight_line(self):
        x, y, heading = step(0, 0, 0, 1, 0, 2.0)
        assert (x, y) == pytest.approx((2.0, 0.0), abs=1e-12)
        assert heading == 0.0

    def test_pure_rotation(self):
        x, y, heading = step(0, 0, 0, 0, 1, math.pi)
        assert (x, y) == (0.0, 0.0)
        assert angle_diff(heading, math.pi) < 1e-12

    def test_circle_closure(self):
        # nu = omega = 1 over 2 pi returns to the start pose
        x, y, heading = step(0, 0, 0, 1, 1, 2 * math.pi)
        assert math.hypot(x, y) < 1e-6
        assert angle_diff(heading, 0.0) < 1e-6

    def test_circle_closure_stepped_at_control_rate(self):
        x, y, heading = 0, 0, 0
        n = int(round(2 * math.pi / 0.05))
        dt = 2 * math.pi / n
        for _ in range(n):
            x, y, heading = step(x, y, heading, 1, 1, dt)
        assert math.hypot(x, y) < 1e-6

    def test_heading_stays_normalized(self):
        pose = (0, 0, 3.0)
        for _ in range(40):
            pose = step(*pose, 0.5, 1.2, 0.3)
            assert -math.pi < pose[2] <= math.pi

    def test_arc_length_matches_speed(self):
        # chordal length along a finely stepped arc equals |nu| dt
        for nu, omega in ((1.0, 1.0), (-0.7, 0.9), (1.3, 0.0)):
            s = (0.3, -0.2, 0.8)
            length = 0.0
            h = 1e-4
            for _ in range(1000):
                s2 = step(*s, nu, omega, h)
                length += math.hypot(s2[0] - s[0], s2[1] - s[1])
                s = s2
            assert abs(length - abs(nu) * 0.1) < 1e-9

    def test_head_point_velocity_matches_input_map(self):
        # finite differences of z along the trajectory match C (nu, omega)
        l0, cmd = 0.5, (0.8, 0.6)
        dt = 1e-3
        s0 = (0.0, 0.0, 0.4)
        s1 = step(*s0, *cmd, dt)
        s2 = step(*s1, *cmd, dt)

        def z(x, y, theta):
            return np.asarray(head_point(x, y, *rotation(theta), l0))

        z_dot = (z(*s2) - z(*s0)) / (2 * dt)
        expected = input_matrix(s1[2], l0) @ cmd
        assert np.abs(z_dot - expected).max() < 5e-6  # O(dt^2)

    def test_arc_continuous_at_zero_turn_rate(self):
        # the sinc form has no cancellation: omega = 1e-12 lands within
        # 1e-9 m of the straight segment (nu/omega (sin - sin) is 6e-5 off)
        start = (0.3, -0.2, 0.8)
        a = step(*start, 1.0, 1e-12, 1.0)
        b = step(*start, 1.0, 0.0, 1.0)
        assert math.hypot(a[0] - b[0], a[1] - b[1]) < 1e-9

    def test_arc_ends_on_turning_circle(self):
        # closed form: centre at p + (nu/omega) n, end at angle theta + omega dt
        theta, nu, omega, dt = 0.8, 1.3, 0.7, 2.0
        x, y, _ = step(0.3, -0.2, theta, nu, omega, dt)
        r = nu / omega
        cx, cy = 0.3 - r * math.sin(theta), -0.2 + r * math.cos(theta)
        end = theta + omega * dt
        assert x == pytest.approx(cx + r * math.sin(end), abs=1e-12)
        assert y == pytest.approx(cy - r * math.cos(end), abs=1e-12)

    def test_zero_omega_preserves_heading_exactly(self):
        heading = step(1, 2, 0.7, 1.4, 0.0, 0.37)[2]
        assert heading == pytest.approx(0.7, abs=0.0)


class TestNormalizeHeading:
    def test_half_open_interval(self):
        assert normalize_heading(math.pi) == math.pi
        assert normalize_heading(-math.pi) == math.pi
        assert normalize_heading(3 * math.pi) == pytest.approx(math.pi)
        assert normalize_heading(0.0) == 0.0
        assert -math.pi < normalize_heading(123.456) <= math.pi
