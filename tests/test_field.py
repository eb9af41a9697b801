import math
import re

import numpy as np
import pytest

from plumetrack.field import (
    CULL_BOUND, DomainError, FlowField, FrozenGaussian, GaussianPuff,
    GridField, PuffPlume, PuffTimeError, StepSizeError, puff_concentration,
    puff_gradient, puff_laplacian)

STILL = FlowField.uniform((0.0, 0.0))


def unit_puff():
    # Q = 4 pi, k = 1: peak value exactly 1.0 at age tau = 1
    return GaussianPuff(0.0, (0.0, 0.0), 4.0 * math.pi, 1.0)


def at_point(f, x, t=0.0):
    """c of a field at one point through ``eval_many``; a grid ignores
    t."""
    return float(f.eval_many(np.asarray(x, dtype=float)[None, :], t)[0])


def padded_step(g, dt):
    """The grid step as first written: a padded copy, then
    c + dt (k lap - adv_x - adv_y) with upwind advection."""
    v = g.flow.at(g.time)
    h = g.cell_size
    p = np.pad(g.conc, 1, mode="wrap" if g.boundary == "periodic" else "edge")
    c = g.conc
    west, east = p[:-2, 1:-1], p[2:, 1:-1]
    south, north = p[1:-1, :-2], p[1:-1, 2:]
    adv_x = v[0] * ((c - west) if v[0] >= 0 else (east - c)) / h
    adv_y = v[1] * ((c - south) if v[1] >= 0 else (north - c)) / h
    lap = (east + west + north + south - 4.0 * c) / (h * h)
    return c + dt * (g.diffusion * lap - adv_x - adv_y)


def neighbourhoods(conc, boundary):
    """(5, nx, ny): each cell and its four neighbours, ghosts included."""
    p = np.pad(conc, 1, mode="wrap" if boundary == "periodic" else "edge")
    return np.stack((conc, p[:-2, 1:-1], p[2:, 1:-1], p[1:-1, :-2],
                     p[1:-1, 2:]))


def point_sample(g, x):
    """c at one point from a 1-D dot product of the bilinear weights with
    the point's 2 x 2 cell block."""
    pt = np.asarray(x, dtype=float).reshape(2)
    u = (pt - g.origin) / g.cell_size - 0.5
    i0, j0 = int(math.floor(u[0])), int(math.floor(u[1]))
    fx, fy = u[0] - i0, u[1] - j0
    c = g.conc
    w = np.array([(1 - fx) * (1 - fy), fx * (1 - fy),
                  (1 - fx) * fy, fx * fy])
    corners = np.array([c[i0, j0], c[i0 + 1, j0],
                        c[i0, j0 + 1], c[i0 + 1, j0 + 1]])
    return float(w @ corners)


# the four flow-sign quadrants, flow along each axis, and still water
GRID_FLOWS = ((0.6, 0.25), (-0.6, 0.25), (-0.6, -0.25), (0.6, -0.25),
              (0.7, 0.0), (0.0, -0.7), (0.0, 0.0))


class TestPuff:
    def test_peak_value(self):
        assert puff_concentration(unit_puff(), STILL, (0, 0), 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_distance_two(self):
        # exponent -r^2/(4 k tau) = -1
        c = puff_concentration(unit_puff(), STILL, (2, 0), 1.0)
        assert c == pytest.approx(math.exp(-1), abs=1e-12)

    def test_advected_center(self):
        flow = FlowField.uniform((1.0, 0.0))
        assert puff_concentration(unit_puff(), flow, (1, 0), 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_time(self):
        with pytest.raises(PuffTimeError):
            puff_concentration(unit_puff(), STILL, (0, 0), 0.0)
        with pytest.raises(PuffTimeError):
            puff_concentration(unit_puff(), STILL, (0, 0), -1.0)

    def test_pde_residual_on_both_sides_of_a_flow_switch(self):
        from plumetrack.validate import pde_residual
        flow = FlowField([[1.0, 0.0], [0.0, 1.0]], [0.5])
        p = unit_puff()
        # the centre moves with the integral of v: (0.5, 0) then up
        assert np.allclose(p.center(flow, 1.0), [0.5, 0.5], atol=1e-15)
        for t in (0.3, 0.45, 0.55, 1.0, 2.0):
            for dx in ((0.0, 0.0), (0.6, -0.4), (-1.1, 0.9)):
                x = p.center(flow, t) + np.asarray(dx) * math.sqrt(2 * t)
                assert pde_residual(p, flow, x, t) <= 1e-4, (t, dx)

    def test_grid_matches_puff_under_piecewise_flow(self):
        # the flow turns halfway through the grid's advance
        from plumetrack.validate import check_grid_vs_puff
        flow = FlowField([[0.3, 0.15], [-0.2, 0.3]], [0.125])
        ok, detail = check_grid_vs_puff(shape=(120, 120), advance=0.25,
                                        flow=flow)
        assert ok, detail

    def test_gradient_at_center_zero(self):
        g = puff_gradient(unit_puff(), STILL, (0, 0), 1.0)
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        # derived example: offset (2, 0) -> gradient (-exp(-1), 0)
        p = unit_puff()
        g = puff_gradient(p, STILL, (2, 0), 1.0)
        assert g[0] == pytest.approx(-math.exp(-1), abs=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-15)
        h = 1e-5
        fd = np.array([
            (puff_concentration(p, STILL, (2 + h, 0), 1.0)
             - puff_concentration(p, STILL, (2 - h, 0), 1.0)) / (2 * h),
            (puff_concentration(p, STILL, (2, h), 1.0)
             - puff_concentration(p, STILL, (2, -h), 1.0)) / (2 * h)])
        assert np.abs(g - fd).max() < 1e-8

    def test_laplacian_at_center(self):
        p = unit_puff()
        lap = puff_laplacian(p, STILL, (0, 0), 1.0)
        assert lap == pytest.approx(-1.0, abs=1e-12)
        h = 1e-4
        fd = (puff_concentration(p, STILL, (h, 0), 1.0)
              + puff_concentration(p, STILL, (-h, 0), 1.0)
              + puff_concentration(p, STILL, (0, h), 1.0)
              + puff_concentration(p, STILL, (0, -h), 1.0)
              - 4 * puff_concentration(p, STILL, (0, 0), 1.0)) / h ** 2
        assert lap == pytest.approx(fd, abs=1e-6)

    def test_pde_residual_random_probes(self):
        from plumetrack.validate import check_pde_residual
        ok, detail = check_pde_residual(n=200, seed=21)
        assert ok, detail

    def test_derivatives_match_fd_random_probes(self):
        from plumetrack.validate import check_puff_derivatives
        ok, detail = check_puff_derivatives(n=200, seed=22)
        assert ok, detail


class TestPlume:
    def test_before_first_release_is_zero(self):
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          emission_rate=1.0, start_time=2.0)
        assert at_point(plume, (1, 1), 2.0) == 0.0

    def test_single_puff_matches_components(self):
        p = unit_puff()
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          seed_puffs=(p,))
        c = at_point(plume, (0.7, -0.3), 1.5)
        assert c == pytest.approx(puff_concentration(p, STILL, (0.7, -0.3), 1.5), rel=1e-14)

    def test_two_colocated_puffs_double(self):
        p = unit_puff()
        one = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0, seed_puffs=(p,))
        two = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                        seed_puffs=(p, p))
        c1 = at_point(one, (0.5, 0.5), 2.0)
        c2 = at_point(two, (0.5, 0.5), 2.0)
        assert c2 == pytest.approx(2 * c1, rel=1e-13)

    def test_superposition_linearity(self):
        # union of puff sets evaluates to the sum of the sets (up to rounding)
        rng = np.random.default_rng(42)
        k = 0.8
        puffs = tuple(
            GaussianPuff(rng.uniform(-3, 0), rng.uniform(-2, 2, 2),
                         rng.uniform(1, 20), k)
            for _ in range(6))
        flow = FlowField.uniform((0.2, -0.1))

        def plume(subset):
            return PuffPlume(source=(0, 0), flow=flow, diffusion=k,
                             seed_puffs=subset)

        x, t = (0.8, -0.4), 1.7
        ca = at_point(plume(puffs[:3]), x, t)
        cb = at_point(plume(puffs[3:]), x, t)
        cu = at_point(plume(puffs), x, t)
        assert cu == pytest.approx(ca + cb, rel=1e-12)

    def test_emission_train_count_and_strength(self):
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          emission_rate=2.0, puff_interval=0.5)
        t0s, pts, qs = plume._table.released(1.6)
        # releases at 0.0, 0.5, 1.0, 1.5 are all strictly before t = 1.6
        assert t0s.tolist() == [0.0, 0.5, 1.0, 1.5]
        assert np.all(qs == 1.0)  # Q = rate * interval

    def test_release_at_t_excluded(self):
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          emission_rate=2.0, puff_interval=0.5)
        t0s, _, _ = plume._table.released(1.5)
        assert t0s.tolist() == [0.0, 0.5, 1.0]

    def test_release_table_growth_matches_fresh_build(self):
        # a seed puff released mid-train joins the seeds, in document order
        seeds = (GaussianPuff(-5.0, (1.0, 2.0), 30.0, 1.0),
                 GaussianPuff(3.2, (-1.0, 0.5), 20.0, 1.0))

        def plume():
            return PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                             emission_rate=2.0, puff_interval=0.5,
                             seed_puffs=seeds)

        grown = plume()
        for t in (0.7, 3.0, 3.3, 12.0, 40.0):
            grown._table.released(t)          # the table grows on the way
            for got, want in zip(grown._table.released(t),
                                 plume()._table.released(t)):
                assert np.array_equal(got, want)
        t0s, pts, qs = grown._table.released(3.3)
        assert t0s[:2].tolist() == [-5.0, 3.2]
        assert t0s[2:].tolist() == [0.5 * i for i in range(7)]
        assert np.array_equal(pts[:, 1], [-1.0, 0.5]) and qs[1] == 20.0
        assert 3.2 not in grown._table.released(3.2)[0]
        x = np.array([[0.4, 0.2], [2.0, -1.0]])
        assert np.array_equal(grown.eval_many(x, 9.9),
                              plume().eval_many(x, 9.9))

    @staticmethod
    def unculled(plume, pts, t):
        """c with every released puff summed."""
        t0s, origins, qs = plume._table.released(t)
        kt = plume.diffusion * (t - t0s)
        centres = origins.T + plume.flow.at(t) * (t - t0s)[:, None]
        d = pts[:, None, :] - centres[None]
        r2 = (d * d).sum(axis=2)
        return (qs / (4 * math.pi * kt) * np.exp(-r2 / (4 * kt))).sum(axis=1)

    def test_cull_matches_unculled_sum_on_case1(self, case1_doc):
        from plumetrack import sensing, simulator, vessel
        from plumetrack.scenario_io import scenario_from_dict
        sc = scenario_from_dict(case1_doc)
        plume = sc.field0
        log = simulator.run(sc)
        for i in range(0, len(log), 40):
            t = float(log.t[i])
            state = vessel.VesselState(*log.pose[i])
            pts = np.vstack((sensing.world_positions(sc.rig, state),
                             vessel.head_point(state, sc.params.offset)))
            c_ref = self.unculled(plume, pts, t)
            c = plume.eval_many(pts, t)
            assert np.allclose(c, c_ref, rtol=1e-14, atol=0)
            assert np.array_equal(log.readings[i], c[:4])
            assert log.ctrue[i] == c[4]
        # along the emission train many puffs matter and the cull is tight
        v = plume.flow.at(0.0)
        for t in (0.0, 30.0, 60.0):
            for age in (0.3, 2.0, 20.0, 200.0):
                ctr = plume.source + v * age + [0.0, 0.5 * math.sqrt(age)]
                pts = ctr + np.array([[0.75, 0], [-0.75, 0], [0, 0.75],
                                      [0, -0.75], [0.5, 0]])
                c_ref = self.unculled(plume, pts, t)
                c = plume.eval_many(pts, t)
                assert np.all(np.abs(c - c_ref) <= 1e-14 * c_ref)

    @pytest.mark.parametrize("factor, kept", [(1 + 1e-9, True),
                                              (1 - 1e-9, False)])
    def test_far_puff_cull_threshold(self, factor, kept):
        # query disc: centre (0, 0), radius 1; puff centre 30 m away
        k, tau, d, rho = 1.0, 1.0, 30.0, 1.0
        peak = CULL_BOUND / math.exp(-(d - rho) ** 2 / (4 * k * tau))
        q = factor * peak * 4 * math.pi * k * tau      # about 3e62
        far = GaussianPuff(0.0, (d, 0.0), q, k)
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=k,
                          seed_puffs=(far,))
        x = np.array([[0.0, rho], [0.0, -rho]])
        c = plume.eval_many(x, tau)
        if kept:
            assert c[0] == pytest.approx(
                puff_concentration(far, STILL, x[0], tau), rel=1e-12)
            assert c[0] > 0
        else:
            assert np.all(c == 0)

    def test_faded_puff_near_the_points_is_summed(self):
        # a peak Q/(4 pi k tau) of 1e-7 ppb is far above the cull bound
        # next to the puff, so the puff stays in the superposition
        weak = GaussianPuff(0.0, (0.0, 0.0), 1e-7 * 4.0 * math.pi, 1.0)
        strong = unit_puff()
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          seed_puffs=(weak, strong))
        x = (0.3, 0.1)
        assert at_point(plume, x, 1.0) == pytest.approx(
            puff_concentration(weak, STILL, x, 1.0)
            + puff_concentration(strong, STILL, x, 1.0), rel=1e-15)

    def test_analytic_fields_advance_to_themselves(self):
        blob = FrozenGaussian(10.0, 2.0, (0.0, 0.0), STILL)
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          emission_rate=1.0)
        assert blob.advance(7.0, 0.05) is blob
        assert plume.advance(7.0, 0.05) is plume


class TestFlow:
    def test_uniform(self):
        f = FlowField.uniform((0.1, 0.0))
        assert np.all(f.at(2.0) == [0.1, 0.0])
        assert np.all(f.at(900.0) == [0.1, 0.0])

    def test_piecewise_lookup(self):
        f = FlowField([[0.1, 0.0], [0.0, 0.1]], [30.0])
        assert np.all(f.at(40.0) == [0.0, 0.1])
        assert np.all(f.at(10.0) == [0.1, 0.0])

    def test_boundary_belongs_to_later_segment(self):
        f = FlowField([[0.1, 0.0], [0.0, 0.1]], [30.0])
        assert np.all(f.at(30.0) == [0.0, 0.1])

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            FlowField([[0, 0], [1, 0], [2, 0]], [5.0, 5.0])

    def test_frozen_gaussian_piecewise_centroid(self):
        f = FlowField([[1.0, 0.0], [0.0, 1.0]], [10.0])
        blob = FrozenGaussian(10.0, 2.0, (0.0, 0.0), f)
        assert np.allclose(blob.centroid(15.0), [10.0, 5.0])


class TestGrid:
    def make_grid(self, conc, v=(0.0, 0.0), k=0.5, boundary="periodic", h=1.0):
        return GridField((0.0, 0.0), h, conc, k, FlowField.uniform(v), boundary)

    def test_uniform_field_unchanged(self):
        g = self.make_grid(np.full((8, 8), 3.0), v=(0.4, -0.2))
        g2 = g.step(g.max_stable_dt())
        assert np.array_equal(g2.conc, g.conc)

    def test_spike_mass_conserved(self):
        conc = np.zeros((16, 16))
        conc[8, 8] = 10.0
        g = self.make_grid(conc)
        m0 = g.mass()
        for _ in range(20):
            g = g.step(g.max_stable_dt())
        assert abs(g.mass() - m0) / m0 < 1e-12

    def test_mass_conserved_with_uniform_flow(self):
        rng = np.random.default_rng(3)
        g = self.make_grid(rng.uniform(0, 5, (20, 24)), v=(0.7, 0.3))
        m_prev = g.mass()
        for _ in range(30):
            g = g.step(g.max_stable_dt())
            m = g.mass()
            assert abs(m - m_prev) / m_prev < 1e-10
            m_prev = m

    def test_positivity_preserved(self):
        rng = np.random.default_rng(4)
        conc = rng.uniform(0, 1, (20, 20))
        conc[rng.uniform(size=(20, 20)) < 0.5] = 0.0
        g = self.make_grid(conc, v=(0.9, -0.6), k=0.8)
        for _ in range(40):
            g = g.step(g.max_stable_dt())
            assert g.conc.min() >= 0.0

    def test_step_size_error(self):
        g = self.make_grid(np.ones((8, 8)))
        with pytest.raises(StepSizeError):
            g.step(g.max_stable_dt() * 1.5)

    def test_stability_bound_formula(self):
        g = self.make_grid(np.ones((8, 8)), v=(0.4, -0.2), k=0.5, h=0.5)
        expected = 0.9 / ((0.4 + 0.2) / 0.5 + 4 * 0.5 / 0.25)
        assert g.max_stable_dt() == pytest.approx(expected, rel=1e-12)

    def test_matches_analytic_puff(self):
        from plumetrack.validate import check_grid_vs_puff
        ok, detail = check_grid_vs_puff(shape=(120, 120), advance=0.25)
        assert ok, detail

    @pytest.mark.parametrize("boundary", ["outflow", "periodic"])
    def test_step_matches_padded_formula(self, boundary):
        rng = np.random.default_rng(21)
        for v in GRID_FLOWS:
            for k in (0.0, 0.4):
                for shape in ((3, 3), (17, 11), (40, 40)):
                    conc = rng.uniform(0, 10, shape)
                    conc[rng.uniform(size=shape) < 0.3] = 0.0
                    if shape == (17, 11):       # stored column-major
                        conc = np.asfortranarray(conc)
                    g = GridField((0.5, -1.0), 0.25, conc, k,
                                  FlowField.uniform(v), boundary)
                    dt = min(g.max_stable_dt(), 0.7) * rng.uniform(0.2, 1.0)
                    err = np.abs(g.step(dt).conc - padded_step(g, dt)).max()
                    assert err <= 1e-14 * np.abs(conc).max(), (v, k, shape)

    @pytest.mark.parametrize("boundary", ["outflow", "periodic"])
    def test_step_discrete_maximum_principle(self, boundary):
        # at the stable bound each new cell is a convex combination of its
        # 5-cell neighbourhood
        rng = np.random.default_rng(22)
        for v in GRID_FLOWS:
            for k in (0.0, 0.4):
                conc = rng.uniform(0, 10, (30, 26))
                conc[rng.uniform(size=conc.shape) < 0.3] = 0.0
                g = GridField((0.0, 0.0), 0.5, conc, k, FlowField.uniform(v),
                              boundary)
                dt = g.max_stable_dt()
                new = g.step(dt if math.isfinite(dt) else 1.0).conc
                hood = neighbourhoods(conc, boundary)
                assert (new >= hood.min(axis=0)).all(), (v, k)
                assert (new <= hood.max(axis=0)).all(), (v, k)

    def test_stable_dt_underflow_is_zero(self):
        g = GridField((0, 0), 1e-200, np.ones((4, 4)), 0.1,
                      FlowField.uniform((0, 0)))
        assert g.max_stable_dt() == 0.0
        with pytest.raises(StepSizeError):
            g.step(1e-300)
        with pytest.raises(StepSizeError):
            g.advance(1.0)
        # without diffusion the bound is the advective one, and finite
        still = GridField((0, 0), 1e-200, np.ones((4, 4)), 0.0,
                          FlowField.uniform((0.5, 0.25)))
        assert still.max_stable_dt() == pytest.approx(1.2e-200, rel=1e-12)
        idle = GridField((0, 0), 1e-200, np.ones((4, 4)), 0.0, STILL)
        assert np.array_equal(idle.step(1.0).conc, idle.conc)

    def test_eval_many_bit_equal_to_point_formula(self):
        rng = np.random.default_rng(23)
        h, shape = 0.37, np.array([24, 31])
        g = GridField((-3.0, 2.0), h, rng.uniform(0, 50, shape), 0.2, STILL)
        # every point whose cell and difference ring lie inside
        lo = g.origin + 1.5 * h
        hi = g.origin + (shape - 1.5) * h - 1e-9
        pts = rng.uniform(lo, hi, (1500, 2))
        ref = [point_sample(g, p) for p in pts]
        assert np.array_equal(g.eval_many(pts, 0.0), ref)
        for p, r in zip(pts[:20], ref):
            assert at_point(g, p) == r

    def test_eval_many_names_first_point_outside(self):
        g = self.make_grid(np.ones((10, 10)))
        pts = [(5.0, 5.0), (4.2, 3.3), (0.6, 5.0), (-3.0, 5.0)]
        with pytest.raises(DomainError, match=re.escape(
                "sample at [0.6, 5.0] too close to the grid boundary")):
            g.eval_many(pts, 0.0)

    def test_sample_at_cell_center(self):
        rng = np.random.default_rng(5)
        conc = rng.uniform(0, 10, (12, 12))
        g = self.make_grid(conc, h=0.5)
        # cell (4, 6) center: origin + (4.5, 6.5) * h
        c = at_point(g, (4.5 * 0.5, 6.5 * 0.5))
        assert c == pytest.approx(conc[4, 6], rel=1e-14)

    def test_sample_uniform_field(self):
        g = self.make_grid(np.full((10, 10), 7.0))
        assert at_point(g, (4.3, 5.1)) == pytest.approx(7.0)

    def test_sample_linear_field(self):
        h = 0.5
        a = 3.0
        nx, ny = 14, 14
        xs = (np.arange(nx) + 0.5) * h
        conc = np.tile(a * xs[:, None], (1, ny))
        g = self.make_grid(conc, h=h)
        for pt in ((3.1, 3.3), (2.0, 2.0), (4.7, 2.9)):
            assert at_point(g, pt) == pytest.approx(a * pt[0], rel=1e-12)

    def test_sample_continuity_within_cell(self):
        rng = np.random.default_rng(6)
        g = self.make_grid(rng.uniform(0, 10, (12, 12)), h=0.5)
        # approaching an interior point from two sides changes nothing abruptly
        c1 = at_point(g, (3.0001, 3.2))
        c2 = at_point(g, (3.0002, 3.2))
        assert abs(c1 - c2) < 1e-2

    def test_domain_error_near_boundary(self):
        g = self.make_grid(np.ones((10, 10)))
        with pytest.raises(DomainError):
            at_point(g, (0.6, 5.0))      # within the outer cell ring
        with pytest.raises(DomainError):
            at_point(g, (5.0, 9.9))
        with pytest.raises(DomainError):
            at_point(g, (-3.0, 5.0))

    def test_centroid_is_advected_mass_centroid(self):
        rng = np.random.default_rng(8)
        conc = rng.uniform(0, 5, (9, 12))
        v = np.array([0.3, -0.2])
        xs = 1.0 + (np.arange(9) + 0.5) * 0.5
        ys = -2.0 + (np.arange(12) + 0.5) * 0.5
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        expected = np.array([np.sum(conc * X), np.sum(conc * Y)]) / conc.sum()
        # (flow, t, displacement from the grid's time 1.5 to t); the
        # piecewise flow is (1, 0), then (0, 1) from t = 1, then (1, 0)
        # again from t = 2.5
        switching = FlowField([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [1.0, 2.5])
        for flow, t, disp in ((FlowField.uniform(v), 4.0, v * (4.0 - 1.5)),
                              (switching, 4.0, [1.5, 1.0]),
                              (switching, 0.5, [-0.5, -0.5])):
            g = GridField((1.0, -2.0), 0.5, conc, 0.5, flow, time=1.5)
            assert np.allclose(g.centroid(t), expected + disp,
                               rtol=1e-13, atol=1e-13)
        empty = GridField((1.0, -2.0), 0.5, np.zeros((9, 12)), 0.5, STILL)
        assert np.array_equal(empty.centroid(3.0), [1.0, -2.0])

    def test_from_puff_matches_analytic_at_cells(self):
        p = GaussianPuff(-2.0, (5.0, 5.0), 40.0, 1.0)
        g = GridField.from_puff(p, STILL, 0.0, (0, 0), 0.5, (20, 20))
        c_grid = at_point(g, (5.25, 5.25))  # a cell center
        assert c_grid == pytest.approx(
            puff_concentration(p, STILL, (5.25, 5.25), 0.0), rel=1e-12)
