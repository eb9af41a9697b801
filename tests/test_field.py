import copy
import dataclasses
import itertools
import math
import re
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from plumetrack import field, sensing, simulator, vessel
from plumetrack.field import (
    CULL_BOUND, DomainError, FlowField, FrozenGaussian, GaussianPuff,
    GridField, PuffPlume, PuffTimeError, StepSizeError, puff_concentration,
    puff_gradient, puff_laplacian)
from plumetrack.scenario_io import scenario_from_dict

from conftest import column, csv_text, rotation

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


def four_pass_step(g, dt):
    """The grid step's new cells as four difference passes, one per
    neighbour in W, E, S, N order, each into a fresh difference array
    whose ghost row or column is set after."""
    v = g.flow.at(g.time)
    h = g.cell_size
    kh = g.diffusion / (h * h) if g.diffusion > 0 else 0.0
    c = g.conc
    new = np.empty_like(c)
    diff = np.empty_like(c)
    flat_c, flat_d = c.ravel(), diff.ravel()
    n, ny = c.size, c.shape[1]
    col = slice(None)
    acc = c
    for a, s, edge, wrap in (
            (dt * (kh + max(v[0], 0.0) / h), -ny, 0, -1),
            (dt * (kh + max(-v[0], 0.0) / h), ny, -1, 0),
            (dt * (kh + max(v[1], 0.0) / h), -1, (col, 0), (col, -1)),
            (dt * (kh + max(-v[1], 0.0) / h), 1, (col, -1), (col, 0))):
        lo, hi = max(0, -s), n - max(0, s)
        np.subtract(flat_c[lo + s:hi + s], flat_c[lo:hi], out=flat_d[lo:hi])
        if g.boundary == "periodic":
            np.subtract(c[wrap], c[edge], out=diff[edge])
        else:
            diff[edge] = 0.0
        np.multiply(diff, a, out=diff)
        np.add(acc, diff, out=new)
        acc = new
    return new


def point_sample(g, x):
    """c at one point: the bilinear weights times the point's 2 x 2 cell
    block, summed left to right."""
    pt = np.asarray(x, dtype=float).reshape(2)
    u = (pt - g.origin) / g.cell_size - 0.5
    i0, j0 = int(math.floor(u[0])), int(math.floor(u[1]))
    fx, fy = u[0] - i0, u[1] - j0
    c = g.conc
    w = [(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy]
    corners = [c[i0, j0], c[i0 + 1, j0], c[i0, j0 + 1], c[i0 + 1, j0 + 1]]
    return float(w[0] * corners[0] + w[1] * corners[1] + w[2] * corners[2]
                 + w[3] * corners[3])


def flat_cull(plume, pts, t, puffs):
    """The per-puff bound and sum of ``PuffPlume.eval_many`` over puffs
    (release times, points, strengths); over ``reference_released(plume,
    t)`` it is the cull over every released puff.  Returns the kept
    puffs, as columns (t0, x, y, Q) in the given order, and c: each kept
    term with ``math.exp``, a point's terms summed left to right."""
    t0s, origins, qs = puffs
    kt = plume.diffusion * (t - t0s)
    peak = qs / (4.0 * math.pi * kt)
    cx, cy = origins + vectorised_displacement(plume.flow, t0s, t)
    q = pts.mean(axis=0)
    rho = max(math.hypot(*p) for p in (pts - q).tolist())
    near = np.maximum(np.hypot(cx - q[0], cy - q[1]) - rho, 0.0)
    bound = peak * np.exp(-near * near / (4.0 * kt))
    keep = np.flatnonzero(~(bound < CULL_BOUND))
    terms = np.vstack((peak, cx, cy, 4.0 * kt))[:, keep].T.tolist()
    return np.vstack((t0s, origins, qs))[:, keep], np.array(
        [left_to_right(puff_terms(p, terms)) for p in pts.tolist()])


def puff_terms(point, terms):
    """The terms (peak, cx, cy, 4kt) at a point, each with ``math.exp``."""
    x, y = point
    return [peak * math.exp(-((x - cx) * (x - cx) + (y - cy) * (y - cy))
                            / four_kt)
            for peak, cx, cy, four_kt in terms]


def left_to_right(values):
    """The sum from 0.0, in the given order."""
    total = 0.0
    for v in values:
        total += v
    return total


def columns(rows):
    """Float rows (t0, x, y, Q), as ``_near`` hands them out, as
    (release times, points (2, n), strengths)."""
    a = np.array(rows, dtype=float).reshape(-1, 4).T
    return a[0], a[1:3], a[3]


def reference_rows(plume, t):
    """The plume's puffs up to t, written out: every seed puff in
    document order, then the train puff start_time + puff_interval * i,
    at the source, for every i whose value is < t."""
    train = []
    while plume.emission_rate != 0 and \
            plume.start_time + plume.puff_interval * len(train) < t:
        train.append(plume.start_time + plume.puff_interval * len(train))
    seeds = plume.seed_puffs
    t0s = np.array([p.release_time for p in seeds] + train)
    pts = np.array([list(p.point) for p in seeds]
                   + [list(plume.source)] * len(train)).reshape(-1, 2).T
    qs = np.array([p.strength for p in seeds]
                  + [plume.emission_rate * plume.puff_interval] * len(train))
    return t0s, pts, qs


def reference_released(plume, t):
    """``reference_rows`` less the puffs with t0 >= t: a NaN t keeps
    every seed puff."""
    rows = reference_rows(plume, t)
    live = ~(rows[0] >= t)
    return tuple(a[..., live] for a in rows)


def build_bound(plume, t, q, radius, puffs):
    """The puffs, as columns (t0, x, y, Q), that ``PuffPlume._reach``
    keeps as runs of one: those whose c can reach half of CULL_BOUND on
    the disc of centre q and this radius within HORIZON of t.  A puff
    released at t0 stands at its centre at t, or at its point where t0
    >= t, and over its ages in [max(t - t0, 0), t + HORIZON - t0] is
    bounded by the largest Q exp(-a/tau) / (4 pi k tau), a = near^2 /
    4k, which is at tau = a clamped to those ages."""
    t0s, origins, qs = puffs
    k = plume.diffusion
    with np.errstate(all="ignore"):     # q / 0 at an age of 0
        cx, cy = origins + vectorised_displacement(plume.flow,
                                                   np.minimum(t0s, t), t)
        near = np.maximum(np.hypot(cx - q[0], cy - q[1]) - radius, 0.0)
        a = near * near / (4.0 * k)
        tau = np.minimum(np.maximum(np.maximum(t - t0s, 0.0), a),
                         t + field.HORIZON - t0s)
        bound = qs / (4.0 * math.pi * k * tau) * np.exp(-a / tau)
    keep = ~(bound < CULL_BOUND / 2)
    return np.vstack((t0s, origins, qs))[:, keep]


def assert_in_order(rows, superset):
    """Every row of ``rows`` is in ``superset``, in the same order."""
    rest = iter(superset)
    assert all(row in rest for row in rows)


def assert_matches_flat_cull(plume, pts, t):
    """eval_many keeps the puffs the cull over every released puff keeps
    and returns its c, bit for bit."""
    c = plume.eval_many(pts, t)
    kept, c_flat = flat_cull(plume, pts, t, reference_released(plume, t))
    q = pts.mean(axis=0)
    rho = max(math.hypot(*p) for p in (pts - q).tolist())
    candidates = columns(plume._near(t, *q.tolist(), rho))
    assert np.array_equal(flat_cull(plume, pts, t, candidates)[0], kept)
    assert np.array_equal(c, c_flat)
    return kept.shape[1]


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


def three_seed_plume():
    """A train with a seed released before it, one mid-run, and one after
    t + HORIZON for every t of the tests, in that document order."""
    seeds = (GaussianPuff(-5.0, (1.0, 2.0), 30.0, 0.05),
             GaussianPuff(3.2, (-1.0, 0.5), 20.0, 0.05),
             GaussianPuff(50.0, (4.0, -3.0), 10.0, 0.05))
    return PuffPlume(source=(0, 0), flow=FlowField.uniform((0.5, 0.0)),
                     diffusion=0.05, emission_rate=2.0, puff_interval=0.5,
                     seed_puffs=seeds)


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
        rows = plume._near(1.6, 0.0, 0.0, 1.0)
        t0s, pts, qs = columns(rows)
        # releases at 0.0, 0.5, 1.0, 1.5 are all strictly before t = 1.6
        assert t0s.tolist() == [0.0, 0.5, 1.0, 1.5]
        assert np.all(qs == 1.0)  # Q = rate * interval
        assert np.all(pts == 0.0)
        assert all(map(np.array_equal, columns(rows),
                       reference_released(plume, 1.6)))

    def test_release_at_t_excluded(self):
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          emission_rate=2.0, puff_interval=0.5)
        assert [row[0] for row in plume._near(1.5, 0.0, 0.0, 1.0)] == \
            reference_rows(plume, 1.5)[0].tolist() == [0.0, 0.5, 1.0]

    def test_released_rows_match_reference_train(self):
        plume = three_seed_plume
        q, rho = (30.0, 10.0), 1.0
        # before start_time, on a release, between releases, NaN, and
        # late enough that old puffs reach the query while young are culled
        for t in (-1.0, 1.5, 3.2, 3.3, 12.0, 40.0, math.nan):
            # every released puff can reach a vast disc
            for got, ref in zip(columns(plume()._near(t, 0.0, 0.0, 1e9)),
                                reference_released(plume(), t)):
                assert np.array_equal(got, ref)
            # the list holds what each puff's own bound keeps, and is
            # drawn from the puffs released by its horizon, both in order
            shared = plume()
            nl = shared._build(t, *q, rho)
            rows = reference_rows(shared, t + field.HORIZON)
            candidates = build_bound(shared, t, q, rho + field.SKIN, rows)
            assert_in_order(candidates.T.tolist(), nl.rows)
            assert_in_order(nl.rows, np.vstack(rows).T.tolist())
            if math.isnan(t):
                assert [row[0] for row in nl.rows] == [-5.0, 3.2, 50.0]
        candidates = build_bound(shared, 40.0, q, rho + field.SKIN,
                                 reference_rows(shared, 40.0 + field.HORIZON))
        kept = candidates[0].tolist()
        # the seed released after t and the train's newest puffs are far
        # from the query, old ones drifted to it
        assert 50.0 not in kept and 0.0 in kept and 39.5 not in kept
        x = np.array([[29.5, 10.0], [30.5, 9.2]])
        c = shared.eval_many(x, 40.0)
        assert np.array_equal(c, plume().eval_many(x, 40.0))
        assert np.array_equal(
            c, flat_cull(shared, x, 40.0, reference_released(shared, 40.0))[1])
        # the mid-run seed is left out on its release and summed after it
        at_seed = np.array([[-1.0, 0.6], [-0.9, 0.4]])
        kept = [assert_matches_flat_cull(plume(), at_seed, t)
                for t in (3.2, 3.3)]
        assert kept[1] == kept[0] + 1
        # 0.3 * 3 rounds below 0.9 while (0.9 - 0) / 0.3 rounds to 3
        fine = PuffPlume(source=(0, 0), flow=STILL, diffusion=0.05,
                         emission_rate=2.0, puff_interval=0.3)
        assert [row[0] for row in fine._near(0.9, 0.0, 0.0, 1.0)] == \
            reference_rows(fine, 0.9)[0].tolist() == [0.0, 0.3, 0.6, 0.3 * 3]

    def test_many_terms_are_summed_left_to_right(self):
        # 30 terms pass the cull; numpy's sum of the same terms adds them
        # pairwise, which differs here, so the order itself is pinned
        plume = three_seed_plume()
        x = np.array([[29.5, 10.0], [30.5, 9.2]])
        kept, c = flat_cull(plume, x, 40.0, reference_released(plume, 40.0))
        assert kept.shape[1] == 30
        assert np.array_equal(plume.eval_many(x, 40.0), c)
        kt = plume.diffusion * (40.0 - kept[0])
        cx, cy = kept[1:3] + vectorised_displacement(plume.flow, kept[0], 40.0)
        terms = np.vstack((kept[3] / (4.0 * math.pi * kt), cx, cy, 4.0 * kt))
        values = [puff_terms(p, terms.T.tolist()) for p in x.tolist()]
        assert c.tolist() == [left_to_right(v) for v in values]
        assert not np.array_equal(np.sum(values, axis=1), c)

    def test_underflowing_kt_gives_nan(self):
        # k (t - t0) rounds to 0, where q / (4 pi k tau) divides by zero
        k = 5e-324
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=k,
                          seed_puffs=(GaussianPuff(0.0, (0, 0), 1.0, k),))
        assert k * 0.5 == 0.0
        assert np.isnan(plume.eval_many(RIG, 0.5)).all()

    def test_distance_beyond_the_float_range_is_culled(self):
        # a seed released within the list's horizon is a candidate however
        # far it is; at t = 0.55 its distance to the query overflows
        far = GaussianPuff(0.5, (-1.4e308, -1.4e308), 1.0, 1.0)
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          seed_puffs=(far,))
        pts = RIG + 3e307
        plume.eval_many(pts, 0.0)
        with np.errstate(over="ignore"):        # numpy's hypot warns
            assert assert_matches_flat_cull(plume, pts, 0.55) == 0
        assert np.all(np.asarray(plume.eval_many(pts, 0.55)) == 0.0)

    def test_zero_points_give_an_empty_array(self):
        grid = GridField((0.0, 0.0), 1.0, np.ones((8, 8)), 0.1, STILL)
        fields = (three_seed_plume(), FrozenGaussian(1.0, 2.0, (0, 0), STILL),
                  grid)
        for f in fields:
            assert f.eval_many(np.empty((0, 2)), 1.0) == []
            assert f.eval_many((), 1.0) == []

    @staticmethod
    def unculled(plume, pts, t):
        """c with every released puff summed."""
        t0s, origins, qs = reference_released(plume, t)
        kt = plume.diffusion * (t - t0s)
        centres = origins.T + plume.flow.at(t) * (t - t0s)[:, None]
        d = pts[:, None, :] - centres[None]
        r2 = (d * d).sum(axis=2)
        return (qs / (4 * math.pi * kt) * np.exp(-r2 / (4 * kt))).sum(axis=1)

    def test_cull_matches_unculled_sum_on_case1(self, case1_doc):
        sc = scenario_from_dict(case1_doc)
        plume = sc.field0
        log = simulator.run(sc)
        times, pose, readings, ctrue = (
            column(log, name) for name in ("t", "pose", "readings", "ctrue"))
        for i in range(len(log)):
            t = float(times[i])
            x, y, theta = pose[i]
            cos_sin = rotation(theta)
            pts = np.vstack((sensing.world_positions(sc.rig, x, y, *cos_sin),
                             vessel.head_point(x, y, *cos_sin,
                                               sc.params.offset)))
            assert_matches_flat_cull(plume, pts, t)
            c = plume.eval_many(pts, t)
            assert np.array_equal(readings[i], c[:4])
            assert ctrue[i] == c[4]
            if i % 40 == 0:
                c_ref = self.unculled(plume, pts, t)
                assert np.allclose(c, c_ref, rtol=1e-14, atol=0)
        # along the emission train many puffs matter and the cull is tight
        v = np.array(plume.flow.at(0.0))
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
            assert np.all(np.asarray(c) == 0)

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

    def test_points_are_read_only_float_pairs(self):
        # a write to a point can no longer leave the plume's neighbour list
        # behind; lists and arrays give the same float pairs
        flow = FlowField.uniform((0.5, 0.0))
        puffs = [GaussianPuff(-5.0, [1, 2], 30.0, 0.05),
                 GaussianPuff(-5.0, np.array([1.0, 2.0]), 30.0, 0.05)]
        plumes = [PuffPlume(source=source, flow=flow, diffusion=0.05,
                            emission_rate=2.0, seed_puffs=(puff,))
                  for source, puff in zip(((0, 0), np.zeros(2)), puffs)]
        plumes[0].eval_many(RIG, 3.0)           # only one holds a list
        for a, b in (puffs, plumes):
            assert a == b and hash(a) == hash(b)
        assert plumes[0] != dataclasses.replace(plumes[0], source=(0.0, 1.0))
        for pair in (plumes[0].source, puffs[0].point):
            assert type(pair) is tuple and list(map(type, pair)) == [float] * 2
            with pytest.raises(TypeError):
                pair[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            plumes[0].source = (1.0, 0.0)

    def test_analytic_fields_advance_to_themselves(self):
        blob = FrozenGaussian(10.0, 2.0, (0.0, 0.0), STILL)
        plume = PuffPlume(source=(0, 0), flow=STILL, diffusion=1.0,
                          emission_rate=1.0)
        assert blob.advance(7.0, 0.05) is blob
        assert plume.advance(7.0, 0.05) is plume

    def test_a_string_is_not_a_pair(self):
        # "12" once read as the pair (1.0, 2.0)
        for text in ("12", b"12"):
            with pytest.raises(ValueError, match="puff point"):
                GaussianPuff(0.0, text, 1.0, 1.0)
            with pytest.raises(ValueError, match="flow velocity"):
                FlowField.uniform(text)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_are_refused(self, bad):
        # an infinite interval once put a NaN release in the train, and
        # a NaN start time silently dropped the train
        puff = dict(release_time=0.0, point=(1.0, 2.0), strength=3.0,
                    diffusion=0.05)
        plume = dict(source=(0.0, 0.0), flow=STILL, diffusion=0.05,
                     emission_rate=2.0, puff_interval=0.5, start_time=0.0)
        for model, kwargs in ((GaussianPuff, puff), (PuffPlume, plume)):
            for name in kwargs:
                if name == "flow":
                    continue
                for value in ((bad, 0.0), (0.0, bad)) if name in (
                        "point", "source") else (bad,):
                    with pytest.raises(ValueError):
                        model(**{**kwargs, name: value})


def reference_centroid(plume, t):
    """The advected point of the first strongest puff of
    ``reference_released``, or the source when none is released."""
    t0s, origins, qs = reference_released(plume, t)
    if t0s.size == 0:
        return np.array(plume.source)
    i = int(np.argmax(qs))
    return origins[:, i] + vectorised_displacement(plume.flow, t0s[i], t)


TURNING = FlowField([[0.5, 0.1], [-0.3, 0.4]], [4.0])


def seed_puff(t0, x, q):
    return GaussianPuff(t0, (x, 2.0 * x), q, 0.1)


# plumes with 0-3 seeds released before, during and after a run, seeds
# that tie the train's strength 1.0 or each other, no train, and trains
# from t = -2, 0 and 1
CENTROID_CASES = {
    "train": dict(emission_rate=2.0),
    "nothing": dict(),
    "seeds-no-train": dict(flow=TURNING, seed_puffs=(
        seed_puff(-5.0, 1.0, 30.0), seed_puff(0.7, -1.0, 40.0),
        seed_puff(50.0, 4.0, 90.0))),
    "seed-ties-train": dict(emission_rate=2.0, start_time=1.0,
                            seed_puffs=(seed_puff(0.7, 1.0, 1.0),)),
    "train-beats-seeds": dict(emission_rate=2.0, start_time=-2.0,
                              flow=TURNING, seed_puffs=(
                                  seed_puff(-3.0, 1.0, 0.5),
                                  seed_puff(2.0, -1.0, 0.999))),
    "seeds-tie": dict(emission_rate=0.5, flow=TURNING, seed_puffs=(
        seed_puff(-1.0, 1.0, 5.0), seed_puff(2.0, -1.0, 5.0),
        seed_puff(1.0, 3.0, 5.0))),
    "seed-beats-train": dict(emission_rate=2.0, start_time=-2.0,
                             seed_puffs=(seed_puff(3.3, 2.0, 1.0 + 1e-12),)),
}


def centroid_plume(name):
    return PuffPlume(**{"source": (0.5, -0.25), "flow": STILL,
                        "diffusion": 0.1, **CENTROID_CASES[name]})


CENTROID_TIMES = (-3.0, -2.0, -1.0, 0.0, 0.3, 0.7, 1.0, 1.2, 2.0, 3.3, 4.0,
                  7.5, 60.0, math.nan)


def pair_array(v):
    """A centroid as an array, once checked to be an (x, y) float pair."""
    assert type(v) is tuple and len(v) == 2, v
    assert all(type(x) is float for x in v), v
    return np.array(v)


def array_carry(flow, point, t0, t):
    """``point`` at t0 moved to t as the fields moved their centres on
    arrays: the displacement over [t0, t] added where t >= t0, that over
    [t, t0] subtracted otherwise."""
    if t >= t0:
        return np.array(point) + vectorised_displacement(flow, t0, t)
    return np.array(point) - vectorised_displacement(flow, t, t0)


def array_grid_centroid(g, t):
    """``GridField.centroid`` as it was computed on arrays: the moments
    summed on floats, the displacement added as an ndarray."""
    nx, ny = g.conc.shape
    m = float(g.conc.sum())
    if m <= 0:
        return np.array(g.origin)
    xs = g.origin[0] + (np.arange(nx) + 0.5) * g.cell_size
    ys = g.origin[1] + (np.arange(ny) + 0.5) * g.cell_size
    cx = cy = 0.0
    for w, x in zip(g.conc.sum(axis=1).tolist(), xs.tolist()):
        cx += w * x
    for w, y in zip(g.conc.sum(axis=0).tolist(), ys.tolist()):
        cy += w * y
    return array_carry(g.flow, (cx / m, cy / m), g.time, t)


class TestCentroid:
    @pytest.mark.parametrize("name", CENTROID_CASES)
    def test_matches_argmax_over_released_puffs(self, name):
        plume = centroid_plume(name)
        for t in CENTROID_TIMES:
            got, want = plume.centroid(t), reference_centroid(plume, t)
            assert pair_array(got).tobytes() == want.tobytes(), t

    def test_builds_no_train(self, monkeypatch):
        plume = centroid_plume("train-beats-seeds")
        want = [reference_centroid(plume, t) for t in CENTROID_TIMES]

        def no_build(self, *args):
            raise AssertionError("centroid built a neighbour list")

        monkeypatch.setattr(PuffPlume, "_build", no_build)
        got = [plume.centroid(t) for t in CENTROID_TIMES]
        assert [pair_array(g).tobytes() for g in got] == \
            [w.tobytes() for w in want]

    def test_every_field_gives_a_float_pair_equal_to_the_array_form(self):
        flow = FlowField([[0.4, -0.1], [0.0, 0.3]], [2.0])
        blob = FrozenGaussian(10.0, 2.0, (1.5, -0.5), flow)
        rng = np.random.default_rng(9)
        grids = (GridField((1.0, -2.0), 0.5, rng.uniform(0, 5, (9, 12)), 0.5,
                           flow, time=1.5),
                 GridField((1.0, -2.0), 0.5, np.zeros((9, 12)), 0.5, flow))
        for t in (-3.0, 0.0, 1.5, 2.0, 7.25):
            assert pair_array(blob.centroid(t)).tobytes() == \
                array_carry(flow, blob.center, 0.0, t).tobytes()
            for g in grids:
                assert pair_array(g.centroid(t)).tobytes() == \
                    array_grid_centroid(g, t).tobytes()


# a sensor cross and a head point about a query centre
RIG = np.array([[0.75, 0.0], [-0.75, 0.0], [0.0, 0.75], [0.0, -0.75],
                [0.5, 0.0]])


def piecewise_calls():
    """A still query 10 m north-east of a train that three flow segments
    carry past it at up to 4 m/s, so puffs cross the list's skin within
    its horizon."""
    flow = FlowField(np.array([[3.0, 0.0], [-1.0, 2.0], [0.5, -4.0]]),
                     np.array([2.0, 5.0]))
    plume = PuffPlume(source=(0.0, 0.0), flow=flow, diffusion=0.05,
                      emission_rate=2.0, start_time=-10.0)
    return plume, [(RIG + (10.0, 3.0), 0.05 * i) for i in range(161)]


def seeded_calls():
    """A query circling the source in still water, where the list lasts
    its whole horizon, while a seed puff released at t = 3.2 joins one
    released before the run and a far one that is culled."""
    seeds = (GaussianPuff(-5.0, (1.0, 2.0), 30.0, 0.1),
             GaussianPuff(3.2, (-1.0, 0.5), 20.0, 0.1),
             GaussianPuff(-1.0, (40.0, 0.0), 1.0, 0.1))
    plume = PuffPlume(source=(0.0, 0.0), flow=STILL, diffusion=0.1,
                      emission_rate=2.0, seed_puffs=seeds)
    return plume, [(RIG + 1.5 * np.array([math.cos(0.02 * i),
                                         math.sin(0.02 * i)]), 0.05 * i)
                   for i in range(161)]


def sweeping_calls():
    """A query that runs 2.5 m per call, more than the skin, from 60 m
    off the train to across it, while t sometimes steps back."""
    plume = PuffPlume(source=(0.0, 0.0), flow=FlowField.uniform((0.5, 0.0)),
                      diffusion=0.05, emission_rate=2.0, start_time=-30.0)
    rng = np.random.default_rng(12)
    ts = 5.0 + np.cumsum(rng.choice([0.05, 0.3, -0.2, -1.0], 60))
    return plume, [(RIG + (5.0, 60.0 - 2.5 * i), t)
                   for i, t in enumerate(ts.tolist())]


def creeping_calls():
    """A query that creeps 0.1 m per call, inside the skin, at the edge of
    an old train where the cull bound is tight, while t sometimes steps
    back."""
    plume = PuffPlume(source=(0.0, 0.0), flow=FlowField.uniform((1.5, 0.0)),
                      diffusion=0.05, emission_rate=2.0, start_time=-100.0)
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.choice([0.05, 0.05, 0.05, -0.5], 400))
    return plume, [(RIG + (60.0, 45.0 - 0.1 * i), t)
                   for i, t in enumerate(ts.tolist())]


def approaching_calls():
    """A query that heads for the source at the stock vessel's top speed,
    2 m/s, from 30 m off to past it, so that puffs released within a
    list's horizon come within reach of the query before it ends."""
    plume = PuffPlume(source=(0.0, 0.0), flow=FlowField.uniform((0.1, 0.0)),
                      diffusion=0.05, emission_rate=2.0, start_time=-10.0)
    return plume, [(RIG + (0.0, 30.0 - 0.1 * i), 0.05 * i)
                   for i in range(400)]


def switching_calls():
    """A still query at the bend of a train older than a flow switch, so
    that the path of the train's centres has a vertex there, over calls
    whose lists' horizons span a second switch.  A seed puff crosses the
    query with a peak of about 1.5 CULL_BOUND, so it is summed only near
    the query, and the lists keep it only under a bound of CULL_BOUND /
    2, not 2 CULL_BOUND."""
    flow = FlowField([[1.0, 0.0], [0.0, 1.0], [-0.5, 0.5]], [0.0, 102.0])
    faint = GaussianPuff(50.0, (2.1, 47.5), 1.5 * CULL_BOUND * 4.0 * math.pi
                         * 0.05 * 50.0, 0.05)
    plume = PuffPlume(source=(0.0, 0.0), flow=flow, diffusion=0.05,
                      emission_rate=2.0, start_time=-200.0,
                      seed_puffs=(faint,))
    return plume, [(RIG + (2.0, 97.0), 98.0 + 0.05 * i) for i in range(161)]


QUERIES = (piecewise_calls, seeded_calls, sweeping_calls, creeping_calls,
           approaching_calls, switching_calls)


class TestNeighbourList:
    @pytest.mark.parametrize("calls", QUERIES)
    def test_matches_flat_cull(self, calls):
        plume, queries = calls()
        kept = [assert_matches_flat_cull(plume, pts, t) for pts, t in queries]
        released = [reference_released(plume, t)[0].size
                    for _, t in queries]
        # puffs are both kept and culled along the way
        assert max(kept) > 0 and any(k < n for k, n in zip(kept, released))

    @pytest.mark.parametrize("skin, horizon", [(0.0, 0.0), (1e-9, 1e-9),
                                               (1e3, 1e3)])
    def test_skin_and_horizon_never_change_a_result(self, monkeypatch,
                                                    skin, horizon):
        def outputs():
            c = []
            for calls in QUERIES:
                plume, queries = calls()
                c += [plume.eval_many(pts, t) for pts, t in queries]
            return c

        want = outputs()
        monkeypatch.setattr(field, "SKIN", skin)
        monkeypatch.setattr(field, "HORIZON", horizon)
        assert all(map(np.array_equal, outputs(), want))

    def test_rebuild_count_on_case1_and_a7(self, case1_doc, monkeypatch):
        # each rebuild computes the whole emission train, so a change to
        # the reuse test that rebuilds more often fails here; every list
        # holds the mound alone, so each field call has one candidate
        builds, candidates = [], []
        build, near = PuffPlume._build, PuffPlume._near

        def counting_build(plume, *args):
            nl = build(plume, *args)
            builds.append(nl.rows)
            return nl

        def counting_near(plume, *args):
            rows = near(plume, *args)
            candidates.append(len(rows))
            return rows

        monkeypatch.setattr(PuffPlume, "_build", counting_build)
        monkeypatch.setattr(PuffPlume, "_near", counting_near)
        a7_seed1 = copy.deepcopy(case1_doc)
        a7_seed1.update(seed=1)
        a7_seed1["noise"]["sigma"] = 2.0
        counts = []
        for doc in (case1_doc, a7_seed1):
            builds.clear()
            candidates.clear()
            sc = scenario_from_dict(doc)
            assert len(simulator.run(sc)) == 1201
            counts.append(len(builds))
            mound = sc.field0.seed_puffs[0]
            assert builds == [[[mound.release_time, *mound.point,
                                mound.strength]]] * len(builds)
            assert candidates == [1] * 1201
        assert counts[0] <= 15 and counts[1] <= 15, counts

    def test_fresh_release_at_the_source_is_kept_and_summed(self):
        # the list built at a release holds the puffs released over its
        # horizon at the source; just after the release the new puff is
        # summed, bit for bit as the cull over every released puff sums it
        plume = three_seed_plume()
        pts = RIG + (0.1, 0.05)
        kept = [assert_matches_flat_cull(plume, pts, t)
                for t in (10.0, 10.0 + 1e-3, 10.5 + 1e-3)]
        assert plume._neighbours.t == 10.0
        fresh = [row[0] for row in plume._neighbours.rows if row[0] >= 10.0]
        assert fresh == [10.0 + 0.5 * i for i in range(2 * int(field.HORIZON))]
        assert kept[1] == kept[0] + 1 and kept[2] == kept[1] + 1

    def test_nan_time_reaches_the_result(self):
        plume, queries = seeded_calls()
        assert np.isnan(plume.eval_many(queries[0][0], math.nan)).all()

    def test_shared_plume_runs_match_fresh_runs(self, case1_doc):
        other = copy.deepcopy(case1_doc)
        other.update(duration=20.0, seed=2)
        other["vessel"]["start_pose"] = [-20.0, 15.0, 0.0]
        fresh = [csv_text(simulator.run(scenario_from_dict(d)))
                 for d in (case1_doc, other)]
        a, b = (scenario_from_dict(d) for d in (case1_doc, other))
        b = dataclasses.replace(b, field0=a.field0)
        assert [csv_text(simulator.run(sc)) for sc in (a, b, a)] == \
            [fresh[0], fresh[1], fresh[0]]


def searchsorted_at(flow, t):
    """``FlowField.at`` as first written, on arrays."""
    i = int(np.searchsorted(flow.boundaries, t, side="right"))
    return np.array(flow.velocities[i])


def vectorised_displacement(flow, t0, t1):
    """The flow's integral over [t0, t1] for each t0 of an array, shape
    ``(2,) + np.shape(t0)``: a release time later than t1 gets v(t1)
    (t1 - t0), as no switch reaches it."""
    t0 = np.asarray(t0, dtype=float)
    disp = np.multiply.outer(searchsorted_at(flow, t1), t1 - t0)
    for i, b in enumerate(flow.boundaries):
        if b <= t1:
            jump = np.subtract(flow.velocities[i + 1], flow.velocities[i])
            disp -= np.multiply.outer(jump, np.where(t0 < b, b - t0, 0.0))
    return disp


class TestFlow:
    def test_float_paths_match_array_forms(self):
        # random piecewise flows, queried on and between their switches,
        # with signed zeros and NaN
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(0, 5))
            flow = FlowField(rng.normal(0.0, 1.0, (n + 1, 2)),
                             np.cumsum(rng.uniform(0.01, 4.0, n)) - 3.0)
            times = (rng.uniform(-8.0, 12.0, 5).tolist()
                     + list(flow.boundaries) + [-0.0, 0.0, math.nan])
            for t1 in times:
                want = searchsorted_at(flow, t1)
                assert np.array(flow.at(t1)).tobytes() == want.tobytes()

    @staticmethod
    def carry_cases():
        """Flows with zero to four switches and every pair (t0, t) of
        times before, on, between and after them, -0.0, 0.0 and NaN,
        each with a random point and the point (-0.0, 0.0)."""
        rng = np.random.default_rng(23)
        for n in (0, 1, 2, 4):
            b = np.sort(rng.uniform(-6.0, 9.0, n)).tolist()
            flow = FlowField(rng.normal(0.0, 1.0, (n + 1, 2)), b)
            times = (rng.uniform(-8.0, 12.0, 4).tolist() + b
                     + [(lo + hi) / 2 for lo, hi in zip(b, b[1:])]
                     + [-0.0, 0.0, math.nan])
            for t0, t in itertools.product(times, repeat=2):
                yield flow, rng.uniform(-50.0, 50.0, 2).tolist(), t0, t
                yield flow, (-0.0, 0.0), t0, t

    def test_carry_is_the_two_branch_form(self):
        # forward, back, t == t0 and NaN, with switches before, between,
        # at and after the endpoints
        seen = set()
        for flow, (x, y), t0, t in self.carry_cases():
            got = flow.carry(x, y, t0, t)
            assert type(got) is tuple and len(got) == 2
            assert all(type(v) is float for v in got)
            want = array_carry(flow, (x, y), t0, t)
            assert np.array(got).tobytes() == want.tobytes(), (t0, t)
            if math.isnan(t):
                assert all(map(math.isnan, got))
            seen.add("nan" if math.isnan(t) or math.isnan(t0) else
                     "same" if t == t0 else "back" if t < t0 else "forward")
        assert seen == {"nan", "same", "back", "forward"}

    def test_array_displacement_is_carrys_increment(self):
        # the array form the cull references move whole trains by
        checked = 0
        for flow, (x, y), t0, t in self.carry_cases():
            if not t0 <= t:
                continue
            t0s = np.array([t0, t0 - 1.5, t0 + 0.25])
            dx, dy = vectorised_displacement(flow, t0s, t).tolist()
            for i, ti in enumerate(t0s.tolist()):
                if ti <= t:
                    got = np.array(flow.carry(x, y, ti, t))
                    want = np.array([x + dx[i], y + dy[i]])
                    assert got.tobytes() == want.tobytes(), (ti, t)
                    checked += 1
        assert checked > 500

    def test_at_hands_out_a_copy(self):
        f = FlowField.uniform((0.1, 0.0))
        f.at(0.0)[0] = 5.0
        assert f.at(0.0) == [0.1, 0.0]

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

    def test_equal_models_compare_and_hash_equal(self):
        # lists and arrays give the same float tuples
        f = FlowField([[0.1, 0.0], [0.0, 0.1]], [30.0])
        g = FlowField(np.array([[0.1, 0.0], [0.0, 0.1]]), np.array([30.0]))
        blobs = [FrozenGaussian(10.0, 2.0, (1, 2), f),
                 FrozenGaussian(10.0, 2.0, np.array([1.0, 2.0]), g)]
        for a, b in ((f, g), blobs):
            assert a == b and hash(a) == hash(b)
        assert f != FlowField.uniform((0.1, 0.0))

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

    def test_origin_is_a_read_only_float_pair(self):
        # a write to the origin can no longer move where the grid samples
        g = GridField(np.array([-3, 2]), 0.5, np.ones((8, 8)), 0.1, STILL)
        with pytest.raises(TypeError):
            g.origin[0] = 7.0
        assert g.origin == (-3.0, 2.0)
        assert list(map(type, g.origin)) == [float] * 2
        assert g.eval_many([(-1.0, 4.0)], 0.0) == [1.0]

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
    def test_step_bit_equal_to_four_pass_step(self, boundary):
        # one shared difference per axis gives the four-pass step's bits,
        # signed zeros included, over chained steps
        rng = np.random.default_rng(24)
        for v in GRID_FLOWS:
            for k in (0.0, 0.4):
                for shape in ((3, 3), (17, 11), (40, 40)):
                    conc = rng.uniform(0, 10, shape)
                    conc[rng.uniform(size=shape) < 0.3] = 0.0
                    if shape == (17, 11):       # stored column-major
                        conc = np.asfortranarray(conc)
                    g = GridField((0.5, -1.0), 0.25, conc, k,
                                  FlowField.uniform(v), boundary)
                    for _ in range(5):
                        dt = (min(g.max_stable_dt(), 0.7)
                              * rng.uniform(0.2, 1.0))
                        ref = four_pass_step(g, dt)
                        g = g.step(dt)
                        assert np.array_equal(g.conc, ref), (v, k, shape)
                        assert np.array_equal(np.signbit(g.conc),
                                              np.signbit(ref)), (v, k, shape)

    @pytest.mark.parametrize("boundary", ["outflow", "periodic"])
    def test_negative_zero_edges_step_as_four_passes(self, boundary):
        # the cells store -0.0 as 0.0: the west and south passes take the
        # ghost term away where the four passes add it, and -0.0 - 0.0 is
        # -0.0, which zero terms from negative neighbours would keep
        rng = np.random.default_rng(28)
        edge = np.ones((9, 7), dtype=bool)
        edge[1:-1, 1:-1] = False
        for v in GRID_FLOWS:
            for k in (0.0, 0.4):
                conc = rng.uniform(-10, 10, edge.shape)
                conc[edge & (rng.uniform(size=edge.shape) < 0.5)] = -0.0
                g = GridField((0.5, -1.0), 0.25, conc, k,
                              FlowField.uniform(v), boundary)
                assert not np.signbit(g.conc[g.conc == 0]).any()
                for _ in range(3):
                    dt = min(g.max_stable_dt(), 0.7) * rng.uniform(0.2, 1.0)
                    ref = four_pass_step(g, dt)
                    g = g.step(dt)
                    assert np.array_equal(np.signbit(g.conc),
                                          np.signbit(ref)), (v, k)
                    assert np.array_equal(g.conc, ref), (v, k)

    def test_step_leaves_earlier_fields_alone(self):
        # the steps of a chain share work buffers, never a returned conc
        rng = np.random.default_rng(25)
        g = self.make_grid(rng.uniform(0, 5, (12, 9)), v=(0.3, -0.2),
                           boundary="outflow")
        dt = g.max_stable_dt()
        g1 = g.step(dt)
        before = g1.conc.copy()
        g2 = g1.step(dt)
        assert np.array_equal(g1.conc, before)
        assert np.array_equal(g1.conc, g.step(dt).conc)
        assert not np.shares_memory(g1.conc, g2.conc)
        assert np.array_equal(g2.conc, g.step(dt).step(dt).conc)

    def test_cells_and_work_buffers_are_cache_line_aligned(self):
        def aligned(a):
            return a.ctypes.data % 64 == 0

        rng = np.random.default_rng(26)
        for conc in (rng.uniform(0, 5, (12, 9)),
                     np.asfortranarray(rng.uniform(0, 5, (7, 11))),
                     rng.uniform(0, 5, (40, 40))[1:-1, 3:]):
            g = self.make_grid(conc, v=(0.3, -0.2))
            assert aligned(g.conc) and g.conc.flags.c_contiguous
            for _ in range(5):
                g = g.step(g.max_stable_dt())
                assert aligned(g.conc) and all(map(aligned, g._scratch))
        p = GaussianPuff(-2.0, (5.0, 5.0), 40.0, 1.0)
        assert aligned(GridField.from_puff(p, STILL, 0.0, (0, 0), 0.5,
                                           (20, 20)).conc)

    def test_cells_are_a_read_only_copy(self):
        conc = np.ones((8, 8))
        g = self.make_grid(conc)
        pts = [(4.2, 3.3), (5.0, 5.0)]
        before = g.eval_many(pts, 0.0)
        conc[:] = 7.0
        assert g.eval_many(pts, 0.0) == before
        stepped = g.step(0.1)
        for cells in (g.conc, stepped.conc):
            with pytest.raises(ValueError):
                cells[0, 0] = 1.0

    @pytest.mark.parametrize("boundary", ["outflow", "periodic"])
    def test_stepped_field_equals_a_constructed_one(self, boundary):
        rng = np.random.default_rng(27)
        g = GridField((0.5, -1.0), 0.25, rng.uniform(0, 5, (12, 9)), 0.4,
                      FlowField([(0.3, -0.2), (-0.1, 0.4)], (0.05,)),
                      boundary, time=0.01)
        for _ in range(3):
            g = g.step(0.02)
            built = GridField(g.origin, g.cell_size, g.conc, g.diffusion,
                              g.flow, g.boundary, time=g.time)
            assert g == built and hash(g) == hash(built)
            assert vars(g).keys() == vars(built).keys()

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

    @pytest.mark.parametrize("flow", [
        FlowField.uniform((0.5, 0.0)),
        FlowField(((0.5, 0.0), (-3.0, 1.0), (0.2, -0.4)), (0.93, 1.5))])
    @pytest.mark.parametrize("k, substep", [
        (0.05, 0.01),        # below the stable dt: the substep sets the parts
        (2.0, 0.05)])        # above it: the stable dt does
    def test_counted_substeps_are_the_steps_advance_takes(
            self, monkeypatch, flow, k, substep):
        puff = GaussianPuff(-5.0, (0.0, 0.0), 100.0, k)
        grid = GridField.from_puff(puff, flow, 0.0, (-4.0, -4.0), 0.5,
                                   (16, 16))
        assert (substep < grid.max_stable_dt()) == (k == 0.05)
        steps, dt = 40, 0.05
        taken = []
        step = GridField.step
        monkeypatch.setattr(GridField, "step",
                            lambda g, h: taken.append(h) or step(g, h))
        g = grid
        for i in range(steps + 1):              # as a run advances its field
            g = g.advance(i * dt, substep)
        monkeypatch.undo()
        assert len(taken) > steps
        counted = list(grid._substeps((i * dt for i in range(steps + 1)),
                                      substep))
        assert float_bits(counted) == float_bits(taken)
        # and they are the substeps of the loop that advance once ran
        looped, g = [], grid
        for i in range(steps + 1):
            while g.time < i * dt - 1e-12:
                span = i * dt - g.time
                n = max(1, int(math.ceil(
                    span / min(g.max_stable_dt(), substep) - 1e-12)))
                looped.append(span / n)
                g = g.step(span / n)
        assert float_bits(looped) == float_bits(taken)
        # the budget is the count: one substep fewer is refused
        monkeypatch.setattr(field, "MAX_GRID_SUBSTEPS", len(taken))
        grid.check_run(steps, dt, substep)
        monkeypatch.setattr(field, "MAX_GRID_SUBSTEPS", len(taken) - 1)
        with pytest.raises(ValueError, match="explicit grid substeps"):
            grid.check_run(steps, dt, substep)

    def test_substep_that_leaves_the_time_unchanged_is_refused(self):
        # the time's ulp at 1e15 is 0.125, so t + 0.05 rounds back to t
        # and the substeps never reach the target.  A child process runs
        # it, so that a loop that never ends fails by the timeout
        child = textwrap.dedent("""
            import numpy as np
            from plumetrack.field import FlowField, GridField, StepSizeError
            g = GridField((0.0, 0.0), 0.5, np.zeros((8, 8)), 0.05,
                          FlowField.uniform((0.0, 0.0)), time=1e15)
            for go in (lambda: g.advance(1e15 + 1.0, 0.05),
                       lambda: list(g._substeps((1e15 + 1.0,), 0.05))):
                try:
                    go()
                except StepSizeError as exc:
                    print(exc)
            """)
        proc = subprocess.run([sys.executable, "-c", child],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "a grid substep of 0.05 s leaves t = 1e+15 s unchanged"] * 2

    def test_eval_many_bit_equal_to_point_formula(self):
        rng = np.random.default_rng(23)
        h, shape = 0.37, np.array([24, 31])
        g = GridField((-3.0, 2.0), h, rng.uniform(0, 50, shape), 0.2, STILL)
        # every point whose cell and difference ring lie inside
        lo = np.array(g.origin) + 1.5 * h
        hi = np.array(g.origin) + (shape - 1.5) * h - 1e-9
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_points_raise_domain_error(self, bad, first):
        g = self.make_grid(np.ones((10, 10)))
        for axis in (0, 1):
            pt = [5.0, 5.0]
            pt[axis] = bad
            pts = [pt, (4.2, 3.3)] if first else [(4.2, 3.3), (5.0, 6.0), pt]
            with pytest.raises(DomainError, match=re.escape(
                    f"sample at {pt} too close to the grid boundary")):
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


def float_bits(values):
    """The IEEE bits of each value of an ``eval_many`` result, which must
    be a list of Python floats."""
    assert type(values) is list
    assert all(type(v) is float for v in values)
    return [struct.pack("<d", v) for v in values]


def as_pairs(pts):
    """An (m, 2) array's rows as the tuple of float 2-tuples a run
    passes."""
    return tuple((x, y) for x, y in np.asarray(pts).tolist())


class TestPointInput:
    """A tuple of float pairs and the same points as an (m, 2) ndarray
    give the same floats, bit for bit."""

    @staticmethod
    def assert_same(f, pts, t):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        want = float_bits(f.eval_many(pts, t))
        assert float_bits(f.eval_many(as_pairs(pts), t)) == want
        return want

    def test_case1_plume(self, case1_doc):
        plume = scenario_from_dict(case1_doc).field0
        for t in (0.0, 0.05, 7.3, 30.0, 59.95):
            # the rig and head point about the mound and on the train
            for ctr in (plume.centroid(t), np.add(plume.source, (2.0, 0.5))):
                assert len(self.assert_same(plume, ctr + RIG, t)) == 5
            self.assert_same(plume, plume.centroid(t), t)
            assert self.assert_same(plume, np.empty((0, 2)), t) == []

    def test_frozen_gaussian(self):
        flow = FlowField([[0.4, -0.1], [0.0, 0.3]], [2.0])
        f = FrozenGaussian(60.0, 3.0, (1.0, -2.0), flow)
        for t in (-1.0, 0.0, 2.0, 5.5):
            assert len(self.assert_same(f, RIG * 4.0 + (1.5, -2.0), t)) == 5
            self.assert_same(f, (1.0, -2.0), t)
            assert self.assert_same(f, np.empty((0, 2)), t) == []

    def test_grid(self):
        rng = np.random.default_rng(31)
        g = GridField((-3.0, 2.0), 0.37, rng.uniform(0, 50, (24, 31)), 0.2,
                      STILL)
        x0 = np.array(g.origin)
        pts = rng.uniform(x0 + 0.6, x0 + 7.5, (40, 2))
        assert len(self.assert_same(g, pts, 0.0)) == 40
        self.assert_same(g, pts[0], 0.0)
        assert self.assert_same(g, np.empty((0, 2)), 0.0) == []
        for bad in (math.nan, math.inf, -math.inf):
            for axis in (0, 1):
                pt = [1.0, 5.0]
                pt[axis] = bad
                for points in (np.array([pts[0], pt]),
                               as_pairs([pts[0], pt])):
                    with pytest.raises(DomainError):
                        g.eval_many(points, 0.0)


# values at every scale, with the IEEE special cases: signed zeros,
# subnormals, the largest finite values, infinities and NaN
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -1e-310, 1.0, -1.0,
           1.3e308, -1.3e308, 1.7976931348623157e308, math.inf, -math.inf,
           math.nan)


def mixed_values(rng, n):
    """n floats: a fifth from SPECIAL, the rest random signs and
    exponents from 1e-320 to 1e308."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320, 308, n)
    pick = rng.random(n) < 0.2
    x[pick] = rng.choice(SPECIAL, pick.sum())
    return x.tolist()


def bits(v):
    """A float's IEEE bits, or "nan" for any NaN (numpy and Python may
    give NaNs of different sign)."""
    return "nan" if v != v else struct.pack("<d", v)


class TestFloatRules:
    """``field.hypot``, ``field.dot`` and ``field.mean_point``, the float
    rules the step's layers share, bit for bit against references."""

    def test_hypot_is_numpys(self):
        rng = np.random.default_rng(41)
        xs, ys = mixed_values(rng, 4000), mixed_values(rng, 4000)
        pairs = [*zip(xs, ys), *[(a, b) for a in SPECIAL for b in SPECIAL]]
        with np.errstate(over="ignore"):
            want = [bits(float(np.hypot(x, y))) for x, y in pairs]
        got = [field.hypot(x, y) for x, y in pairs]
        assert all(type(v) is float for v in got)
        assert [bits(v) for v in got] == want
        # a finite pair whose norm overflows is inf, not an error
        assert field.hypot(1.3e308, 1.3e308) == math.inf

    def test_dot_adds_left_to_right(self):
        rng = np.random.default_rng(42)
        for n in (0, 1, 2, 3, 6, 7, 8, 9, 17):
            for _ in range(200):
                u, v = mixed_values(rng, n), mixed_values(rng, n)
                want = np.float64(0.0)
                for a, b in zip(u, v):
                    with np.errstate(all="ignore"):
                        want = want + np.float64(a) * np.float64(b)
                got = field.dot(u, v)
                assert type(got) is float
                assert bits(got) == bits(float(want))
        # signed zeros: the sum starts from +0.0
        assert bits(field.dot([-0.0], [1.0])) == bits(0.0)

    def test_mean_point_is_numpys(self):
        rng = np.random.default_rng(43)
        for m in range(1, 8):
            for _ in range(300):
                pts = list(zip(mixed_values(rng, m), mixed_values(rng, m)))
                with np.errstate(all="ignore"):
                    want = np.mean(np.array(pts), axis=0).tolist()
                got = field.mean_point(pts)
                assert all(type(v) is float for v in got)
                assert [bits(v) for v in got] == [bits(v) for v in want]
            # all negative zeros: numpy's sum starts from +0.0 too
            zeros = [(-0.0, -0.0)] * m
            assert [bits(v) for v in field.mean_point(zeros)] == \
                [bits(v) for v in np.mean(np.array(zeros), axis=0).tolist()]
