"""Fast self-check suite behind ``plume validate``.

Each check is a pure function returning (ok, detail).  The suite covers
the analytic-field oracles (PDE residual, derivative consistency), the
grid solver against the puff closed form, the input-transform identities
(including a demonstration that the sign-flipped inverse variant is not
an inverse), and the stencil-estimator properties.  Everything runs in a
few seconds.
"""

from __future__ import annotations

import math

import numpy as np

from . import sensing, vessel
from .field import FlowField, GaussianPuff, GridField, puff_concentration
from .sensing import RigEstimator, SensorRig, design_matrix


def _rel_steps(puff: GaussianPuff, t: float):
    """FD steps scaled to the puff's natural scales: the age tau and the
    Gaussian standard deviation sqrt(2 k tau).  Absolute steps would push
    the truncation error past the tolerances at small tau."""
    tau = t - puff.release_time
    return 1e-3 * tau, 1e-3 * math.sqrt(2.0 * puff.diffusion * tau)


def _fd_derivatives(puff: GaussianPuff, flow: FlowField, x, t: float,
                    h: float):
    """Central-difference gradient (gx, gy) and 5-point Laplacian of the
    puff's c at (x, t), with spatial step h."""
    x = np.asarray(x, dtype=float)
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    east, west, north, south = (puff_concentration(puff, flow, p, t)
                                for p in (x + ex, x - ex, x + ey, x - ey))
    grad = np.array([(east - west) / (2 * h), (north - south) / (2 * h)])
    lap = (east + west + north + south
           - 4.0 * puff_concentration(puff, flow, x, t)) / (h * h)
    return grad, lap


def pde_residual(puff: GaussianPuff, flow: FlowField, x, t: float) -> float:
    """|dc/dt + v . grad c - k lap c| / peak via central differences."""
    ht, hx = _rel_steps(puff, t)
    ct = (puff_concentration(puff, flow, x, t + ht)
          - puff_concentration(puff, flow, x, t - ht)) / (2 * ht)
    (gx, gy), lap = _fd_derivatives(puff, flow, x, t, hx)
    v = flow.at(t)
    resid = ct + v[0] * gx + v[1] * gy - puff.diffusion * lap
    return abs(resid) / puff.peak(t)


def _random_puff_probes(rng: np.random.Generator, n: int):
    """Random puffs/flows/probe points; tau in [0.1, 10], k in [0.2, 2]."""
    for _ in range(n):
        k = rng.uniform(0.2, 2.0)
        q = rng.uniform(0.5, 50.0)
        t0 = rng.uniform(-5.0, 5.0)
        tau = rng.uniform(0.1, 10.0)
        v = rng.uniform(-1.0, 1.0, size=2)
        origin = rng.uniform(-10.0, 10.0, size=2)
        puff = GaussianPuff(t0, origin, q, k)
        flow = FlowField.uniform(v)
        sigma = math.sqrt(2.0 * k * tau)
        x = puff.center(flow, t0 + tau) + rng.uniform(-3, 3, size=2) * sigma
        yield puff, flow, x, t0 + tau


def check_pde_residual(n: int = 300, seed: int = 11):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for puff, flow, x, t in _random_puff_probes(rng, n):
        worst = max(worst, pde_residual(puff, flow, x, t))
    return worst <= 1e-4, f"max normalized residual {worst:.3e} (limit 1e-4)"


def check_puff_derivatives(n: int = 300, seed: int = 12):
    """Analytic gradient/Laplacian vs central differences, relative to peak."""
    from .field import puff_gradient, puff_laplacian
    rng = np.random.default_rng(seed)
    worst = 0.0
    for puff, flow, x, t in _random_puff_probes(rng, n):
        _, hx = _rel_steps(puff, t)
        peak = puff.peak(t)
        fd_g, fd_l = _fd_derivatives(puff, flow, x, t, hx)
        eg = np.abs(puff_gradient(puff, flow, x, t) - fd_g).max() / peak
        el = abs(puff_laplacian(puff, flow, x, t) - fd_l) / peak
        worst = max(worst, eg, el)
    return worst <= 1e-6, f"max derivative mismatch {worst:.3e} (limit 1e-6)"


def check_grid_vs_puff(shape=(120, 120), advance: float = 0.25,
                       flow: FlowField = FlowField.uniform((0.3, 0.15))):
    """Explicit upwind/diffusion grid against the analytic puff."""
    k, tau0 = 1.0, 2.0
    puff = GaussianPuff(-tau0, (0.0, 0.0), 4.0 * math.pi * k * tau0 * 30.0, k)
    h = 0.35
    origin = (-0.5 * shape[0] * h + puff.center(flow, 0.0)[0],
              -0.5 * shape[1] * h + puff.center(flow, 0.0)[1])
    grid = GridField.from_puff(puff, flow, 0.0, origin, h, shape,
                               boundary="periodic")
    grid = grid.advance(advance)
    ref = GridField.from_puff(puff, flow, grid.time, origin, h, shape,
                              boundary="periodic")
    peak = puff.peak(grid.time)
    err = float(np.abs(grid.conc - ref.conc).max()) / peak
    return err <= 0.02, f"max error {100 * err:.3f}% of peak (limit 2%)"


def check_grid_mass(steps: int = 50):
    rng = np.random.default_rng(5)
    conc = rng.uniform(0.0, 10.0, size=(48, 40))
    grid = GridField((0.0, 0.0), 0.5, conc, 0.3,
                     FlowField.uniform((0.4, -0.3)), "periodic")
    m0 = grid.mass()
    dt = grid.max_stable_dt()
    worst = 0.0
    prev = m0
    for _ in range(steps):
        grid = grid.step(dt)
        m = grid.mass()
        worst = max(worst, abs(m - prev) / m0)
        prev = m
    return worst <= 1e-10, f"max relative drift/step {worst:.3e} (limit 1e-10)"


def _misprinted_inverse(theta: float, offset: float) -> np.ndarray:
    # sign-flipped (2, 2) entry; a common transcription error
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s / offset, -c / offset]])


def check_transform_identity(n: int = 10000, seed: int = 3):
    """|C to_actuators(u) - u|_inf over random (theta, l0, u), with
    actuator limits that never clip: the inverse the run applies."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        theta = rng.uniform(-math.pi, math.pi)
        l0 = rng.uniform(1e-3, 10.0)
        u = rng.uniform(-1.0, 1.0, size=2)
        params = vessel.VesselParams(offset=l0, nu_max=1e6, omega_max=1e6)
        nu, omega, _ = vessel.to_actuators(u, math.cos(theta),
                                           math.sin(theta), params)
        err = np.abs(vessel.input_matrix(theta, l0) @ (nu, omega) - u).max()
        worst = max(worst, err)
    return worst < 1e-12, f"max |C C^-1 u - u| = {worst:.3e} (limit 1e-12)"


def check_misprint_rejected(n: int = 200, seed: int = 4):
    """The sign-flipped inverse variant violates the identity at generic
    headings (it happens to coincide with the true inverse at +/- pi/2)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        theta = rng.uniform(-math.pi, math.pi)
        l0 = rng.uniform(0.1, 5.0)
        err = np.abs(vessel.input_matrix(theta, l0)
                     @ _misprinted_inverse(theta, l0) - np.eye(2)).max()
        worst = max(worst, err)
    return worst > 0.5, f"max identity violation {worst:.3e} (expected large)"


def _rigs_for_checks():
    rigs = [SensorRig.cross(0.75), SensorRig.cross(0.3),
            SensorRig.uneven_cross()]
    for theta in (0.4, 1.1, 2.2):
        rigs.append(SensorRig(sensing.world_positions(
            SensorRig.cross(0.6), 0.0, 0.0, math.cos(theta), math.sin(theta))))
    return rigs


def check_affine_gradient(seed: int = 7):
    """Gradient exact on affine fields for the shipped (point-symmetric)
    rigs; min-norm smearing breaks this for generic asymmetric rigs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rig in _rigs_for_checks():
        estimator = RigEstimator.for_offsets(rig.offsets)
        for _ in range(50):
            g = rng.uniform(-5, 5, size=2)
            c0 = rng.uniform(1, 100)
            readings = rig.offsets @ g + c0
            _, gx, gy, _ = estimator.estimate(readings, 1.0, 0.0)
            denom = max(1.0, float(np.abs(g).max()))
            worst = max(worst, float(np.abs((gx, gy) - g).max()) / denom)
    return worst <= 1e-9, f"max relative gradient error {worst:.3e} (limit 1e-9)"


def check_mean_and_zero_sum(seed: int = 8):
    rng = np.random.default_rng(seed)
    worst = 0.0
    estimator = RigEstimator.for_offsets(SensorRig.cross().offsets)
    for _ in range(500):
        readings = rng.uniform(0, 100, size=4)
        mean = readings.mean()
        y = readings - mean
        c_hat = estimator.estimate(readings, 1.0, 0.0)[0]
        if c_hat != mean:
            return False, "c_hat differs from the arithmetic mean"
        worst = max(worst, abs(float(y.sum())) / max(1.0, mean))
    return worst <= 1e-12, f"max |sum y| = {worst:.3e} (limit 1e-12 relative)"


def check_trace_blindness(n: int = 1000, seed: int = 9):
    """Equal-arm point-symmetric rigs return exactly zero trace for any
    readings (the mean-referenced stencil cannot see the Hessian trace)."""
    rng = np.random.default_rng(seed)
    rigs = [SensorRig.cross(0.75), SensorRig.cross(1.3)]
    for theta in (0.3, 1.9):
        rigs.append(SensorRig(sensing.world_positions(
            SensorRig.cross(0.9), 0.0, 0.0, math.cos(theta), math.sin(theta))))
    estimators = [RigEstimator.for_offsets(rig.offsets) for rig in rigs]
    worst = 0.0
    for i in range(n):
        readings = rng.uniform(0, 200, size=4)
        lap = estimators[i % len(rigs)].estimate(readings, 1.0, 0.0)[3]
        worst = max(worst, abs(lap) / max(1.0, readings.max()))
    return worst <= 1e-10, f"max |trace|/scale = {worst:.3e} (limit 1e-10)"


def check_degenerate_stencil():
    positions = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1e-9], [0.0, -1e-9]])
    try:
        RigEstimator.for_offsets(positions)
    except sensing.DegenerateStencilError:
        return True, "near-collinear stencil rejected"
    return False, "near-collinear stencil was not rejected"


def check_pseudoinverse_agreement(seed: int = 10):
    """The explicit B^T (B B^T)^-1 y against the estimator at random poses:
    grad and lap of the estimator of the world positions at heading 0 and
    of the rig's at its heading, and the rig's pinv(B_body) y in body
    axes, off-trace Hessian included."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rig in _rigs_for_checks():
        per_rig = RigEstimator.for_offsets(rig.offsets)
        B_body = np.array(design_matrix(rig.offsets))
        for _ in range(50):
            x, y = rng.uniform(-50, 50, size=2)
            theta = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(theta), math.sin(theta)
            positions = sensing.world_positions(rig, x, y, c, s)
            B = np.array(design_matrix(positions))
            readings = rng.uniform(0, 100, size=4)
            y = readings - readings.mean()
            explicit = B.T @ np.linalg.solve(B @ B.T, y)
            body = B_body.T @ np.linalg.solve(B_body @ B_body.T, y)
            want = np.r_[explicit[:2], explicit[2] + explicit[5]]
            errors = [np.array(est[1:]) - want
                      for est in (RigEstimator.for_offsets(positions)
                                  .estimate(readings, 1.0, 0.0),
                                  per_rig.estimate(readings, c, s))]
            errors.append(per_rig.pinv @ y - body)
            scale = max(1.0, float(np.abs(explicit).max()))
            worst = max(worst, *(np.abs(e).max() / scale for e in errors))
    return worst <= 1e-10, f"max route disagreement {worst:.3e} (limit 1e-10)"


ALL_CHECKS = (
    ("puff-pde-residual", check_pde_residual),
    ("puff-derivatives-vs-fd", check_puff_derivatives),
    ("grid-matches-puff", check_grid_vs_puff),
    ("grid-mass-conservation", check_grid_mass),
    ("transform-identity", check_transform_identity),
    ("misprinted-inverse-rejected", check_misprint_rejected),
    ("stencil-affine-gradient", check_affine_gradient),
    ("stencil-mean-and-zero-sum", check_mean_and_zero_sum),
    ("stencil-trace-blindness", check_trace_blindness),
    ("stencil-degenerate-rejected", check_degenerate_stencil),
    ("stencil-pseudoinverse-routes-agree", check_pseudoinverse_agreement),
)


def run_validation(write=print) -> bool:
    """Run every check, print one pass/fail line each, return overall."""
    all_ok = True
    for name, fn in ALL_CHECKS:
        ok, detail = fn()
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
