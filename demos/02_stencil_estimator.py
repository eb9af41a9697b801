"""Show what the four-sensor stencil can and cannot reconstruct.

The minimum-norm Taylor estimator recovers gradients exactly on
quadratic fields for the stock cross rig, but its divergence output is
structurally zero there; an unequal-arm cross produces a nonzero but
biased divergence.  Run from the repo root:

    python demos/02_stencil_estimator.py
"""

import numpy as np

from plumetrack.sensing import RigEstimator, SensorRig

g_true = np.array([2.0, -1.5])
H_true = np.array([[3.0, 0.4], [0.4, 1.0]])     # trace 4.0


def readings_for(rig):
    return np.array([g_true @ d + 0.5 * d @ H_true @ d + 50.0
                     for d in np.array(rig.offsets)])


for name, rig in (("cross d=0.75", SensorRig.cross(0.75)),
                  ("uneven cross 0.75/0.45", SensorRig.uneven_cross())):
    estimator = RigEstimator.for_offsets(rig.offsets)
    # at heading 0 (cos, sin = 1, 0) the body axes are the world axes
    c_hat, gx, gy, lap = estimator.estimate(readings_for(rig), 1.0, 0.0)
    print(f"{name}:")
    print(f"  gradient estimate {(float(gx), float(gy))}  (true {g_true})")
    print(f"  divergence estimate {lap:+.3f}  (true {np.trace(H_true):g})")

print("\nnoise does not leak into the cross rig's divergence either:")
rng = np.random.default_rng(0)
estimator = RigEstimator.for_offsets(SensorRig.cross(0.75).offsets)
worst = max(abs(estimator.estimate(rng.uniform(0, 100, 4), 1.0, 0.0)[3])
            for _ in range(200))
print(f"  max |divergence| over 200 random reading vectors: {worst:.2e}")
