"""Run the bundled case1 scenario in-process and plot the results.

Equivalent to `plume run scenarios/case1.json --out out/demo` followed
by the two plot commands, but driving the library directly.  Run from
the repo root; the outputs go to the directory given, out/demo if none:

    python demos/03_closed_loop.py [out_dir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from plumetrack import simulator
from plumetrack.plotting import timeseries_svg, trajectory_svg, read_log
from plumetrack.scenario_io import load_scenario

out = Path(sys.argv[1] if len(sys.argv) > 1 else "out/demo")
out.mkdir(parents=True, exist_ok=True)

scenario = load_scenario("scenarios/case1.json")
log = simulator.run(scenario)
m = simulator.metrics(log, scenario)

print(f"records: {len(log)}, tracking reached at {m.tracking_reached_at} s")
print(f"rms |c_hat - c0| over the final half: {m.rms_conc_error:.3f} ppb")
print(f"patrol speed {m.mean_patrol_speed:.3f} m/s "
      f"(commanded {scenario.gains.v_d})")
print(f"winding: {m.winding_angle / (2 * math.pi):+.2f} turns "
      f"(negative = clockwise)")

with open(out / "log.csv", "w") as fh:
    log.to_csv(fh)
parsed = read_log(out / "log.csv")
src = np.stack([scenario.field0.centroid(float(t)) for t in parsed["t"]])
(out / "trajectory.svg").write_text(trajectory_svg(parsed, src))
(out / "timeseries.svg").write_text(timeseries_svg(parsed, scenario.gains.c0))
print(f"wrote {out}/log.csv, trajectory.svg, timeseries.svg")
