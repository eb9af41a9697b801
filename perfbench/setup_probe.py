"""Set-up probe, run in a fresh interpreter for each ``setup_s`` sample.

    python3 perfbench/setup_probe.py <repo root> <scenario document>

Does what ``plume run`` does before its first control step: imports
``plumetrack.cli``, then ``load_raw`` and ``scenario_from_dict`` of the
document, which builds the field.  Prints one JSON line with
``time.monotonic()`` at the moment set-up ended, so that the parent, which
noted the same clock before it started this process, gets the whole
set-up including interpreter start, and the import and load times on
their own.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    root, doc_path = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    from plumetrack import cli, scenario_io  # noqa: F401  (cli: what plume imports)
    t1 = time.perf_counter()
    scenario = scenario_io.scenario_from_dict(scenario_io.load_raw(doc_path),
                                              origin=doc_path)
    t2 = time.perf_counter()
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_ms": (t1 - t0) * 1e3,
                      "load_ms": (t2 - t1) * 1e3, "name": scenario.name}))
