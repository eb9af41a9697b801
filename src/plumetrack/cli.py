"""Command-line front end.

    plume run <scenario> --out <dir> [--seed N]
    plume sweep <scenario> --set key=v1,v2 ... --out <dir> [--jobs N]
    plume plot --kind <kind> --log <csv> --out <svg> [--c0 X] [--scenario S]
    plume validate

Exit codes are a stable contract: 0 success, 2 input error (an output
path that cannot be written included), 3 truncated run, 4 numerical
abort.  All outputs are written atomically (temp file plus rename),
diagnostics go to stderr (PLUME_LOG=debug|info raises the verbosity),
data never does.  The process pool, the plots and the self-checks are
imported by the commands that use them, so that ``plume run`` starts
without them, and numpy is imported by the models that compute on
arrays when they first do (a grid at load, noise at its first draw), so
that a noise-free run of a puff plume or a frozen Gaussian imports none
of it.  Each numpy block that can overflow on an extreme
document keeps numpy quiet itself, so no warning reaches stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import simulator
from .guidance import NonFiniteError
from .scenario_io import (ScenarioError, load_raw, load_scenario,
                          parse_sweep_value, scenario_from_dict, set_path)
from .sensing import DegenerateStencilError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRUNCATED = 3
EXIT_NUMERIC = 4

log = logging.getLogger("plume")


@contextlib.contextmanager
def _atomic_write(path: Path):
    """A text file to write ``path`` through: a temp file beside it that
    replaces ``path`` when the block ends and is removed if it raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _execute_run(scenario: simulator.Scenario,
                 out_dir: Path) -> tuple[int, dict]:
    """Run one scenario and write log/metrics.  Returns the exit code and
    the dict written to metrics.json ({} when the run aborts)."""
    log.info("running scenario %s (seed %d, %.0f s at dt=%g)",
             scenario.name, scenario.seed, scenario.duration,
             scenario.control_period)
    try:
        runlog = simulator.run(scenario)
    except (DegenerateStencilError, NonFiniteError) as exc:
        print(f"error: numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC, {}
    log.info("run complete: %d records%s", len(runlog),
             " (truncated)" if runlog.truncated else "")
    with _atomic_write(out_dir / "log.csv") as fh:
        runlog.to_csv(fh)
    if len(runlog) >= 2:
        m = dataclasses.asdict(simulator.metrics(runlog, scenario))
    else:
        m = {"truncated": runlog.truncated, "seed": scenario.seed}
    with _atomic_write(out_dir / "metrics.json") as fh:
        fh.write(json.dumps(m, indent=2) + "\n")
    if runlog.truncated:
        # printed, like the exit-2 and exit-4 messages, so that it reaches
        # stderr whatever logging the host has set up
        t_end = runlog.table[-simulator.WIDTH] if len(runlog) else 0.0
        print(f"run left the field domain at t={t_end:.3f}; log truncated",
              file=sys.stderr)
        return EXIT_TRUNCATED, m
    return EXIT_OK, m


def cmd_run(args) -> int:
    doc = load_raw(args.scenario)
    if args.seed is not None:
        doc["seed"] = args.seed
    scenario = scenario_from_dict(doc, origin=str(args.scenario))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _execute_run(scenario, out_dir)[0]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ScenarioError(f"--jobs {args.jobs}: expected at least 1")
    doc = load_raw(args.scenario)
    axes = []
    for setting in args.set or []:
        if "=" not in setting:
            raise ScenarioError(f"--set expects key=v1,v2,..., got {setting!r}")
        key, _, values = setting.partition("=")
        vals = [parse_sweep_value(v) for v in values.split(",") if v != ""]
        if not vals:
            raise ScenarioError(f"--set {key}: no values given")
        axes.append((key, vals))
    if not axes:
        raise ScenarioError("sweep needs at least one --set key=v1,v2,...")

    combos = list(itertools.product(*[vals for _, vals in axes]))
    out_root = Path(args.out)
    scenarios, out_dirs = [], []
    for index, combo in enumerate(combos):
        # every combination sets every key, so nothing carries over
        for (key, _), value in zip(axes, combo):
            set_path(doc, key, value)
        # validate every combination up front so bad paths fail fast
        scenarios.append(scenario_from_dict(doc, origin=f"run{index:03d}"))
        out_dirs.append(out_root / f"run{index:03d}")

    out_root.mkdir(parents=True, exist_ok=True)
    # the pool starts every worker up front, so start no more than can work
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)       # the affinity call is Linux-only
    workers = min(args.jobs, len(scenarios), cpus)
    if workers <= 1:
        results = list(map(_execute_run, scenarios, out_dirs))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute_run, scenarios, out_dirs))

    metric_keys = [f.name for f in dataclasses.fields(simulator.RunMetrics)]
    header = ["run"] + [key for key, _ in axes] + metric_keys + ["exit_code"]
    lines = [",".join(header)]
    for index, (combo, (code, m)) in enumerate(zip(combos, results)):
        cells = [f"run{index:03d}"]
        cells += [str(v) for v in combo]
        for key in metric_keys:
            v = m.get(key)
            if v is None:
                cells.append("")
            elif isinstance(v, bool):
                cells.append("1" if v else "0")
            elif isinstance(v, float):
                cells.append("%.9g" % v)
            else:
                cells.append(str(v))
        cells.append(str(code))
        lines.append(",".join(cells))
    with _atomic_write(out_root / "sweep_summary.csv") as fh:
        fh.write("\n".join(lines) + "\n")

    codes = [code for code, _ in results]
    if EXIT_NUMERIC in codes:
        return EXIT_NUMERIC
    if EXIT_TRUNCATED in codes:
        return EXIT_TRUNCATED
    return EXIT_OK


def _input_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT


def cmd_plot(args) -> int:
    from . import plotting
    try:
        if args.c0 is not None and not math.isfinite(args.c0):
            raise plotting.PlotDataError(f"--c0 {args.c0:g} is not finite")
        logdata = plotting.read_log(args.log)
        if args.kind == "concentration-timeseries":
            svg = plotting.timeseries_svg(logdata, args.c0)
        else:
            source_path = None
            if args.scenario is not None:
                import numpy as np
                scenario = load_scenario(args.scenario)
                source_path = np.stack([scenario.field0.centroid(float(t))
                                        for t in logdata["t"]])
            svg = plotting.trajectory_svg(logdata, source_path)
    except plotting.PlotDataError as exc:
        return _input_error(exc)
    with _atomic_write(Path(args.out)) as fh:
        fh.write(svg)
    return EXIT_OK


def cmd_validate(_args) -> int:
    from .validate import run_validation
    return EXIT_OK if run_validation() else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plume",
        description="Level-curve tracking simulation: run scenarios, sweep "
                    "parameters, plot logs, and self-check the numerics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="Cartesian parameter sweep")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--set", action="append", metavar="KEY=V1,V2,...",
                         help="dotted scenario field and value list")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_plot = sub.add_parser("plot", help="render an SVG from a run log")
    p_plot.add_argument("--kind", required=True,
                        choices=["trajectory-xy", "concentration-timeseries"])
    p_plot.add_argument("--log", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--c0", type=float, default=None,
                        help="reference concentration line")
    p_plot.add_argument("--scenario", default=None,
                        help="scenario file; adds the true source path "
                             "to trajectory plots")
    p_plot.set_defaults(fn=cmd_plot)

    p_val = sub.add_parser("validate", help="run the invariant self-checks")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def _configure_logging():
    level = os.environ.get("PLUME_LOG", "").lower()
    if level in ("debug", "info"):
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if level == "debug" else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        return _input_error(exc)
    except OSError as exc:
        # inputs report their own; this is an output that cannot be written
        print(f"error: {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
