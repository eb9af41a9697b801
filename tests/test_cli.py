import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from plumetrack import cli as CLI, simulator
from plumetrack.cli import main
from plumetrack.simulator import RunMetrics, expected_records

SHORT_SCENARIO = {
    "schema": 1,
    "name": "short",
    "seed": 7,
    "duration": 3.0,
    "control_period": 0.05,
    "field": {
        "type": "frozen-gaussian", "peak": 60.0, "sigma": 18.0,
        "center": [0.0, 0.0],
        "flow": {"type": "uniform", "velocity": [0.1, 0.0]}},
    "vessel": {"start_pose": [10.8695, 0.5, -1.5707963267948966]},
    "gains": {"c0": 50.0, "k": 1.2, "k1": 5.0, "k2": 11.0, "v_d": 1.5},
}

GRID_ESCAPE = {
    "schema": 1, "name": "grid-escape", "seed": 0, "duration": 30.0,
    "field": {
        "type": "grid", "origin": [-8.0, -8.0], "cell_size": 0.5,
        "shape": [32, 32], "diffusion": 0.05, "boundary": "outflow",
        "flow": {"type": "uniform", "velocity": [0.5, 0.0]},
        "init_puff": {"release_time": -40.0, "point": [-20.0, 0.0],
                      "strength": 1200.0}},
    "vessel": {"start_pose": [2.0, 0.0, -1.5707963267948966]},
    "gains": {"c0": 30.0, "k": 0.05, "k1": 5.0, "k2": 11.0, "v_d": 1.0},
}

# GRID_ESCAPE with k so small that 4 k tau underflows to 0 for a puff
# released 1e-300 s before t = 0
GRID_TINY_K = dict(GRID_ESCAPE, field=dict(GRID_ESCAPE["field"],
                                           diffusion=1e-300))


def write_scenario(tmp_path: Path, doc: dict, name="sc.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "plumetrack.cli", *args],
                          capture_output=True, text=True)


def summary_rows(out: Path) -> list[dict]:
    """The rows of a sweep's summary, each checked against its member's
    metrics.json: "" for null or a missing file, 1/0 for bools and %.9g
    for floats."""
    header, *rows = [r.split(",") for r in
                     (out / "sweep_summary.csv").read_text().splitlines()]
    rows = [dict(zip(header, r)) for r in rows]
    for row in rows:
        path = out / row["run"] / "metrics.json"
        m = json.loads(path.read_text()) if path.exists() else {}
        for f in dataclasses.fields(RunMetrics):
            v = m.get(f.name)
            if v is None:
                want = ""
            elif isinstance(v, bool):
                want = "1" if v else "0"
            elif isinstance(v, float):
                want = "%.9g" % v
            else:
                want = str(v)
            assert row[f.name] == want, (row["run"], f.name)
    return rows


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        out = tmp_path / "out"
        proc = cli("run", str(sc), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = (out / "log.csv").read_text().splitlines()
        assert len(rows) == expected_records(3.0, 0.05) + 1  # header + data
        m = json.loads((out / "metrics.json").read_text())
        assert m["seed"] == 7
        assert not list(out.glob("*.tmp"))

    def test_seed_override_echoed(self, tmp_path):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        out = tmp_path / "out"
        proc = cli("run", str(sc), "--out", str(out), "--seed", "42")
        assert proc.returncode == 0
        assert json.loads((out / "metrics.json").read_text())["seed"] == 42

    def test_missing_gains_field_names_it(self, tmp_path):
        doc = {k: v for k, v in SHORT_SCENARIO.items() if k != "gains"}
        sc = write_scenario(tmp_path, doc)
        proc = cli("run", str(sc), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "gains" in proc.stderr

    def test_unknown_field_rejected(self, tmp_path):
        doc = dict(SHORT_SCENARIO, gians=1)
        sc = write_scenario(tmp_path, doc)
        proc = cli("run", str(sc), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "gians" in proc.stderr

    def test_typo_in_gain_name_rejected(self, tmp_path):
        doc = json.loads(json.dumps(SHORT_SCENARIO))
        doc["gains"]["k3"] = 1.0
        sc = write_scenario(tmp_path, doc)
        proc = cli("run", str(sc), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "k3" in proc.stderr

    def test_json_syntax_error_line_anchored(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "schema": 1,\n  "oops"\n}\n')
        proc = cli("run", str(p), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        import re
        assert re.search(r"broken\.json:\d+:\d+:", proc.stderr)

    def test_missing_file(self, tmp_path):
        proc = cli("run", str(tmp_path / "nope.json"), "--out",
                   str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_truncated_run_exits_3(self, tmp_path):
        sc = write_scenario(tmp_path, GRID_ESCAPE)
        out = tmp_path / "out"
        proc = cli("run", str(sc), "--out", str(out))
        assert proc.returncode == 3
        m = json.loads((out / "metrics.json").read_text())
        assert m["truncated"] is True

    def test_puffs_under_piecewise_flow_run(self, tmp_path, case1_doc):
        doc = json.loads(json.dumps(case1_doc))
        doc["duration"] = 3.0
        doc["field"]["flow"] = {"type": "piecewise", "boundaries": [1.0],
                                "velocities": [[0.03, 0.015], [-0.02, 0.03]]}
        sc = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        proc = cli("run", str(sc), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        rows = (out / "log.csv").read_text().splitlines()
        assert len(rows) == expected_records(3.0, 0.05) + 1
        assert all(float(r.split(",")[-1]) > 0 for r in rows[1:])

    def test_degenerate_stencil_exits_4(self, tmp_path):
        doc = json.loads(json.dumps(SHORT_SCENARIO))
        doc["rig"] = {"offsets": [[1.0, 0.0], [-1.0, 0.0],
                                  [0.0, 1e-7], [0.0, -1e-7]]}
        sc = write_scenario(tmp_path, doc)
        proc = cli("run", str(sc), "--out", str(tmp_path / "o"))
        assert proc.returncode == 4
        assert "stencil" in proc.stderr.lower()

    @pytest.mark.parametrize("section, key, value", [
        (None, "duration", math.nan),
        (None, "control_period", math.inf),
        ("gains", "c0", math.nan)])
    def test_nonfinite_number_exits_2(self, tmp_path, section, key, value):
        doc = json.loads(json.dumps(SHORT_SCENARIO))
        (doc[section] if section else doc)[key] = value
        sc = write_scenario(tmp_path, doc)      # json writes NaN / Infinity
        proc = cli("run", str(sc), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and key in proc.stderr

    def test_diverging_observer_exits_4(self, tmp_path):
        doc = json.loads(json.dumps(SHORT_SCENARIO))
        doc["gains"]["k1"] = 1e6
        sc = write_scenario(tmp_path, doc)
        proc = cli("run", str(sc), "--out", str(tmp_path / "o"))
        assert proc.returncode == 4
        assert proc.stderr.count("\n") == 1
        assert "non-finite planar control" in proc.stderr

    def test_determinism_bytes(self, tmp_path):
        sc = write_scenario(tmp_path, dict(SHORT_SCENARIO, noise={"sigma": 2.0}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli("run", str(sc), "--out", str(out1)).returncode == 0
        assert cli("run", str(sc), "--out", str(out2)).returncode == 0
        assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == \
            (out2 / "metrics.json").read_bytes()

    def test_one_record_run_is_not_truncated(self, tmp_path, capsys):
        # a run shorter than one control period logs only t = 0
        sc = write_scenario(tmp_path, dict(SHORT_SCENARIO, duration=0.01))
        out = tmp_path / "out"
        assert main(["run", str(sc), "--out", str(out)]) == 0
        assert len((out / "log.csv").read_text().splitlines()) == 2
        assert json.loads((out / "metrics.json").read_text()) == \
            {"truncated": False, "seed": 7}
        assert capsys.readouterr().err == ""


class TestSweepCommand:
    def test_product_and_order(self, tmp_path):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        out = tmp_path / "sweep"
        proc = cli("sweep", str(sc), "--set", "gains.k1=2,5,10",
                   "--set", "gains.k2=5,11", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(rows) == 7
        header = rows[0].split(",")
        assert header[:3] == ["run", "gains.k1", "gains.k2"]
        combos = [tuple(r.split(",")[1:3]) for r in rows[1:]]
        assert combos == [("2", "5"), ("2", "11"), ("5", "5"), ("5", "11"),
                          ("10", "5"), ("10", "11")]
        for i in range(6):
            assert (out / f"run{i:03d}" / "log.csv").exists()

    def test_parallelism_invariance(self, tmp_path):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        a = cli("sweep", str(sc), "--set", "gains.k1=2,5", "--out", str(out1),
                "--jobs", "1")
        b = cli("sweep", str(sc), "--set", "gains.k1=2,5", "--out", str(out2),
                "--jobs", "4")
        assert a.returncode == 0 and b.returncode == 0
        assert (out1 / "sweep_summary.csv").read_bytes() == \
            (out2 / "sweep_summary.csv").read_bytes()
        assert len(summary_rows(out1)) == len(summary_rows(out2)) == 2

    def test_one_record_members_are_not_truncated(self, tmp_path):
        sc = write_scenario(tmp_path, dict(SHORT_SCENARIO, duration=0.01))
        out = tmp_path / "s"
        assert main(["sweep", str(sc), "--set", "seed=1,2",
                     "--out", str(out)]) == 0
        rows = summary_rows(out)
        assert [(r["truncated"], r["exit_code"]) for r in rows] == \
            [("0", "0"), ("0", "0")]

    @pytest.mark.parametrize("jobs, runs, cpus, workers", [
        (5000, 3, 4, 3), (2, 3, 4, 2), (4, 3, 2, 2), (5000, 3, 1, None),
        (4, 1, 4, None), (1, 3, 4, None)])
    def test_workers_capped_by_runs_and_cpus(self, tmp_path, monkeypatch,
                                             jobs, runs, cpus, workers):
        # the pool starts max_workers processes up front; this one starts
        # none and maps in process
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(CLI, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(CLI.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        sc = write_scenario(tmp_path, dict(SHORT_SCENARIO, duration=0.5))
        out = tmp_path / "s"
        seeds = ",".join(str(s) for s in range(1, runs + 1))
        assert main(["sweep", str(sc), "--set", f"seed={seeds}",
                     "--out", str(out), "--jobs", str(jobs)]) == 0
        assert started == ([] if workers is None else [workers])
        serial = tmp_path / "serial"
        assert main(["sweep", str(sc), "--set", f"seed={seeds}",
                     "--out", str(serial), "--jobs", "1"]) == 0
        assert (out / "sweep_summary.csv").read_bytes() == \
            (serial / "sweep_summary.csv").read_bytes()

    def test_unknown_path_rejected(self, tmp_path):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        proc = cli("sweep", str(sc), "--set", "gains.bogus=1,2",
                   "--out", str(tmp_path / "s"))
        assert proc.returncode == 2
        assert "bogus" in proc.stderr

    def test_string_valued_sweep(self, tmp_path):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        out = tmp_path / "s"
        proc = cli("sweep", str(sc), "--set",
                   "sign_convention=pde-derived,advection-opposed",
                   "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_truncated_member_propagates_exit_3(self, tmp_path):
        sc = write_scenario(tmp_path, GRID_ESCAPE)
        out = tmp_path / "s"
        proc = cli("sweep", str(sc), "--set", "gains.v_d=1.0,1.2",
                   "--out", str(out))
        assert proc.returncode == 3
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert all(r.endswith(",3") for r in rows[1:])
        assert all(r["truncated"] == "1" for r in summary_rows(out))

    def test_aborted_member_propagates_exit_4(self, tmp_path):
        doc = json.loads(json.dumps(SHORT_SCENARIO))
        doc["rig"] = {"offsets": [[1.0, 0.0], [-1.0, 0.0],
                                  [0.0, 1e-7], [0.0, -1e-7]]}
        sc = write_scenario(tmp_path, doc)
        out = tmp_path / "s"
        proc = cli("sweep", str(sc), "--set", "gains.k1=5,6",
                   "--out", str(out))
        assert proc.returncode == 4
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        # aborted runs leave empty metric cells but keep their exit code
        assert all(r.endswith(",4") for r in rows[1:])
        for row in summary_rows(out):
            assert not (out / row["run"] / "metrics.json").exists()
            assert all(row[f.name] == ""
                       for f in dataclasses.fields(RunMetrics))


class TestPlotCommand:
    def make_log(self, tmp_path) -> Path:
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        out = tmp_path / "out"
        assert cli("run", str(sc), "--out", str(out)).returncode == 0
        return out / "log.csv"

    def test_timeseries_has_six_polylines(self, tmp_path):
        logp = self.make_log(tmp_path)
        svg = tmp_path / "ts.svg"
        proc = cli("plot", "--kind", "concentration-timeseries",
                   "--log", str(logp), "--out", str(svg), "--c0", "50")
        assert proc.returncode == 0, proc.stderr
        assert svg.read_text().count("<polyline") == 6

    def test_trajectory_plot(self, tmp_path, scenarios_dir):
        logp = self.make_log(tmp_path)
        svg = tmp_path / "traj.svg"
        proc = cli("plot", "--kind", "trajectory-xy", "--log", str(logp),
                   "--out", str(svg))
        assert proc.returncode == 0, proc.stderr
        text = svg.read_text()
        assert text.count("<polyline") == 2     # head point + estimate
        assert "<circle" in text and "<rect" in text

    def test_trajectory_plot_with_source_path(self, tmp_path):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        logp = self.make_log(tmp_path)
        svg = tmp_path / "traj.svg"
        proc = cli("plot", "--kind", "trajectory-xy", "--log", str(logp),
                   "--out", str(svg), "--scenario", str(sc))
        assert proc.returncode == 0, proc.stderr
        assert svg.read_text().count("<polyline") == 3

    def test_empty_log_rejected(self, tmp_path):
        from plumetrack.simulator import CSV_COLUMNS
        p = tmp_path / "empty.csv"
        p.write_text(",".join(CSV_COLUMNS) + "\n")
        proc = cli("plot", "--kind", "concentration-timeseries",
                   "--log", str(p), "--out", str(tmp_path / "x.svg"),
                   "--c0", "50")
        assert proc.returncode == 2

    def test_malformed_log_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nonsense\n1,2,3\n")
        proc = cli("plot", "--kind", "trajectory-xy", "--log", str(p),
                   "--out", str(tmp_path / "x.svg"))
        assert proc.returncode == 2

    def test_svg_deterministic(self, tmp_path):
        logp = self.make_log(tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        cli("plot", "--kind", "concentration-timeseries", "--log", str(logp),
            "--out", str(a), "--c0", "50")
        cli("plot", "--kind", "concentration-timeseries", "--log", str(logp),
            "--out", str(b), "--c0", "50")
        assert a.read_bytes() == b.read_bytes()


class TestUnwritableOutput:
    """An --out that cannot be written is an input error: exit 2 with one
    stderr line naming the path, and a run or sweep stops before it runs."""

    @staticmethod
    def check(capsys, argv, path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err
        assert "Traceback" not in err

    @pytest.fixture
    def no_run(self, monkeypatch):
        def run(scenario):
            raise AssertionError("the run started")
        monkeypatch.setattr(simulator, "run", run)

    def test_run(self, tmp_path, capsys, no_run):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        self.check(capsys, ["run", str(sc), "--out", str(sc)], sc)

    def test_sweep(self, tmp_path, capsys, no_run):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        out = sc / "s"
        self.check(capsys, ["sweep", str(sc), "--set", "seed=1,2",
                            "--out", str(out), "--jobs", "2"], out)

    def test_plot(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, dict(SHORT_SCENARIO, duration=0.5))
        assert main(["run", str(sc), "--out", str(tmp_path / "o")]) == 0
        self.check(capsys, ["plot", "--kind", "trajectory-xy",
                            "--log", str(tmp_path / "o" / "log.csv"),
                            "--out", str(sc / "x.svg")], sc)


class TestValidateCommand:
    def test_validate_passes_in_process(self, capsys):
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_misprinted_inverse_fails_identity(self):
        from plumetrack.validate import check_misprint_rejected
        ok, detail = check_misprint_rejected(n=200)
        assert ok, detail


class TestMainInProcess:
    def test_scenario_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2


class TestExitCodeContract:
    """Documents the schema accepts end in exit 0, 2, 3 or 4 with at most
    one stderr line and no traceback; numpy warnings would print more."""

    RETYPED = ("x", None, True, [], {}, [1.0])
    EXTREME = (math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
               0, -1, 10 ** 400)

    @staticmethod
    def paths(node, prefix=()):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield prefix + (key,)
            if isinstance(value, (dict, list)):
                yield from TestExitCodeContract.paths(value, prefix + (key,))

    @staticmethod
    def run_doc(tmp_path, capsys, doc):
        sc = write_scenario(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(sc), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), err
        assert err.count("\n") == (code != 0), err
        assert "Traceback" not in err
        return code

    def test_mutated_documents(self, tmp_path, scenarios_dir, capsys):
        # keys dropped, values retyped, non-finite or extreme
        bases = [json.loads(p.read_text())
                 for p in sorted(scenarios_dir.glob("*.json"))] + [GRID_ESCAPE]
        rng = np.random.default_rng(2024)
        codes = set()
        for trial in range(600):
            doc = json.loads(json.dumps(bases[trial % len(bases)]))
            doc["duration"] = 0.5
            paths = list(self.paths(doc))
            path = paths[rng.integers(len(paths))]
            node = doc
            for key in path[:-1]:
                node = node[key]
            kind = rng.integers(3)
            if kind == 0:
                del node[path[-1]]
            else:
                pool = self.RETYPED if kind == 1 else self.EXTREME
                node[path[-1]] = pool[rng.integers(len(pool))]
            codes.add(self.run_doc(tmp_path, capsys, doc))
        assert {0, 2, 4} <= codes

    @pytest.mark.parametrize("name, path, value, code", [
        ("case1", ("seed",), -1, 2),
        ("case1", ("noise", "floor"), -1.0, 2),
        ("case1", ("rig", "offsets", 0), [0.75, {}], 2),
        ("case1", ("rig", "offsets", 0, 0), 10 ** 400, 2),
        ("case1", ("field", "flow"), {"type": "piecewise", "boundaries": [{}],
                                      "velocities": [[0, 0], [1, 1]]}, 2),
        ("pure_advection", ("duration",), 1e300, 2),
        ("case1", ("field", "puff_interval"), 1e-300, 2),
        ("case1", ("field", "start_time"), -1e300, 2),
        ("pure_advection", ("field", "sigma"), 1e-300, 2),
        ("case1", ("field", "start_time"), 0.2, 0),       # train starts late
        ("case1", ("field", "start_time"), -1e-300, 0),   # 1e-300 s old puff
        ("grid_escape", ("field", "diffusion"), 1e300, 2),  # ~1e300 substeps
        ("grid_escape", ("field", "cell_size"), 1e-300, 2),  # stable dt 0
        ("grid_escape", ("vessel", "start_pose", 0), 1e300, 3),  # exits at t=0
        ("grid_escape", ("field", "origin", 1), -1e300, 3),
        ("grid_tiny_k", ("field", "init_puff", "release_time"), -1e-300, 2),
        # 4 k tau is subnormal, not 0, and the peak Q/(4 pi k tau) overflows
        ("grid_tiny_k", ("field", "init_puff", "release_time"), -1e-10, 2),
        # booleans and numeric strings are not numbers, in arrays too
        ("case1", ("schema",), True, 2),
        ("case1", ("rig", "offsets"), [[True, 0], [-1, 0], [0, True], [0, -1]],
         2),
        ("case1", ("rig", "offsets"),
         [["0.75", "0"], ["-0.75", "0"], ["0", "0.75"], ["0", "-0.75"]], 2),
        ("case1", ("field", "flow"),
         {"type": "piecewise", "boundaries": ["5"],
          "velocities": [["0.1", False], [0, True]]}, 2),
        ("case1", ("field", "flow"),
         {"type": "piecewise", "boundaries": ["5"],
          "velocities": [[0.1, 0], [0, 1]]}, 2),
    ])
    def test_edge_documents(self, tmp_path, scenarios_dir, capsys, name,
                            path, value, code):
        if name.startswith("grid_"):
            base = GRID_ESCAPE if name == "grid_escape" else GRID_TINY_K
            doc = json.loads(json.dumps(base))
        else:
            doc = json.loads((scenarios_dir / f"{name}.json").read_text())
        doc["duration"] = 0.5
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert self.run_doc(tmp_path, capsys, doc) == code

    def test_degenerate_control_overflow_exits_4(self, tmp_path,
                                                 scenarios_dir, capsys):
        # every step is degenerate, and the pull -k2 (z - x_hat) on the
        # 4 m head offset overflows at t = 0
        doc = json.loads((scenarios_dir / "pure_advection.json").read_text())
        doc["duration"] = 1.0
        doc["gains"].update(k2=1e308, grad_floor=1e300)
        doc["vessel"]["offset"] = 4.0
        assert self.run_doc(tmp_path, capsys, doc) == 4

    @pytest.mark.parametrize("command",
                             [["run"], ["sweep", "--set", "seed=1"]])
    def test_deeply_nested_unknown_field_exits_2(self, tmp_path,
                                                 scenarios_dir, capsys,
                                                 command):
        # json accepts a list this deep, copying it recursively would not
        doc = json.loads((scenarios_dir / "pure_advection.json").read_text())
        doc["extra"] = json.loads("[" * 500 + "]" * 500)
        sc = write_scenario(tmp_path, doc)
        code = main([command[0], str(sc), *command[1:],
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "extra" in err, err
        assert "Traceback" not in err


class TestPlotExitCodes:
    """Logs and --c0 values that cannot be plotted end in exit 2 with one
    stderr line and no traceback, for both kinds; numpy warnings would
    print more."""

    KINDS = ("concentration-timeseries", "trajectory-xy")
    # cell pool of the property test: non-finite, extreme, empty, text
    CELLS = ("nan", "inf", "-inf", "1e308", "-1e308", "1.7e308", "-1.7e308",
             "", "x")
    # columns plotted on one axis, set together to values 1e17 apart by a
    # few units: finer than the floats' spacing there
    NEAR_1E17 = (("t",), ("c1", "c2", "c3", "c4", "chat"), ("zx", "xhat"),
                 ("zy", "yhat"))

    @pytest.fixture(scope="class")
    def log_rows(self, tmp_path_factory) -> list[list[str]]:
        tmp = tmp_path_factory.mktemp("plotlog")
        sc = write_scenario(tmp, dict(SHORT_SCENARIO, duration=0.5))
        assert main(["run", str(sc), "--out", str(tmp / "o")]) == 0
        return [line.split(",") for line in
                (tmp / "o" / "log.csv").read_text().splitlines()]

    @staticmethod
    def write_log(tmp_path, rows) -> Path:
        p = tmp_path / "log.csv"
        p.write_text("".join(",".join(r) + "\n" for r in rows))
        return p

    @staticmethod
    def plot(tmp_path, capsys, log, kind, *extra):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["plot", "--kind", kind, "--log", str(log),
                         "--out", str(tmp_path / "x.svg"), *extra])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert err.count("\n") == (code != 0), err
        assert "Traceback" not in err
        return code

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cells, c0", [
        ({}, "nan"),
        ({}, "inf"),
        ({(2, "c1"): "nan"}, "50"),
        ({(2, "c1"): "inf"}, "50"),
        ({(2, "ctrue"): "nan"}, "50"),
        # the span of the plotted values overflows
        ({(1, "zx"): "-1.7e308", (1, "c1"): "-1.7e308",
          (3, "zx"): "1.7e308", (3, "c1"): "1.7e308"}, "50"),
    ])
    def test_unplottable_input_exits_2(self, tmp_path, capsys, log_rows,
                                       kind, cells, c0):
        rows = [list(r) for r in log_rows]
        for (i, name), value in cells.items():
            rows[i][rows[0].index(name)] = value
        log = self.write_log(tmp_path, rows)
        assert self.plot(tmp_path, capsys, log, kind, f"--c0={c0}") == 2

    def test_mutated_logs(self, tmp_path, capsys, log_rows):
        # cells non-finite, extreme, empty or text, or values 1e17 apart by
        # a few units; rows dropped or with a field dropped or added; the
        # header altered
        rng = np.random.default_rng(2025)
        codes = set()
        for trial in range(300):
            rows = [list(r) for r in log_rows]
            for _ in range(1 + rng.integers(3)):
                kind = rng.integers(5)
                i = 1 + rng.integers(len(rows) - 1)
                j = rng.integers(len(rows[0]))
                if kind == 0 and j < len(rows[i]):
                    rows[i][j] = self.CELLS[rng.integers(len(self.CELLS))]
                elif kind == 1:
                    group = self.NEAR_1E17[rng.integers(len(self.NEAR_1E17))]
                    cols = [rows[0].index(n) for n in group if n in rows[0]]
                    for r in rows[1:]:
                        for col in cols:
                            if col < len(r):
                                r[col] = "%d" % (10**17 + rng.integers(40))
                elif kind == 2:         # the rows from one on, maybe all
                    del rows[rng.integers(1, len(rows)):]
                elif kind == 3:         # a field dropped or one added
                    rows[i] = (rows[i][:-1] if rng.integers(2)
                               else rows[i] + ["0"])
                else:
                    rows[0] = rows[0][:j] + ["extra"] + rows[0][j + 1:]
                if len(rows) < 2:
                    break
            log = self.write_log(tmp_path, rows)
            c0 = ("50", "1e17", "-1.7e308")[rng.integers(3)]
            for kind in self.KINDS:
                codes.add(self.plot(tmp_path, capsys, log, kind, f"--c0={c0}"))
        assert codes == {0, 2}


class TestUndecodableInput:
    """Files that are not UTF-8 JSON or CSV are input errors: exit 2 with
    one stderr line naming the file."""

    @staticmethod
    def run_main(capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1, err
        return code, err

    def test_scenario_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "bom.json"
        p.write_bytes(b"\xff\xfe{}")
        code, err = self.run_main(capsys, "run", str(p), "--out",
                                  str(tmp_path / "o"))
        assert code == 2
        assert f"{p}: not UTF-8 text" in err

    def test_scenario_nested_too_deeply(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 200_000)
        code, err = self.run_main(capsys, "run", str(p), "--out",
                                  str(tmp_path / "o"))
        assert code == 2
        assert f"{p}: JSON nested too deeply" in err

    def test_plot_log_not_utf8(self, tmp_path, capsys):
        from plumetrack.simulator import CSV_COLUMNS
        p = tmp_path / "log.csv"
        p.write_bytes(",".join(CSV_COLUMNS).encode() + b"\n\xff\xfe\n")
        code, err = self.run_main(capsys, "plot", "--kind", "trajectory-xy",
                                  "--log", str(p), "--out",
                                  str(tmp_path / "x.svg"))
        assert code == 2
        assert f"{p}: not UTF-8 text" in err


class TestLoggingContract:
    def test_diagnostics_on_stderr_only(self, tmp_path):
        import os
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        env = dict(os.environ, PLUME_LOG="info")
        proc = subprocess.run(
            [sys.executable, "-m", "plumetrack.cli", "run", str(sc),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == ""               # data goes to files only
        assert "running scenario" in proc.stderr

    def test_quiet_without_env(self, tmp_path):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        proc = cli("run", str(sc), "--out", str(tmp_path / "o"))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert proc.stderr == ""
