import ast
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from plumetrack import cli as CLI, simulator
from plumetrack.cli import main
from plumetrack.scenario_io import set_path
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


def avx512_targets() -> list[str]:
    """numpy's AVX-512 dispatch targets that this CPU runs."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:
        return []
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)
            and (f.startswith("AVX512") or f == "X86_V4")]


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


# sha256 prefixes of (log.csv, metrics.json) of each bundled scenario.
# The bytes rest on numpy's random stream, so they hold for the numpy that
# CI installs; a change that moves them on purpose re-pins them here.
PINNED_NUMPY = "2.4.6"
BUNDLED_SHA256 = {
    "case1": ("83272534442d", "b6091059803d"),
    "case2": ("1ee5bdcb3d2c", "f893fce6ab83"),
    "pure_advection": ("520b4fa28a7a", "2d301970c193"),
    "uneven_rig_demo": ("2f1bd63596bf", "c880b1474386"),
}
# The same for case1 on the paths where a run draws normals, sensor noise
# (A7's sigma at seed 1) and flow noise: (dotted keys set, sha256 prefixes).
NOISY_CASE1 = {
    "sigma": ({"seed": 1, "noise.sigma": 2.0},
              ("ace68ae158c5", "6f1e440d2fe9")),
    "flow_noise": ({"flow_noise_sigma": 0.05},
                   ("522d6ee3f819", "609c74d4238e")),
}
# The same for case1 over perfbench's grid field (perfbench/workloads.py
# GRID_FIELD), in each boundary mode: (field keys set, sha256 prefixes).
# The 160 x 160 grid logs the same bytes in both modes, because no wrap
# reaches the sampled cells within 60 s, so the periodic grid is 100 x 100,
# whose log differs from its outflow twin's.
GRID_FIELD = {
    "type": "grid", "origin": [-40.0, -40.0], "cell_size": 0.5,
    "shape": [160, 160], "diffusion": 0.05,
    "flow": {"type": "uniform", "velocity": [0.01, 0.005]},
    "init_puff": {"release_time": -3000.0, "point": [-30.0, -15.0],
                  "strength": 113000.0},
}
GRID_SHA256 = {
    "outflow": ({"boundary": "outflow"}, ("ffc2d390a08c", "5f508353477c")),
    "periodic": ({"boundary": "periodic", "origin": [-25.0, -25.0],
                  "shape": [100, 100]}, ("664ae01772d0", "048edc795dca")),
}
pinned_numpy = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"the bytes are pinned for numpy {PINNED_NUMPY}, "
           f"the version CI installs")


def output_sha256(out: Path) -> tuple:
    return tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()[:12]
                 for f in ("log.csv", "metrics.json"))


@pinned_numpy
@pytest.mark.parametrize("name", sorted(BUNDLED_SHA256))
def test_bundled_outputs_are_pinned(tmp_path, scenarios_dir, name):
    out = tmp_path / name
    assert main(["run", str(scenarios_dir / f"{name}.json"),
                 "--out", str(out)]) == 0
    assert output_sha256(out) == BUNDLED_SHA256[name]


@pinned_numpy
@pytest.mark.parametrize("name", sorted(NOISY_CASE1))
def test_noisy_case1_outputs_are_pinned(tmp_path, case1_doc, name):
    changes, pinned = NOISY_CASE1[name]
    doc = json.loads(json.dumps(case1_doc))
    for key, value in changes.items():
        set_path(doc, key, value)
    sc = write_scenario(tmp_path, doc)
    assert main(["run", str(sc), "--out", str(tmp_path / "out")]) == 0
    assert output_sha256(tmp_path / "out") == pinned


@pinned_numpy
@pytest.mark.parametrize("boundary", sorted(GRID_SHA256))
def test_grid_outputs_are_pinned(tmp_path, case1_doc, boundary):
    changes, pinned = GRID_SHA256[boundary]
    doc = dict(case1_doc, name="grid", field=dict(GRID_FIELD, **changes))
    sc = write_scenario(tmp_path, doc)
    assert main(["run", str(sc), "--out", str(tmp_path / "out")]) == 0
    assert output_sha256(tmp_path / "out") == pinned


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

    def test_run_imports_no_pool_plots_or_checks(self, tmp_path):
        # the sweep's pool, the plots and the self-checks are imported by
        # the commands that use them, numpy.random by a run with noise,
        # and numpy by a model that computes on arrays, which a frozen
        # Gaussian does not
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        later = ("concurrent.futures.process", "plumetrack.plotting",
                 "plumetrack.validate", "numpy.random", "numpy")
        code = ("import sys\n"
                "from plumetrack.cli import main\n"
                f"assert main(['run', {str(sc)!r}, '--out', "
                f"{str(tmp_path / 'out')!r}]) == 0\n"
                f"print([m for m in {later!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_duplicate_key_rejected(self, tmp_path, command):
        # the last k1 would win silently, 5000 for the intended 5
        text = json.dumps(SHORT_SCENARIO).replace(
            '"k1": 5.0', '"k1": 5.0, "k1": 5000.0')
        assert text.count('"k1"') == 2
        p = tmp_path / "dup.json"
        p.write_text(text)
        args = ("--set", "seed=1,2") if command == "sweep" else ()
        out = tmp_path / "o"
        proc = cli(command, str(p), *args, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {p}: duplicate key 'k1'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_long_integer_literal_rejected(self, tmp_path, command):
        # json.loads would raise int's digit-limit ValueError, a traceback
        text = json.dumps(SHORT_SCENARIO).replace('"seed": 7',
                                                  '"seed": 1' + "0" * 5000)
        assert len(text) > 5000
        p = tmp_path / "long.json"
        p.write_text(text)
        args = ("--set", "seed=1,2") if command == "sweep" else ()
        out = tmp_path / "o"
        proc = cli(command, str(p), *args, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (f"error: {p}: integer literal of 5,001 "
                               f"digits; at most 4,300\n")
        assert not out.exists()

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
        assert proc.stderr.count("\n") == 1
        assert "stencil" in proc.stderr.lower()

    def test_overflowing_stencil_exits_4_without_lapack_output(self, tmp_path):
        # B B^T of 1e150 m arms overflows to inf, which has no condition
        # number; the refusal is one stderr line and stdout stays empty
        doc = json.loads(json.dumps(SHORT_SCENARIO))
        doc["rig"] = {"offsets": [[1e150, 0.0], [-1e150, 0.0],
                                  [0.0, 1e150], [0.0, -1e150]]}
        sc = write_scenario(tmp_path, doc)
        proc = cli("run", str(sc), "--out", str(tmp_path / "o"))
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "stencil condition inf" in proc.stderr

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

    # the platform settings a run's bytes must not follow, each set in the
    # child process only
    PLATFORM_VARIABLES = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")

    @classmethod
    def run_bytes(cls, tmp_path, scenarios_dir, name, settings):
        """(log.csv, metrics.json) bytes of a child ``plume run`` of case1,
        pure_advection or the grid document, GRID_ESCAPE's first seconds
        before the blob leaves its grid, under each platform setting."""
        import os
        if name == "grid":
            doc_path = write_scenario(tmp_path,
                                      dict(GRID_ESCAPE, duration=3.0))
        else:
            doc_path = scenarios_dir / f"{name}.json"
        outputs = []
        for setting in settings:
            env = {k: v for k, v in os.environ.items()
                   if k not in cls.PLATFORM_VARIABLES}
            env.update(setting)
            out = tmp_path / str(len(outputs))
            proc = subprocess.run(
                [sys.executable, "-m", "plumetrack.cli", "run",
                 str(doc_path), "--out", str(out)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / f).read_bytes()
                            for f in ("log.csv", "metrics.json")])
        assert json.loads(outputs[0][1])["truncated"] is False
        return outputs

    @pytest.mark.skipif(not avx512_targets(),
                        reason="numpy dispatches no AVX-512 code here")
    @pytest.mark.parametrize("name", ["case1", "pure_advection", "grid"])
    def test_bytes_do_not_depend_on_numpy_simd_dispatch(self, tmp_path,
                                                        scenarios_dir, name):
        # the same run with numpy's AVX-512 loops and with them switched off
        off = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512_targets())}
        outputs = self.run_bytes(tmp_path, scenarios_dir, name, ({}, off))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", ["case1", "pure_advection", "grid"])
    def test_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path,
                                                    scenarios_dir, name):
        # the same run with OpenBLAS's kernel for this CPU, which may fuse
        # multiply-adds, and with its Prescott kernel, which has no FMA
        prescott = {"OPENBLAS_CORETYPE": "Prescott"}
        outputs = self.run_bytes(tmp_path, scenarios_dir, name,
                                 ({}, prescott))
        assert outputs[0] == outputs[1]

    def test_one_record_run_is_not_truncated(self, tmp_path, capsys):
        # a run shorter than one control period logs only t = 0
        sc = write_scenario(tmp_path, dict(SHORT_SCENARIO, duration=0.01))
        out = tmp_path / "out"
        assert main(["run", str(sc), "--out", str(out)]) == 0
        assert len((out / "log.csv").read_text().splitlines()) == 2
        assert json.loads((out / "metrics.json").read_text()) == \
            {"truncated": False, "seed": 7}
        assert capsys.readouterr().err == ""


class TestNumpyImportedWhereArraysAre:
    """numpy is imported by the models that compute on arrays, when they
    first do: a grid when it is built; a puff plume never does.  Each
    probe runs in a fresh interpreter and prints whether numpy was
    imported at each point."""

    @staticmethod
    def probe(code: str) -> list:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\nseen = lambda: 'numpy' in sys.modules\n" + code],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return ast.literal_eval(proc.stdout)

    def test_package_cli_and_bundled_documents(self, scenarios_dir):
        docs = sorted(str(p) for p in scenarios_dir.glob("*.json"))
        assert len(docs) == 4
        seen = self.probe(
            "import plumetrack\n"
            "first = [seen()]\n"
            "import plumetrack.cli\n"
            "from plumetrack.scenario_io import load_raw, scenario_from_dict\n"
            "first.append(seen())\n"
            f"for doc in {docs!r}:\n"
            "    scenario_from_dict(load_raw(doc))\n"
            "    first.append(seen())\n"
            "print(first)\n")
        assert seen == [False] * 6

    def test_grid_document_imports_numpy_at_load(self):
        seen = self.probe(
            "from plumetrack.scenario_io import scenario_from_dict\n"
            "first = [seen()]\n"
            f"scenario_from_dict({GRID_ESCAPE!r})\n"
            "print([*first, seen()])\n")
        assert seen == [False, True]

    def test_case1_run_imports_no_numpy(self, scenarios_dir, tmp_path):
        # a noise-free case1 run, its neighbour-list builds and its
        # outputs included, computes on floats only
        seen = self.probe(
            "from plumetrack import cli\n"
            f"code = cli.main(['run', {str(scenarios_dir / 'case1.json')!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            "print([code, seen()])\n")
        assert seen == [0, False]

    def test_puff_centre_imports_no_numpy(self):
        seen = self.probe(
            "from plumetrack.field import FlowField, GaussianPuff\n"
            "puff = GaussianPuff(-2.0, (1.0, 3.0), 10.0, 0.5)\n"
            "centre = puff.center(FlowField.uniform((0.2, -0.1)), 4.0)\n"
            "print([seen(), centre])\n")
        assert seen == [False, (2.2, 2.4)]


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

        # the sweep imports the pool where it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
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

    def test_sweep_without_sched_getaffinity(self, tmp_path, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        sc = write_scenario(tmp_path, dict(SHORT_SCENARIO, duration=0.5))
        sweep = ["sweep", str(sc), "--set", "seed=1,2"]
        assert main(sweep + ["--out", str(tmp_path / "ref")]) == 0
        want = (tmp_path / "ref" / "sweep_summary.csv").read_bytes()
        monkeypatch.delattr(CLI.os, "sched_getaffinity")
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(sweep + ["--out", str(out), "--jobs", jobs]) == 0
            assert (out / "sweep_summary.csv").read_bytes() == want

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        sc = write_scenario(tmp_path, SHORT_SCENARIO)
        out = tmp_path / "s"
        assert main(["sweep", str(sc), "--set", "seed=1,2", "--out",
                     str(out), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --jobs {jobs}: expected at least 1\n"
        assert not out.exists()

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

    # each rule on a value is judged by one model, and a document that
    # breaks one is refused on one line that names the key
    @pytest.mark.parametrize("name, path, value, key", [
        ("case1", ("sign_convention",), "upside-down", "sign_convention"),
        ("case1", ("tracked_point",), "tail", "tracked_point"),
        ("grid_escape", ("field", "boundary"), "reflecting", "boundary"),
        ("grid_escape", ("field", "init_puff", "release_time"), 0.0,
         "release_time"),
        ("case1", ("field", "source"), [-150.0], "source"),
        ("pure_advection", ("field", "center"), [0.0, 0.0, 0.0], "center"),
        ("case1", ("field", "seed_puffs", 0, "point"), [[-150.0], -75.0],
         "point"),
        ("grid_escape", ("field", "origin"), [-8.0], "origin"),
        ("case1", ("field", "flow", "velocity"), [0.03, 0.015, 0.0],
         "velocity"),
        ("case1", ("vessel", "start_pose"), [12.0, 0.0], "start_pose"),
        ("case1", ("vessel", "start_pose"), "north", "start_pose"),
        ("case1", ("seed",), -1, "seed"),
        ("case1", ("noise", "seed"), -1, "seed"),
        ("grid_escape", ("field", "shape"), [32.5, 32], "shape"),
        ("grid_escape", ("field", "shape"), [32], "shape"),
    ])
    def test_model_rules_refuse_documents(self, tmp_path, scenarios_dir,
                                          capsys, name, path, value, key):
        if name == "grid_escape":
            doc = json.loads(json.dumps(GRID_ESCAPE))
        else:
            doc = json.loads((scenarios_dir / f"{name}.json").read_text())
        node = doc
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        sc = write_scenario(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(sc), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1, err
        assert key in err.split(str(sc), 1)[1], err

    def test_far_grid_loads_as_zero_cells(self):
        # every cell's squared distance to the puff overflows, and
        # exp(-inf) = 0 is the cells' exact value
        from plumetrack.scenario_io import scenario_from_dict
        doc = dict(GRID_ESCAPE,
                   field=dict(GRID_ESCAPE["field"], origin=[1e300, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = scenario_from_dict(doc).field0
        assert grid.conc.shape == (32, 32) and not grid.conc.any()

    def test_huge_grid_shape_exits_2_before_allocating(self, tmp_path):
        # 1e10 cells would take 75 GiB.  The child may map at most 3 GB,
        # so that an allocation of the cells fails at once rather than
        # taking the machine's memory
        doc = dict(GRID_ESCAPE, field=dict(GRID_ESCAPE["field"],
                                           shape=[100000, 100000]))
        sc = write_scenario(tmp_path, doc)

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        proc = subprocess.run(
            [sys.executable, "-m", "plumetrack.cli", "run", str(sc), "--out",
             str(tmp_path / "o")], capture_output=True, text=True,
            timeout=60, preexec_fn=cap)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"error: {sc}.field: shape gives more than "
                               "1,000,000 cells\n")

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
