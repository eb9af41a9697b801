"""Tests of the benchmark itself: output schema, the output checker, the
tracer, and the refusal to run without a program.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SHORT = 5.0     # s of simulated time; enough rows to check, quick to run


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "4", "--seconds", "1",
         "--trace", str(trace)], cwd=cwd, capture_output=True, text=True,
        timeout=170)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_reports(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_schema(spec, trace):
    proc = bench("advection_run", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    detail = json.loads(lines[-2])["perfbench"]
    assert detail["stamp"]["src_sha256"] and detail["stamp"]["numpy"]
    assert list(detail["log_sha256"]) == ["advection_run/4/run"]
    setup_samples = detail["samples"]["setup.import_ms" if trace else "setup_s"]
    assert setup_samples == run.SETUP_SAMPLES
    if trace:
        # layer self-times add up to the traced time per step
        total = result["metrics"]["trace.step_us"]["value"]
        assert detail["attributed_us"] == pytest.approx(total, rel=1e-9)
        assert detail["missing_spans"] == []
    else:
        assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path, spec):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("case1_run", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_ensemble_sweeps_all_a7_seeds():
    for seed in (0, 7, 19, 1234):
        seeds = workloads.ensemble_seeds(seed)
        assert sorted(seeds) == list(workloads.A7_SEEDS)
        assert seeds[0] == workloads.make_document("noise_ensemble", seed)["seed"]


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail_percentile(values) == (90.0, 90.0)
    assert run.tail_percentile(values[:10]) is None


@pytest.fixture(scope="module")
def case1_output(tmp_path_factory):
    """(document, exit code, log text, metrics text) of a short case1 run."""
    from plumetrack import cli
    doc = dict(workloads.make_document("case1_run", 1), duration=SHORT)
    d = tmp_path_factory.mktemp("case1")
    (d / "doc.json").write_text(json.dumps(doc))
    code = cli.main(["run", str(d / "doc.json"), "--out", str(d / "out")])
    return (doc, code) + checks.read_outputs(d / "out")


def _replace_cell(log_text: str, row: int, column: str, fn) -> str:
    lines = log_text.splitlines()
    j = checks.COLUMNS.index(column)
    cells = lines[row + 1].split(",")
    cells[j] = "%.9g" % fn(float(cells[j]))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checker_passes_real_output(case1_output):
    assert checks.check_run(*case1_output) == []


def test_checker_flags_perturbed_ctrue(case1_output):
    doc, code, log, metrics = case1_output
    bad = _replace_cell(log, 40, "ctrue", lambda c: c * (1 + 1e-5))
    assert any("ctrue" in p for p in checks.check_run(doc, code, bad, metrics))


def test_checker_flags_perturbed_reading(case1_output):
    doc, code, log, metrics = case1_output
    bad = _replace_cell(log, 7, "c3", lambda c: c + 0.01)
    assert any("sensor" in p for p in checks.check_run(doc, code, bad, metrics))


def test_checker_flags_dropped_row(case1_output):
    doc, code, log, metrics = case1_output
    lines = log.splitlines()
    bad = "\n".join(lines[:10] + lines[11:]) + "\n"
    assert checks.check_run(doc, code, bad, metrics)


def test_checker_flags_exit_code_and_bad_metrics(case1_output):
    doc, code, log, metrics = case1_output
    assert checks.check_run(doc, 4, log, metrics) == ["exit code 4"]
    m = json.loads(metrics)
    m["winding_angle"] = float("nan")
    assert any("non-finite" in p
               for p in checks.check_run(doc, code, log, json.dumps(m)))


def test_checker_flags_noise_beyond_sigma(case1_output):
    doc, code, log, metrics = case1_output
    noisy = workloads.member_document(doc, 1)
    assert checks.check_run(noisy, code, log, metrics) == []
    bad = _replace_cell(log, 3, "c1", lambda c: c + 20 * workloads.A7_SIGMA)
    assert any("sigma" in p for p in checks.check_run(noisy, code, bad, metrics))


def test_checker_grid_gate(tmp_path):
    from plumetrack import cli
    doc = dict(workloads.make_document("grid_run", 1), duration=SHORT)
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code = cli.main(["run", str(tmp_path / "doc.json"), "--out",
                     str(tmp_path / "out")])
    log, metrics = checks.read_outputs(tmp_path / "out")
    assert checks.check_run(doc, code, log, metrics) == []
    # 3% of the ~60 ppb peak is beyond the 2%-of-peak gate
    bad = _replace_cell(log, 20, "chat", lambda c: c + 1.8)
    assert any("chat" in p for p in checks.check_run(doc, code, bad, metrics))


def test_closed_form_matches_a_single_puff():
    field = copy.deepcopy(workloads.CASE1["field"])
    field["emission_rate"] = 0.0
    puff = field["seed_puffs"][0]
    t = 10.0
    tau = t - puff["release_time"]
    v = field["flow"]["velocity"]
    centre = [puff["point"][i] + v[i] * tau for i in range(2)]
    peak = puff["strength"] / (4 * 3.141592653589793 * field["diffusion"] * tau)
    got = checks.truth(field, [t], [[centre]])
    assert got[0, 0] == pytest.approx(peak, rel=1e-12)


def test_tracer_restores_what_it_wrapped():
    from plumetrack import field, sensing, simulator
    before = (simulator.run, sensing.sample, field.PuffPlume.eval_many)
    tracer = spans.Tracer()
    tracer.install()
    assert simulator.run is not before[0]
    tracer.uninstall()
    assert (simulator.run, sensing.sample, field.PuffPlume.eval_many) == before
    assert tracer.missing == []
