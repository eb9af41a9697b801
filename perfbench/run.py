"""plumetrack benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a plumetrack checkout; the program is imported from
its ``src/``.  The workloads are defined in ``workloads.py``.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics; the lines before it are
a readable table and one JSON line of details (sample counts, tail
percentiles, log sha256 per document, and a stamp of the code, Python,
numpy and CPU count).  Every output is checked against closed forms kept
in ``checks.py``; a failed check counts against ``failed`` and makes
``correct`` false.  Exits 2 without a result when there is no plumetrack
source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9
TIME_LIMIT = 170.0      # s for the whole run, below the 180 s contract
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {           # name -> unit
    "setup_s": "s",
    "step_us": "us",
    "peak_rss_mb": "MB",
    "rms_conc_error_ppb": "ppb",
    "seeking_frac": "ratio",
}


def fail(msg: str, code: int = 1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PLUME_LOG"] = ""
    env.pop("PYTHONPATH", None)
    return env


def tail_percentile(values: list[float]):
    """(p, value) for the highest listed percentile with at least ten
    samples above it, or None when there are too few samples."""
    for p in PERCENTILES:
        idx = math.ceil(p / 100.0 * len(values)) - 1
        if idx >= 0 and len(values) - 1 - idx >= 10:
            return p, layers.percentile(values, p)
    return None


def stamp() -> dict:
    """What the result was measured on and with."""
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "plumetrack").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def probe_setup(doc_path: Path, deadline: float, setup: dict | None):
    """One set-up sample from a fresh interpreter, added to ``setup``
    unless that is None.  A recorded sample is also put on the reference
    speed, from reference chunks timed right before and after it."""
    before = calibrate.reference() if setup is not None else 0
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT),
         str(doc_path)], capture_output=True, text=True, env=child_env(),
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup is not None:
        raw = probe["ready"] - launch
        setup["setup_raw_s"].append(raw)
        setup["setup_s"].append(
            calibrate.scale(raw, before, calibrate.reference()))
        setup["import_ms"].append(probe["import_ms"])
        setup["load_ms"].append(probe["load_ms"])


def run_measure(spec: dict, work: Path, deadline: float) -> tuple[dict, dict]:
    """(result of the measuring process, set-up samples).

    The set-up samples are taken in the measuring process's gaps, at an
    even pace over ``seconds``: by a gap at share ``f`` of the window
    there are ``ceil(SETUP_SAMPLES * f)`` of them, at least one and at
    most ``SETUP_SAMPLES``.  Samples still missing when the measuring
    process ends are taken then.  One unrecorded start comes first, so
    that compiled bytecode is in place."""
    doc_path = Path(spec["doc"])
    setup = {"setup_s": [], "setup_raw_s": [], "import_ms": [], "load_ms": []}
    probe_setup(doc_path, deadline, None)

    def keep_pace(share: float):
        done = len(setup["setup_s"])
        want = min(SETUP_SAMPLES, max(1, math.ceil(SETUP_SAMPLES * share)))
        for _ in range(want - done):
            probe_setup(doc_path, deadline, setup)

    spec_path, result_path = work / "spec.json", work / "result.json"
    err_path = work / "measure.err"
    spec_path.write_text(json.dumps(spec))
    request_r, request_w = os.pipe()
    answer_r, answer_w = os.pipe()
    # its own process group, so a timeout also stops the sweep workers
    with err_path.open("w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "measure.py"), str(spec_path),
             str(result_path), str(request_w), str(answer_r)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True, pass_fds=(request_w, answer_r))
    os.close(request_w)
    os.close(answer_r)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        start = time.monotonic()
        with open(request_r, "rb", buffering=0) as request, \
                open(answer_w, "wb", buffering=0) as answer:
            for _ in request:
                keep_pace((time.monotonic() - start) / spec["seconds"])
                try:
                    answer.write(b"\n")
                except BrokenPipeError:
                    break
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if time.monotonic() >= deadline:
        fail("measuring process ran out of time")
    if proc.returncode != 0 or not result_path.exists():
        fail(f"measuring process exited {proc.returncode}:\n"
             f"{err_path.read_text().strip()}")
    keep_pace(1.0)
    return json.loads(result_path.read_text()), setup


def verify(result: dict) -> tuple[dict, dict]:
    """Check the first output of each distinct document, and that every
    run of it wrote the same log.  Returns ({key: problems}, {key: log
    text})."""
    problems, logs = {}, {}
    for key, path in result["kept"].items():
        d = Path(path)
        doc = json.loads((d / "doc.json").read_text())
        log_text, metrics_text = checks.read_outputs(d)
        runs = [m for m in members(result) if m["key"] == key]
        problems[key] = checks.check_run(doc, runs[0]["code"], log_text,
                                         metrics_text)
        if len({m["sha256"] for m in runs}) > 1:
            problems[key].append("log.csv differs between runs of the document")
        logs[key] = log_text or ""
    return problems, logs


def members(result: dict) -> list[dict]:
    """Every plume run of every phase, in order."""
    return [m for runs in result["phases"].values() for r in runs
            for m in r["members"]]


def first_logs(result: dict) -> dict:
    """sha256 of the first log of each distinct document."""
    first = {}
    for m in members(result):
        first.setdefault(m["key"], m["sha256"])
    return first


def failures(result: dict, problems: dict) -> int:
    """Runs that exited non-zero, failed a check, or wrote a log that
    differs from the first log of the same document."""
    first = first_logs(result)
    return sum(m["code"] != 0 or bool(problems.get(m["key"]))
               or m["sha256"] != first[m["key"]] for m in members(result))


def end_to_end(result: dict, setup: dict, doc: dict) -> tuple[dict, dict]:
    """(metrics, detail) of an untraced run."""
    runs = result["phases"]["measure"]
    raw = layers.step_us_per_call(runs)
    step = layers.step_us_per_call(runs, scaled=True)
    distinct = list({m["key"]: m for m in members(result)}.values())
    duration = float(doc["duration"])
    rms = [m["rms"] for m in distinct if m["rms"] is not None]
    seeking = [(m["tracking_at"] if m["tracking_at"] is not None else duration)
               / duration for m in distinct]
    values = {
        "setup_s": statistics.median(setup["setup_s"]),
        "step_us": statistics.median(step),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
        "rms_conc_error_ppb": statistics.mean(rms) if rms else 0.0,
        "seeking_frac": statistics.mean(seeking),
    }
    detail = {
        "samples": {"setup_s": len(setup["setup_s"]), "step_us": len(step),
                    "peak_rss_mb": 1, "rms_conc_error_ppb": len(rms),
                    "seeking_frac": len(seeking), "tracked_frac": len(distinct)},
        "tail": {"setup_s": tail_percentile(setup["setup_s"]),
                 "step_us": tail_percentile(step)},
        "step_us_raw": statistics.median(raw),
        "setup_s_raw": statistics.median(setup["setup_raw_s"]),
        "setup_s_samples": setup["setup_s"],
        "setup_s_raw_samples": setup["setup_raw_s"],
        "reference_ms": statistics.median(
            r["ref_after_ns"] / 1e6 for r in runs),
        "step_us_per_call": step,
        "tracked_frac": statistics.mean(
            m["tracking_at"] is not None for m in distinct),
    }
    return values, detail


def print_table(title: str, rows: list[tuple]):
    print(title)
    print(f"  {'metric':<28}{'value':>16}  {'unit':<7}{'n':>6}  tail")
    for name, value, unit, n, tail in rows:
        note = f"p{tail[0]:g} = {tail[1]:.6g}" if tail else ""
        print(f"  {name:<28}{value:>16.6g}  {unit:<7}{n:>6}  {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT
    if not (ROOT / "src" / "plumetrack" / "cli.py").is_file():
        fail(f"no plumetrack source under {ROOT / 'src'}", code=2)

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        doc = workloads.make_document(args.workload, args.seed)
        doc_path = work / f"{args.workload}.json"
        doc_path.write_text(json.dumps(doc, indent=2))
        spec = {"root": str(ROOT), "work": str(work), "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "doc": str(doc_path), "doc_body": doc,
                "jobs": workloads.sweep_jobs()}
        result, setup = run_measure(spec, work, deadline)
        problems, logs = verify(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass        # another run is still using it

    if args.trace:
        metrics, detail = layers.per_layer(result, setup, doc, logs,
                                           spec["jobs"])
        units = layers.UNITS
    else:
        metrics, detail = end_to_end(result, setup, doc)
        units = END_TO_END
    attempted = len(members(result))
    failed = failures(result, problems)
    detail["fail_frac"] = failed / attempted
    samples = dict(detail.get("samples", {}), fail_frac=attempted)
    tails = detail.get("tail", {})
    print_table(f"plumetrack {args.workload} seed {args.seed} "
                f"({'per layer, traced' if args.trace else 'end to end'}): "
                f"{attempted} plume runs, {failed} failed",
                [(k, v, units[k], samples.get(k, ""), tails.get(k))
                 for k, v in metrics.items()]
                + [(k, detail[k], "ratio", samples[k], None)
                   for k in ("tracked_frac", "fail_frac") if k in detail])
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "stamp": stamp(),
        "log_sha256": {f"{args.workload}/{args.seed}/{k}": v
                       for k, v in first_logs(result).items()},
        "problems": {k: v for k, v in problems.items() if v}, **detail}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
