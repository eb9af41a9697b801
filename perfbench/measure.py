"""Measuring process: drives plumetrack's CLI in a closed loop.

    python3 perfbench/measure.py <spec.json> <result.json>

The spec comes from ``run.py``.  Runs are sequential: each ``plume run``
(or ``plume sweep``) call starts when the previous one has returned.  The
process keeps nothing but timings, log hashes, and the first output of
each distinct document, which ``run.py`` checks after this process has
ended; its peak memory is therefore that of the workload.

Untraced (``trace`` 0), the loop measures for ``seconds``.  Traced, the
time is split into phases: untraced runs, then the same runs with the
layer spans of ``spans.Tracer`` installed.  The ensemble adds an untraced
``--jobs 1`` phase for the parallel efficiency of the sweep.

Between calls the loop stops at a gap: it writes a line to the request
pipe and waits for a line on the answer pipe.  ``run.py`` uses the gaps
to take its set-up samples, so that they are spread over the measuring
window, and never run at the same time as a measured call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import calibrate
import spans
import workloads

WARMUP_DURATION = 2.0   # s of simulated time in the warm-up run


class Loop:
    """Closed-loop runner for one workload."""

    def __init__(self, spec: dict, request_fd: int, answer_fd: int):
        self.spec = spec
        self.request = open(request_fd, "wb", buffering=0)
        self.answer = open(answer_fd, "rb", buffering=0)
        self.work = Path(spec["work"])
        self.keep = self.work / "keep"
        self.counter = 0
        self.kept: dict[str, str] = {}
        self.pool = None
        from plumetrack import cli
        self.cli = cli

    def reference(self, jobs: int | None) -> float:
        """Reference chunk time, run at once on each of ``jobs`` processes
        when a sweep keeps that many busy; the mean of their times."""
        if not jobs or jobs == 1:
            return calibrate.reference()
        if self.pool is None:
            self.pool = ProcessPoolExecutor(
                jobs, mp_context=multiprocessing.get_context("spawn"))
        futures = [self.pool.submit(calibrate.reference) for _ in range(jobs)]
        return statistics.mean(f.result() for f in futures)

    def gap(self):
        """Stop until ``run.py`` has taken its set-up samples for now."""
        self.request.write(b"gap\n")
        self.answer.readline()

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()
        self.request.close()
        self.answer.close()

    def _out(self) -> Path:
        self.counter += 1
        return self.work / f"out{self.counter:04d}"

    def _record_member(self, key: str, doc: dict, code: int, out: Path) -> dict:
        log = out / "log.csv"
        data = log.read_bytes() if log.exists() else b""
        metrics_path = out / "metrics.json"
        metrics = json.loads(metrics_path.read_text()) \
            if metrics_path.exists() else {}
        if key not in self.kept:
            dest = self.keep / key
            if out.exists():
                shutil.copytree(out, dest)
            else:
                dest.mkdir(parents=True)
            (dest / "doc.json").write_text(json.dumps(doc))
            self.kept[key] = str(dest)
        return {"key": key, "code": code,
                "sha256": hashlib.sha256(data).hexdigest(),
                "rows": max(0, data.count(b"\n") - 1),
                "csv_bytes": len(data),
                "rms": metrics.get("rms_conc_error"),
                "tracking_at": metrics.get("tracking_reached_at")}

    def single(self, call) -> dict:
        """One ``plume run`` of the workload document."""
        out = self._out()
        wall, code = _timed(call, ["run", self.spec["doc"], "--out", str(out)])
        member = self._record_member("run", self.spec["doc_body"], code, out)
        shutil.rmtree(out, ignore_errors=True)
        return {"wall_ns": wall, "members": [member]}

    def sweep(self, call, seeds: list[int], jobs: int) -> dict:
        """One ``plume sweep`` over ``seeds``."""
        out = self._out()
        wall, _ = _timed(call, workloads.sweep_args(self.spec["doc"], seeds,
                                                    str(out), jobs))
        codes = {}
        summary = out / "sweep_summary.csv"
        if summary.exists():
            with summary.open() as fh:
                for row in csv.DictReader(fh):
                    codes[row["run"]] = int(row["exit_code"])
        base = self.spec["doc_body"]
        members = []
        for i, s in enumerate(seeds):
            run = f"run{i:03d}"
            members.append(self._record_member(
                f"seed{s:02d}", workloads.member_document(base, s),
                codes.get(run, -1), out / run))
        shutil.rmtree(out, ignore_errors=True)
        return {"wall_ns": wall, "members": members, "jobs": jobs}


def _timed(call, argv: list[str]) -> tuple[int, int]:
    """(wall ns, exit code) of one CLI call.  An exception escaping the
    CLI is reported and counted as exit code 1, as the ``plume`` process
    would exit."""
    t0 = time.perf_counter_ns()
    try:
        code = call(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    return time.perf_counter_ns() - t0, code


def _run_phase(loop: Loop, seconds: float, call, jobs: int | None,
               seeds: list[int]) -> list[dict]:
    """Run until ``seconds`` have passed, at least once.  The reference
    chunk is timed before the first call and after each call; a gap comes
    before the first call and after each call but the last."""
    deadline = time.perf_counter() + seconds
    out = []
    loop.gap()
    ref = loop.reference(jobs)
    while True:
        if jobs is None:
            record = loop.single(call)
        else:
            record = loop.sweep(call, seeds, jobs)
        record["ref_before_ns"] = ref
        ref = record["ref_after_ns"] = loop.reference(jobs)
        out.append(record)
        if time.perf_counter() >= deadline:
            return out
        loop.gap()


def main(spec_path: str, result_path: str, request_fd: int, answer_fd: int):
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    for fd in (request_fd, answer_fd):
        os.set_inheritable(fd, False)
    loop = Loop(spec, request_fd, answer_fd)
    ensemble = spec["workload"] == "noise_ensemble"
    jobs = spec["jobs"] if ensemble else None
    seconds = float(spec["seconds"])
    seeds = workloads.ensemble_seeds(spec["seed"])
    plain = loop.cli.main

    # warm-up: imports, lazy numpy set-up and the pool's first start
    warm = dict(spec["doc_body"], duration=WARMUP_DURATION)
    warm_path = loop.work / "warmup.json"
    warm_path.write_text(json.dumps(warm))
    warm_out = loop.work / "warmup"
    _timed(plain, workloads.sweep_args(str(warm_path), [1, 2], str(warm_out), jobs)
           if ensemble else ["run", str(warm_path), "--out", str(warm_out)])
    shutil.rmtree(warm_out, ignore_errors=True)

    result = {"phases": {}}
    if not spec["trace"]:
        result["phases"]["measure"] = _run_phase(
            loop, seconds, plain, jobs, seeds)
    else:
        share = seconds / (3 if ensemble else 2)
        result["phases"]["untraced"] = _run_phase(loop, share, plain, jobs, seeds)
        if ensemble:
            result["phases"]["serial"] = _run_phase(loop, share, plain, 1, seeds)
        tracer = spans.Tracer()
        tracer.install()
        try:
            def traced(argv):
                return tracer.span(spans.ROOT, plain, argv)
            result["phases"]["traced"] = _run_phase(
                loop, share, traced, 1 if ensemble else None, seeds)
        finally:
            tracer.uninstall()
        result["trace"] = {"self_ns": dict(tracer.self_ns),
                           "calls": dict(tracer.calls),
                           "step_ns": tracer.step_ns,
                           "missing": tracer.missing}

    loop.close()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = self_kb + child_kb
    result["kept"] = loop.kept
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
