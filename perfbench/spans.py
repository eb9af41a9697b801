"""Per-layer spans recorded from outside plumetrack.

The tracer replaces public functions of plumetrack's modules (and methods
of its field classes) with wrappers that time each call.  Nothing inside
``src/`` changes: a wrapper is installed on the module or class attribute
the caller looks up, and removed again by :meth:`Tracer.uninstall`.

Each span has a name and the span that was open when it started (its
parent).  A wrapper records a span only under the parents it is declared
for; elsewhere it is transparent and its time stays with whatever span is
open.  That keeps, say, the ``FlowField.at`` calls inside a grid step out
of ``field.flow_at`` and in the grid step where they belong.

A span's self time is its duration minus the durations of its direct
children, so the self times of every span under one root add up to the
root's duration exactly.  A function the current code does not have is
skipped and listed in :attr:`Tracer.missing`; its time then stays with
its caller.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

ROOT = "cli.main"
RUN = "simulator.run"


def _layer_spec(cli, field, guidance, sensing, simulator, vessel):
    """(owner, attribute, span name, allowed parents, call counter)."""
    fields = (field.PuffPlume, field.FrozenGaussian, field.GridField)
    spec = [
        (cli, "load_raw", "scenario_io.load", {ROOT}, None),
        (cli, "scenario_from_dict", "scenario_io.load", {ROOT}, None),
        (simulator, "run", RUN, {ROOT}, None),
        (simulator, "metrics", "simulator.metrics", {ROOT}, None),
        (simulator.RunLog, "to_csv", "simulator.to_csv", {ROOT}, None),
        (field.GridField, "advance", "field.advance", {RUN}, None),
        (field.GridField, "step", "field.grid_step", {"field.advance"},
         "field.grid_step_calls"),
        (sensing, "world_positions", "sensing.world_positions", {RUN}, None),
        (sensing, "sample", "sensing.sample", {RUN}, None),
        (sensing, "estimate", "sensing.estimate", {RUN}, None),
        (field.FlowField, "at", "field.flow_at", {RUN}, None),
        (guidance, "observer_update", "guidance.observer_update", {RUN}, None),
        (guidance, "control", "guidance.control", {RUN}, None),
        (guidance, "update_status", "guidance.update_status", {RUN}, None),
        (vessel, "head_point", "vessel.head_point", {RUN}, None),
        (vessel, "to_actuators", "vessel.to_actuators", {RUN}, None),
        (vessel, "step", "vessel.step", {RUN}, None),
        (field.GridField, "sample", "field.grid_sample", {"field.sample"}, None),
    ]
    for cls in fields:
        spec.append((cls, "eval_many", "field.sample", {"sensing.sample"},
                     "field.eval_many_calls"))
        spec.append((cls, "eval", "field.oracle", {RUN}, None))
    return spec


class Tracer:
    """Span recorder for one process.  Install, run, read, uninstall."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.step_ns: list[int] = []      # wall time of each control step
        self.missing: list[str] = []
        self._stack: list[list] = []      # [name, start_ns, children_ns]
        self._saved: list[tuple] = []
        self._step_start = 0
        self._step_open = False

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        dt = perf_counter_ns() - frame[1]
        self._stack.pop()
        self.self_ns[frame[0]] += dt - frame[2]
        if self._stack:
            self._stack[-1][2] += dt

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _step_boundary(self, name: str):
        # A control step starts at the grid advance or, without one, at the
        # sensor positions; it ends where the next step starts.
        now = perf_counter_ns()
        if name == RUN:
            self._step_start, self._step_open = now, False
        elif self._step_open:
            self.step_ns.append(now - self._step_start)
            self._step_start, self._step_open = now, False
        if name == "sensing.world_positions":
            self._step_open = True

    def _wrap(self, orig, name, parents, counter):
        tracer = self
        boundary = name in (RUN, "field.advance", "sensing.world_positions")

        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.calls[counter] += 1
            stack = tracer._stack
            if not stack or stack[-1][0] not in parents:
                return orig(*args, **kwargs)
            if boundary:
                tracer._step_boundary(name)
            frame = tracer._enter(name)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if name == RUN and tracer._step_open:
                    tracer.step_ns.append(perf_counter_ns() - tracer._step_start)
                    tracer._step_open = False

        wrapper.__wrapped__ = orig
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        from plumetrack import cli, field, guidance, sensing, simulator, vessel
        for owner, attr, name, parents, counter in _layer_spec(
                cli, field, guidance, sensing, simulator, vessel):
            if attr not in vars(owner):
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, parents, counter))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
