"""Per-layer spans recorded from outside the simulator.

Each layer's public entry points are replaced, at the module attribute
their callers look up, by a wrapper that records one span per entry
into the layer.  ``sim.simulator``, ``sim.planner``, ``sim.bounds`` and
``analysis.designspace`` bind these functions with ``from ... import``,
so the wrapper goes on the importing module's name, not only on the
defining one.  Nothing under ``src/`` changes.

A span's *self* time is its duration minus the time its child spans
cover.  A call that re-enters the layer it is already in (for example
``functional_summary`` asking ``event_stream`` for its stream) is part
of the outer span, not a new one.  Spans are kept only in the process
and thread that installed the tracer: forked pool workers inherit the
wrappers but pass straight through, because their time cannot be seen
from here (the pool's own telemetry reports it instead).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Site = Tuple[str, str]  # (module, "name" or "Class.method")
Outcome = Callable[["Tally", tuple, object, float], None]


class Tally:
    """Span totals for one traced segment (a pass, or a kernel rebuild)."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: Outcome counts and tagged times recorded by the layers' hooks.
        self.extra: Dict[str, float] = defaultdict(float)
        #: Wall time of the traced segments, timed by the caller.
        self.wall_s = 0.0


def _experiment_outcome(tally, args, result, elapsed):
    tally.extra[f"experiment.{args[0].experiment_id}.s"] += elapsed


def _accepted(prefix: str) -> Outcome:
    def outcome(tally, args, result, elapsed):
        if result is not None:
            tally.extra[prefix + ".accepted"] += 1
    return outcome


def _plan_outcome(tally, args, result, elapsed):
    report = result[1]
    tally.extra["plan.cells"] += report.cells
    tally.extra["plan.deduplicated"] += report.deduplicated


def _screen_outcome(tally, args, result, elapsed):
    if isinstance(result, tuple):  # run_band; screen_cells returns a list
        report = result[1]
        tally.extra["screen.cells"] += report.cells
        tally.extra["screen.pruned"] += report.pruned
        tally.extra["screen.simulated"] += report.simulated


#: (layer, entry points, outcome hook), outermost layers first.
LAYERS: Sequence[Tuple[str, Sequence[Site], Optional[Outcome]]] = (
    ("experiment", [("repro.experiments.base", "Experiment.run")],
     _experiment_outcome),
    ("screen", [("repro.analysis.designspace", "run_band"),
                ("repro.analysis.screen", "screen_cells")], _screen_outcome),
    ("bounds", [("repro.analysis.screen", "cell_bounds")], None),
    ("plan", [("repro.sim.planner", "run_plan")], _plan_outcome),
    ("fingerprint", [("repro.sim.planner", "cell_fingerprint")], None),
    ("store.get", [("repro.sim.resultstore", "ResultStore.load")],
     _accepted("store.get")),
    ("store.put", [("repro.sim.resultstore", "ResultStore.store")], None),
    ("store.counters",
     [("repro.sim.resultstore", "ResultStore.add_counters")], None),
    ("dispatch", [("repro.sim.planner", "dispatch")], None),
    ("plane", [("repro.sim.traceplane", "TracePlane.acquire"),
               ("repro.sim.traceplane", "TracePlane.acquire_stream")], None),
    ("simulate", [("repro.sim.simulator", "simulate")], None),
    ("compile", [("repro.sim.simulator", "compile_kernel")], None),
    ("expand", [("repro.sim.simulator", "expand")], None),
    ("stream", [("repro.sim.stream", "event_stream"),
                ("repro.sim.stream", "functional_summary"),
                ("repro.sim.bounds", "event_stream"),
                ("repro.sim.bounds", "functional_summary")], None),
    ("replay.native", [("repro.cpu.replay_native", "run_native")],
     _accepted("replay.native")),
    ("replay.cnative", [("repro.cpu.replay_cnative", "run_cnative")],
     _accepted("replay.cnative")),
    ("replay.scalar", [("repro.cpu.replay", "run_replay")], None),
    ("closed_form", [("repro.cpu.replay", "run_blocking_summary")], None),
    ("interp", [("repro.sim.simulator", "run_dual_issue"),
                ("repro.sim.simulator", "run_single_issue")], None),
)

#: Traced only while setup builds the kernels: during a pass,
#: ``ensure_kernel`` is a memo lookup that belongs to the C replay lane.
KERNEL_BUILD = (("kernel_build", [("repro.cpu.ckernel", "ensure_kernel")],
                 None),)

LAYER_NAMES: List[str] = [name for name, _, _ in LAYERS] + ["kernel_build"]


class Tracer:
    """Installs span wrappers and feeds them into the current tally."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []
        #: Where spans go; ``None`` makes every wrapper pass through.
        self.tally: Optional[Tally] = None

    def install(self, layers=LAYERS) -> None:
        for name, sites, outcome in layers:
            for module_name, attr in sites:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    class_name, attr = attr.split(".")
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, outcome))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, outcome: Optional[Outcome]):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tally = self.tally
            if (tally is None or (stack and stack[-1][0] == name)
                    or os.getpid() != self._pid
                    or threading.get_ident() != self._thread):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tally.calls[name] += 1
                tally.total_s[name] += elapsed
                tally.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if outcome is not None:
                outcome(tally, args, result, elapsed)
            return result

        return span

    @contextlib.contextmanager
    def tracing(self, layers, tally: Tally):
        """Spans of ``layers`` feed ``tally`` inside the ``with`` block."""
        self.install(layers)
        self.tally = tally
        try:
            yield
        finally:
            self.tally = None
            self.uninstall()
