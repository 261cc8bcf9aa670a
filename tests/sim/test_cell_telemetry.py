"""Per-cell telemetry: one record per cell, folded when telemetry is read.

``simulate`` appends ``(seconds, result, outcome)`` per cell; the
simulator's collector turns the records, and the LRU caches' own hit
and miss counts, into the ``sim.*``, ``fusion.*`` and
``engine.cnative.*`` counters before any read.
"""

from __future__ import annotations

import json
import os
from collections.abc import MutableMapping
from dataclasses import replace

import pytest

from repro import telemetry
from repro.core.policies import blocking_cache, mc
from repro.cpu import ckernel
from repro.errors import ConfigurationError
from repro.sim import simulator
from repro.sim.config import baseline_config
from repro.sim.simulator import clear_caches, compile_workload, simulate
from repro.sim.stream import event_stream
from repro.workloads.spec92 import get_benchmark
from tests.helpers import compiler_hidden

#: Every counter a cell's outcome can move, and the stream builder's.
CELL_COUNTERS = (
    "sim.cells", "fusion.streams_built", "fusion.closed_form",
    "fusion.replays", "fusion.bypasses", "engine.cnative.replays",
    "engine.cnative.dual_issue", "engine.cnative.fallbacks",
    "engine.cnative.fallback.policy", "engine.cnative.fallback.nocc",
    "engine.cnative.fallback.build",
)

#: Registered by the first cell, zeros included.
EAGER = (
    "sim.cells", "sim.instructions", "sim.cycles",
    "sim.stall.truedep_cycles", "sim.stall.structural_cycles",
    "sim.stall.blocking_cycles", "sim.stall.write_allocate_cycles",
    "sim.stall.write_buffer_cycles", "sim.compile_cache.hits",
    "sim.compile_cache.misses", "sim.trace_cache.hits",
    "sim.trace_cache.misses", "fusion.closed_form", "fusion.replays",
    "engine.cnative.replays", "engine.cnative.dual_issue",
    "fusion.bypasses",
)

FALLBACKS = ("engine.cnative.fallbacks", "engine.cnative.fallback.policy",
             "engine.cnative.fallback.nocc", "engine.cnative.fallback.build")

MC1 = baseline_config(mc(1))
DUAL = replace(MC1, issue_width=2)

#: (label, machine, warmup, how the kernel is had, nonzero deltas).
OUTCOME_CASES = [
    ("closed-form", baseline_config(blocking_cache()), 0.0, "cc",
     {"fusion.closed_form": 1, "fusion.streams_built": 1}),
    ("replay-c", MC1, 0.0, "cc",
     {"fusion.replays": 1, "engine.cnative.replays": 1,
      "fusion.streams_built": 1}),
    ("replay-nocc", MC1, 0.0, "nocc",
     {"fusion.replays": 1, "engine.cnative.fallbacks": 1,
      "engine.cnative.fallback.nocc": 1, "fusion.streams_built": 1}),
    ("replay-build", MC1, 0.0, "build",
     {"fusion.replays": 1, "engine.cnative.fallbacks": 1,
      "engine.cnative.fallback.build": 1, "fusion.streams_built": 1}),
    ("dual-c", DUAL, 0.0, "cc", {"engine.cnative.dual_issue": 1}),
    ("dual-nocc", DUAL, 0.0, "nocc",
     {"fusion.bypasses": 1, "engine.cnative.fallbacks": 1,
      "engine.cnative.fallback.nocc": 1}),
    ("write-buffer", replace(MC1, write_buffer_depth=4), 0.0, "cc",
     {"fusion.bypasses": 1, "engine.cnative.fallbacks": 1,
      "engine.cnative.fallback.policy": 1}),
    ("warmup", MC1, 0.25, "cc", {"fusion.bypasses": 1}),
    ("perfect", replace(MC1, perfect_cache=True), 0.0, "cc",
     {"fusion.bypasses": 1}),
]


@pytest.fixture
def failing_build(monkeypatch):
    """A compiler that is found but whose build fails."""
    def refuse():
        raise ckernel.KernelBuildError("forced build failure")

    monkeypatch.setattr(ckernel, "kernels_available", lambda: True)
    monkeypatch.setattr(ckernel, "compile_kernel_so", refuse)
    monkeypatch.setattr(ckernel, "_KERNEL", None)
    monkeypatch.setattr(ckernel, "_BUILD_FAILURE", None)


class TestOutcomeTable:
    @pytest.mark.parametrize(
        "label,config,warmup,kernel,moved", OUTCOME_CASES,
        ids=[case[0] for case in OUTCOME_CASES])
    def test_each_outcome_moves_exactly_its_counters(
            self, label, config, warmup, kernel, moved, request):
        if kernel == "cc" and not ckernel.kernels_available():
            pytest.skip("no C compiler available")
        if kernel == "build":
            request.getfixturevalue("failing_build")
        telemetry.set_enabled(True)
        before = telemetry.snapshot()["counters"]
        if kernel == "nocc":
            with compiler_hidden():
                simulate(get_benchmark("xlisp"), config, load_latency=10,
                         scale=0.05, warmup=warmup)
        else:
            clear_caches()
            simulate(get_benchmark("xlisp"), config, load_latency=10,
                     scale=0.05, warmup=warmup)
        after = telemetry.snapshot()["counters"]
        deltas = {name: after.get(name, 0) - before.get(name, 0)
                  for name in CELL_COUNTERS}
        assert deltas == {name: moved.get(name, 0) + (name == "sim.cells")
                          for name in CELL_COUNTERS}
        assert set(EAGER) <= set(after)
        fell_back = "engine.cnative.fallbacks" in moved
        assert (set(FALLBACKS) <= set(after)) == fell_back

    def test_every_outcome_is_in_the_table(self):
        # Cases above cover each outcome a cell can take; the table
        # holds no other.
        assert set(simulator.OUTCOME_COUNTERS) == {
            "closed_form", "replay.c", "replay.nocc", "replay.build",
            "dual.c", "bypass", "bypass.policy", "bypass.nocc",
            "bypass.build"}


class TestCollection:
    def test_lookups_while_off_never_reach_a_counter(self):
        workload = get_benchmark("ora")
        telemetry.set_enabled(True)
        compile_workload(workload, 10)  # a miss, counted
        telemetry.set_enabled(False)
        compile_workload(workload, 10)  # hits while off
        telemetry.snapshot()
        event_stream(workload, 10, 0.05)  # a hit and a build while off
        telemetry.set_enabled(True)
        compile_workload(workload, 10)  # a hit, counted
        counters = telemetry.snapshot()["counters"]
        assert counters["sim.compile_cache.misses"] == 1
        assert counters["sim.compile_cache.hits"] == 1
        assert "sim.stream_cache.misses" not in counters
        assert "fusion.streams_built" not in counters

    def test_reset_drops_pending_records(self):
        telemetry.set_enabled(True)
        simulate(get_benchmark("ora"), MC1, load_latency=10, scale=0.05)
        telemetry.reset()
        assert "sim.cells" not in telemetry.snapshot()["counters"]

    def test_a_cell_reads_no_environment_variable(self, monkeypatch):
        # A warm closed-form cell runs no C entry, so nothing in it
        # asks the compiler probe either.
        workload = get_benchmark("ora")
        config = baseline_config(blocking_cache())
        telemetry.set_enabled(True)
        simulate(workload, config, load_latency=10, scale=0.05)
        environ = _CountingEnviron(os.environ)
        monkeypatch.setattr(os, "environ", environ)
        simulate(workload, config, load_latency=10, scale=0.05)
        assert environ.reads == []

    def test_pending_records_stay_bounded(self):
        workload = get_benchmark("ora")
        config = baseline_config(blocking_cache())
        telemetry.set_enabled(True)
        held = []
        for _ in range(simulator.PENDING_BOUND + 8):
            simulate(workload, config, load_latency=10, scale=0.05)
            held.append(len(simulator._PENDING))
        assert max(held) == simulator.PENDING_BOUND - 1
        assert held[simulator.PENDING_BOUND - 1] == 0
        assert telemetry.counter("sim.cells").value == \
            simulator.PENDING_BOUND + 8


class TestCellEvent:
    def test_raising_cell_records_its_time_and_event(self, tmp_path,
                                                     monkeypatch):
        trace = tmp_path / "trace.jsonl"
        monkeypatch.setenv(telemetry.TRACE_FILE_ENV, str(trace))
        telemetry.set_enabled(True)
        workload = get_benchmark("ora")
        with telemetry.span("outer"):
            simulate(workload, MC1, load_latency=10, scale=0.05)
            with pytest.raises(ConfigurationError):
                simulate(workload, MC1, load_latency=10, scale=0.05,
                         warmup=1.5)
        snap = telemetry.snapshot()
        assert snap["histograms"]["span.simulate.seconds"]["count"] == 2
        assert snap["counters"]["sim.cells"] == 1
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [e["name"] for e in events] == ["simulate", "simulate",
                                               "outer"]
        for event in events[:2]:
            assert event["args"] == {"workload": "ora", "policy": "mc=1",
                                     "load_latency": 10, "scale": 0.05,
                                     "_parent": "outer"}
            assert event["pid"] == os.getpid()


class _CountingEnviron(MutableMapping):
    """``os.environ`` that records every variable looked up."""

    def __init__(self, real):
        self._real = real
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return self._real[key]

    def __setitem__(self, key, value):
        self._real[key] = value

    def __delitem__(self, key):
        del self._real[key]

    def __iter__(self):
        return iter(self._real)

    def __len__(self):
        return len(self._real)
