"""Cross-process aggregation: pool metrics == the sum of serial runs."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core.policies import mc, no_restrict
from repro.sim.config import baseline_config
from repro.sim.parallel import dispatch
from repro.telemetry.registry import snapshot_diff
from repro.workloads.spec92 import get_benchmark


def _cells():
    return [
        (get_benchmark(name), baseline_config(policy), 10, 0.05)
        for name in ("ora", "eqntott")
        for policy in (mc(1), no_restrict())
    ]


SIM_COUNTERS = (
    "sim.cells",
    "sim.instructions",
    "sim.cycles",
    "sim.stall.truedep_cycles",
    "sim.stall.structural_cycles",
)


class TestPoolAggregation:
    def test_parallel_metrics_equal_serial_sum(self):
        cells = _cells()

        before = telemetry.snapshot()
        serial_results = dispatch(cells, workers=1)
        serial = snapshot_diff(before, telemetry.snapshot())

        before = telemetry.snapshot()
        parallel_results = dispatch(cells, workers=2)
        parallel = snapshot_diff(before, telemetry.snapshot())

        # simulation results themselves are bit-identical
        assert serial_results == parallel_results

        # every simulator counter aggregates to exactly the serial total
        for name in SIM_COUNTERS:
            assert parallel["counters"].get(name, 0.0) == pytest.approx(
                serial["counters"].get(name, 0.0)
            ), name

        # one simulate span per cell lands in the parent registry either way
        serial_spans = serial["histograms"]["span.simulate.seconds"]
        parallel_spans = parallel["histograms"]["span.simulate.seconds"]
        assert serial_spans["count"] == len(cells)
        assert parallel_spans["count"] == len(cells)

    def test_pool_records_its_own_instrumentation(self):
        before = telemetry.snapshot()
        dispatch(_cells(), workers=2)
        diff = snapshot_diff(before, telemetry.snapshot())

        assert diff["counters"]["pool.dispatches"] == 1
        assert diff["counters"]["pool.groups"] >= 1
        assert diff["gauges"]["pool.workers"] == 2
        assert 0.0 <= diff["gauges"]["pool.last_utilization"] <= 1.0
        assert diff["histograms"]["pool.group_cells"]["sum"] == len(_cells())
        assert diff["histograms"]["pool.queue_wait_seconds"]["count"] >= 1

    def test_serial_path_skips_pool_metrics(self):
        before = telemetry.snapshot()
        dispatch(_cells(), workers=1)
        diff = snapshot_diff(before, telemetry.snapshot())
        assert "pool.dispatches" not in diff["counters"]

    def test_disabled_telemetry_still_runs_the_pool(self):
        telemetry.set_enabled(False)
        try:
            results = dispatch(_cells(), workers=2)
        finally:
            telemetry.set_enabled(None)
        assert len(results) == len(_cells())
