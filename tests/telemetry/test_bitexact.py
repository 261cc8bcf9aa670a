"""Telemetry must never perturb simulation results.

The instrumentation sits outside the timing model (span wrappers and
counter increments around whole cells), so every simulated number --
cycles, stall breakdowns, miss counts -- must be bit-identical with
telemetry enabled, disabled, and with a trace sink attached.
"""

from __future__ import annotations

from repro import telemetry
from repro.core.policies import mc, no_restrict
from repro.sim.config import baseline_config
from repro.sim.simulator import clear_caches, simulate
from repro.sim.sweep import run_table
from repro.workloads.spec92 import get_benchmark


def _simulate_once():
    clear_caches()
    return simulate(get_benchmark("ora"), baseline_config(mc(2)),
                    load_latency=10, scale=0.05)


class TestBitExactness:
    def test_simulate_identical_with_telemetry_off(self):
        telemetry.set_enabled(True)
        try:
            with_telemetry = _simulate_once()
            telemetry.set_enabled(False)
            without_telemetry = _simulate_once()
        finally:
            telemetry.set_enabled(None)
        assert with_telemetry == without_telemetry

    def test_simulate_identical_with_trace_sink(self, tmp_path, monkeypatch):
        baseline = _simulate_once()
        monkeypatch.setenv(telemetry.TRACE_FILE_ENV,
                           str(tmp_path / "trace.jsonl"))
        telemetry.set_enabled(None)  # the sink is read once
        traced = _simulate_once()
        monkeypatch.delenv(telemetry.TRACE_FILE_ENV)
        assert traced == baseline
        assert telemetry.validate_trace_file(tmp_path / "trace.jsonl") >= 1

    def test_sweep_identical_with_telemetry_off(self, monkeypatch):
        # disable the result store so the second sweep re-simulates
        # instead of replaying the first sweep's cached cells
        monkeypatch.setenv("REPRO_CACHE", "0")
        workloads = [get_benchmark("ora"), get_benchmark("eqntott")]
        policies = [mc(1), no_restrict()]

        telemetry.set_enabled(True)
        try:
            clear_caches()
            with_telemetry = run_table(workloads, policies,
                                       load_latency=10, scale=0.05)
            telemetry.set_enabled(False)
            clear_caches()
            without_telemetry = run_table(workloads, policies,
                                          load_latency=10, scale=0.05)
        finally:
            telemetry.set_enabled(None)

        for bench in ("ora", "eqntott"):
            for policy in with_telemetry.policy_names:
                a = with_telemetry.rows[bench][policy]
                b = without_telemetry.rows[bench][policy]
                assert a == b
