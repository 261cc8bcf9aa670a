"""Tests for the access-level tracing utilities."""

from repro.core.classify import AccessOutcome
from repro.sim.config import baseline_config
from repro.sim.simulator import simulate
from repro.sim.tracelog import format_access_log, record_accesses
from repro.core.policies import mc, no_restrict
from repro.workloads.spec92 import get_benchmark


class TestRecordAccesses:
    def test_limit_respected(self):
        records = record_accesses(get_benchmark("eqntott"), limit=25)
        assert len(records) == 25

    def test_indices_sequential(self):
        records = record_accesses(get_benchmark("eqntott"), limit=10)
        assert [r.index for r in records] == list(range(10))

    def test_issue_cycles_monotone(self):
        records = record_accesses(get_benchmark("doduc"), limit=50)
        cycles = [r.issue_cycle for r in records]
        assert cycles == sorted(cycles)

    def test_loads_carry_ready_times(self):
        records = record_accesses(get_benchmark("doduc"), limit=50)
        for record in records:
            if record.is_load:
                assert record.data_ready is not None
                assert record.data_ready >= record.issue_cycle + 1
                assert record.outcome in AccessOutcome
            else:
                assert record.data_ready is None
                assert record.store_hit in (True, False)

    def test_first_cold_access_is_a_miss(self):
        records = record_accesses(get_benchmark("tomcatv"), limit=5)
        first_load = next(r for r in records if r.is_load)
        assert first_load.outcome is not AccessOutcome.HIT

    def test_stall_cycles_nonnegative(self):
        records = record_accesses(get_benchmark("su2cor"),
                                  baseline_config(mc(1)), limit=100)
        assert all(r.stall_cycles >= 0 for r in records)

    def test_structural_outcomes_visible_under_mc1(self):
        records = record_accesses(get_benchmark("tomcatv"),
                                  baseline_config(mc(1)), limit=300)
        outcomes = {r.outcome for r in records if r.is_load}
        assert AccessOutcome.STRUCTURAL in outcomes


class TestNonInterference:
    def test_tracing_does_not_change_timing(self):
        workload = get_benchmark("doduc")
        untraced = simulate(workload, baseline_config(no_restrict()),
                            load_latency=10, scale=0.05)
        # A traced run of the same configuration produces the same
        # aggregate counters.
        from repro.cpu.reference import run_single_issue_reference
        from repro.sim.simulator import expand_workload
        from repro.sim.tracelog import TracingHandler

        _, trace = expand_workload(workload, 10, scale=0.05)
        handler = TracingHandler(
            baseline_config(no_restrict()).make_handler(), limit=10
        )
        cycles, instructions, _ = run_single_issue_reference(trace, handler)
        assert cycles == untraced.cycles
        assert instructions == untraced.instructions


class TestFormatting:
    def test_log_lines(self):
        records = record_accesses(get_benchmark("xlisp"), limit=8)
        text = format_access_log(records)
        assert len(text.splitlines()) == 8
        assert "load" in text and "0x" in text
