"""Tests for the top-level simulate() driver."""

import pytest

from repro import telemetry
from repro.core.policies import blocking_cache, mc, no_restrict
from repro.sim.config import baseline_config
from repro.sim.simulator import (
    clear_caches,
    compile_workload,
    expand_workload,
    simulate,
)
from repro.workloads.spec92 import BENCHMARK_ORDER, get_benchmark


def _trace_misses() -> float:
    """Trace-cache misses so far: each one is an expansion."""
    return telemetry.snapshot()["counters"].get("sim.trace_cache.misses", 0)


class TestBasicRuns:
    def test_returns_result_with_counts(self):
        result = simulate(get_benchmark("eqntott"), baseline_config(mc(1)),
                          load_latency=10, scale=0.05)
        assert result.instructions > 0
        assert result.cycles >= result.instructions
        assert result.workload == "eqntott"
        assert result.policy == "mc=1"
        assert result.load_latency == 10

    def test_accounting_identity_enforced(self):
        # simulate() calls verify_accounting(); it must not raise.
        for policy in (blocking_cache(), mc(1), no_restrict()):
            simulate(get_benchmark("doduc"), baseline_config(policy),
                     load_latency=10, scale=0.05)

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_every_benchmark_runs_and_accounts(self, name):
        result = simulate(get_benchmark(name), baseline_config(mc(1)),
                          load_latency=6, scale=0.03)
        result.verify_accounting()
        assert result.mcpi >= 0

    def test_deterministic(self):
        w = get_benchmark("compress")
        a = simulate(w, baseline_config(mc(1)), load_latency=10, scale=0.05)
        b = simulate(w, baseline_config(mc(1)), load_latency=10, scale=0.05)
        assert a.cycles == b.cycles
        assert a.miss.primary_misses == b.miss.primary_misses

    def test_perfect_cache_is_cpi_one(self):
        from dataclasses import replace

        config = replace(baseline_config(), perfect_cache=True)
        result = simulate(get_benchmark("tomcatv"), config,
                          load_latency=10, scale=0.05)
        assert result.cycles == result.instructions
        assert result.policy == "perfect"

    def test_dual_issue_runs(self):
        from dataclasses import replace

        config = replace(baseline_config(mc(1)), issue_width=2)
        result = simulate(get_benchmark("doduc"), config,
                          load_latency=10, scale=0.05)
        assert result.issue_width == 2
        assert result.cycles < result.instructions * 2


class TestCaching:
    def test_compiled_body_reused(self):
        w = get_benchmark("doduc")
        first = compile_workload(w, 10)
        second = compile_workload(w, 10)
        assert first is second

    def test_different_latency_different_body(self):
        w = get_benchmark("doduc")
        assert compile_workload(w, 1) is not compile_workload(w, 10)

    def test_trace_reused_across_policies(self):
        w = get_benchmark("doduc")
        _, t1 = expand_workload(w, 10, scale=0.05)
        _, t2 = expand_workload(w, 10, scale=0.05)
        assert t1 is t2

    def test_clear_caches(self):
        w = get_benchmark("doduc")
        first = compile_workload(w, 10)
        clear_caches()
        assert compile_workload(w, 10) is not first


class TestPolicyOrdering:
    def test_more_hardware_never_hurts_tomcatv(self):
        w = get_benchmark("tomcatv")
        mcpis = [
            simulate(w, baseline_config(p), load_latency=10, scale=0.1).mcpi
            for p in (blocking_cache(), mc(1), mc(2), no_restrict())
        ]
        assert mcpis == sorted(mcpis, reverse=True)

    def test_default_config_is_baseline(self):
        result = simulate(get_benchmark("eqntott"), load_latency=3,
                          scale=0.03)
        assert result.policy == "no restrict"


class TestWarmupDiscard:
    def test_accounting_still_exact(self):
        result = simulate(get_benchmark("xlisp"), baseline_config(mc(1)),
                          load_latency=10, scale=0.2, warmup=0.3)
        result.verify_accounting()
        assert result.instructions > 0

    def test_warmup_removes_cold_start_drift(self):
        w = get_benchmark("xlisp")
        cold_short = simulate(w, baseline_config(mc(1)), load_latency=10,
                              scale=0.25).mcpi
        cold_long = simulate(w, baseline_config(mc(1)), load_latency=10,
                             scale=1.0).mcpi
        warm_short = simulate(w, baseline_config(mc(1)), load_latency=10,
                              scale=0.25, warmup=0.2).mcpi
        warm_long = simulate(w, baseline_config(mc(1)), load_latency=10,
                             scale=1.0, warmup=0.2).mcpi
        cold_drift = abs(cold_short - cold_long) / cold_long
        warm_drift = abs(warm_short - warm_long) / warm_long
        assert warm_drift < cold_drift

    def test_warmup_lowers_cold_start_mcpi(self):
        w = get_benchmark("xlisp")
        cold = simulate(w, baseline_config(mc(1)), load_latency=10,
                        scale=0.25).mcpi
        warm = simulate(w, baseline_config(mc(1)), load_latency=10,
                        scale=0.25, warmup=0.25).mcpi
        assert warm < cold

    def test_streaming_models_unaffected(self):
        # ora misses identically forever: warmup changes nothing.
        import pytest as _pytest

        w = get_benchmark("ora")
        cold = simulate(w, baseline_config(mc(1)), load_latency=10,
                        scale=0.2).mcpi
        warm = simulate(w, baseline_config(mc(1)), load_latency=10,
                        scale=0.2, warmup=0.4).mcpi
        assert warm == _pytest.approx(cold, rel=0.01)

    # A rejected warmup is caught before the trace is compiled and
    # expanded: the emptied trace cache records no miss.
    def test_bad_warmup_rejected(self):
        import pytest as _pytest

        from repro.errors import ConfigurationError

        telemetry.set_enabled(True)
        clear_caches()
        before = _trace_misses()
        with _pytest.raises(ConfigurationError):
            simulate(get_benchmark("ora"), baseline_config(mc(1)),
                     scale=0.05, warmup=1.5)
        assert _trace_misses() == before

    def test_dual_issue_warmup_rejected(self):
        import pytest as _pytest
        from dataclasses import replace

        from repro.errors import ConfigurationError

        config = replace(baseline_config(mc(1)), issue_width=2)
        telemetry.set_enabled(True)
        clear_caches()
        before = _trace_misses()
        with _pytest.raises(ConfigurationError):
            simulate(get_benchmark("ora"), config, scale=0.05, warmup=0.2)
        assert _trace_misses() == before
