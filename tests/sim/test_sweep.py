"""Tests for the sweep harness."""

import pytest

from repro.core.policies import blocking_cache, mc, no_restrict
from repro.sim.config import baseline_config
from repro.sim.sweep import (
    PAPER_LATENCIES,
    run_curves,
    run_penalty_sweep,
    run_table,
)
from repro.workloads.spec92 import get_benchmark


class TestCurves:
    def test_shape(self):
        w = get_benchmark("eqntott")
        policies = [mc(1), no_restrict()]
        sweep = run_curves(w, policies, latencies=(1, 10), scale=0.03)
        assert sweep.latencies == (1, 10)
        assert set(sweep.policies()) == {"mc=1", "no restrict"}
        assert len(sweep.mcpi_curve("mc=1")) == 2

    def test_results_carry_latency(self):
        w = get_benchmark("eqntott")
        sweep = run_curves(w, [mc(1)], latencies=(3,), scale=0.03)
        assert sweep.results["mc=1"][0].load_latency == 3


class TestTable:
    def test_rows_and_ratios(self):
        workloads = [get_benchmark("eqntott"), get_benchmark("ora")]
        policies = [blocking_cache(), no_restrict()]
        table = run_table(workloads, policies, load_latency=10, scale=0.05)
        assert set(table.rows) == {"eqntott", "ora"}
        assert table.policy_names == ("mc=0", "no restrict")
        ratio = table.ratio("eqntott", "mc=0", "no restrict")
        assert ratio >= 1.0
        # ora: identical MCPI everywhere (the paper's 1.000 row).
        assert table.ratio("ora", "mc=0", "no restrict") == 1.0


class TestPenaltySweep:
    def test_blocking_linear_nonblocking_sublinear(self):
        w = get_benchmark("tomcatv")
        sweep = run_penalty_sweep(
            w, [blocking_cache(), no_restrict()], penalties=(8, 16, 32),
            load_latency=10, scale=0.05,
        )
        blocking = {p: r.mcpi for p, r in sweep["mc=0"].items()}
        free = {p: r.mcpi for p, r in sweep["no restrict"].items()}
        # mc=0 strictly linear: doubling the penalty doubles MCPI.
        assert blocking[32] / blocking[16] == \
            __import__("pytest").approx(2.0, rel=0.02)
        # Non-blocking at small penalties overlaps nearly everything.
        assert free[8] < blocking[8] / 2


class TestPaperLatencies:
    def test_the_paper_set(self):
        assert PAPER_LATENCIES == (1, 2, 3, 6, 10, 20)


class TestWorkersPlumbing:
    """Every sweep entry point accepts ``workers`` and stays bit-exact."""

    @pytest.fixture(autouse=True)
    def _simulate_every_run(self, monkeypatch):
        # With the store on, the pooled run is served from the serial
        # run's results and never reaches the pool.
        monkeypatch.setenv("REPRO_CACHE", "0")

    def test_curves_workers_identical(self):
        w = get_benchmark("eqntott")
        policies = [mc(1), no_restrict()]
        serial = run_curves(w, policies, latencies=(1, 10), scale=0.03)
        pooled = run_curves(w, policies, latencies=(1, 10), scale=0.03,
                            workers=2)
        for policy in ("mc=1", "no restrict"):
            assert pooled.results[policy] == serial.results[policy]

    def test_table_workers_identical(self):
        workloads = [get_benchmark("eqntott"), get_benchmark("ora")]
        policies = [blocking_cache(), no_restrict()]
        serial = run_table(workloads, policies, load_latency=10, scale=0.05)
        pooled = run_table(workloads, policies, load_latency=10, scale=0.05,
                           workers=2)
        assert pooled.rows == serial.rows

    def test_penalty_sweep_workers_identical(self):
        w = get_benchmark("tomcatv")
        serial = run_penalty_sweep(w, [no_restrict()], penalties=(8, 16),
                                   load_latency=10, scale=0.05)
        pooled = run_penalty_sweep(w, [no_restrict()], penalties=(8, 16),
                                   load_latency=10, scale=0.05, workers=2)
        assert pooled == serial
