"""Tests for the multiprocess sweep runner."""

import time
from dataclasses import replace

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.policies import blocking_cache, fc, mc, no_restrict
from repro.cpu import ckernel
from repro.errors import ConfigurationError
from repro.sim import parallel
from repro.sim.config import baseline_config
from repro.sim.parallel import (
    _group_cells,
    _prebuild_kernels,
    default_workers,
    dispatch,
    pool_stats,
    shutdown_pool,
)
from repro.sim.simulator import simulate_reference
from repro.sim.sweep import run_table
from repro.workloads.spec92 import get_benchmark


class TestDispatch:
    def test_single_worker_runs_inline(self):
        cells = [
            (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05),
        ]
        results = dispatch(cells, workers=1)
        assert len(results) == 1
        assert results[0].workload == "ora"

    def test_order_preserved(self):
        cells = [
            (get_benchmark(name), baseline_config(mc(1)), 10, 0.05)
            for name in ("ora", "eqntott", "xlisp")
        ]
        results = dispatch(cells, workers=1)
        assert [r.workload for r in results] == ["ora", "eqntott", "xlisp"]

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_pool_matches_inline(self):
        cells = [
            (get_benchmark(name), baseline_config(mc(1)), 10, 0.05)
            for name in ("ora", "eqntott")
        ]
        serial = dispatch(cells, workers=1)
        try:
            parallel_results = dispatch(cells, workers=2)
        finally:
            shutdown_pool()
        assert parallel_results == serial

    def test_empty_cell_list(self):
        assert dispatch([]) == []


class TestWorkerEnvValidation:
    def test_repro_workers_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_repro_workers_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="must be an integer"):
            default_workers()

    def test_repro_workers_below_one_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ConfigurationError, match=">= 1"):
            default_workers()


class TestPersistentPool:
    def _cells(self, scale=0.05):
        return [
            (get_benchmark(name), baseline_config(policy), 10, scale)
            for name in ("ora", "eqntott")
            for policy in (mc(1), no_restrict())
        ]

    def test_pool_reused_across_consecutive_sweeps(self):
        shutdown_pool()
        cells = self._cells()
        try:
            serial = dispatch(cells, workers=1)
            assert dispatch(cells, workers=2) == serial
            created_after_first = pool_stats()["created"]
            assert dispatch(cells, workers=2) == serial
            stats = pool_stats()
            assert stats["active"]
            assert stats["created"] == created_after_first  # no new pool
            assert stats["reused"] >= 1
        finally:
            assert shutdown_pool() is True
        assert shutdown_pool() is False  # idempotent once retired
        assert not pool_stats()["active"]

    def test_pool_capped_at_group_count(self):
        shutdown_pool()
        try:
            # Two (workload, latency, scale) groups; asking for eight
            # workers must not spawn more than two.
            dispatch(self._cells(), workers=8)
            assert pool_stats()["workers"] == 2
        finally:
            shutdown_pool()

    def test_single_group_runs_inline_without_pool(self):
        shutdown_pool()
        cells = [
            (get_benchmark("ora"), baseline_config(policy), 10, 0.05)
            for policy in (mc(1), mc(2), no_restrict())
        ]
        results = dispatch(cells, workers=4)
        assert not pool_stats()["active"]  # one group -> no pool at all
        assert [r.policy for r in results] == ["mc=1", "mc=2", "no restrict"]

    def test_idle_shutdown_reports_nothing_live(self):
        shutdown_pool()
        assert shutdown_pool() is False

    def test_unused_pool_retires_itself(self, monkeypatch):
        monkeypatch.setattr(parallel, "POOL_IDLE_SECONDS", 0.05)
        shutdown_pool()
        try:
            dispatch(self._cells(), workers=2)
            shutdowns = pool_stats()["shutdowns"]
            deadline = time.monotonic() + 10.0
            while pool_stats()["active"] and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = pool_stats()
            assert not stats["active"]
            assert stats["shutdowns"] == shutdowns + 1
        finally:
            shutdown_pool()

    def test_stats_are_the_process_pool_keys(self):
        assert set(pool_stats()) == {
            "active", "workers", "created", "reused", "shutdowns",
        }


class TestGrouping:
    def test_equal_but_distinct_workloads_share_a_group(self):
        """Content-keyed grouping: replace() copies bucket together."""
        workload = get_benchmark("ora")
        twin = replace(workload, description="same content, new object")
        config = baseline_config(mc(1))
        groups = _group_cells(
            [(workload, config, 10, 0.05), (twin, config, 10, 0.05)],
            max_group=8,
        )
        assert len(groups) == 1
        assert len(groups[0][3]) == 2

    def test_different_seeds_grouped_apart(self):
        workload = get_benchmark("ora")
        other = replace(workload, seed=workload.seed + 1)
        config = baseline_config(mc(1))
        groups = _group_cells(
            [(workload, config, 10, 0.05), (other, config, 10, 0.05)],
            max_group=8,
        )
        assert len(groups) == 2


class TestKernelPrebuild:
    @staticmethod
    def _prebuild(monkeypatch, configs, fail=False):
        """Run the prebuild over ``configs``; return its build calls."""
        monkeypatch.setattr(ckernel, "kernels_available", lambda: True)
        calls = []

        def ensure_kernel(*args):
            calls.append(args)
            if fail:
                raise ckernel.KernelBuildError("simulated build failure")

        monkeypatch.setattr(ckernel, "ensure_kernel", ensure_kernel)
        workload = get_benchmark("ora")
        _prebuild_kernels([(workload, c, 10, 0.05) for c in configs])
        return calls

    def test_one_build_serves_every_c_cell(self, monkeypatch):
        assoc = CacheGeometry(size=8192, line_size=32, associativity=4)
        configs = [baseline_config(mc(1)), baseline_config(fc(2)),
                   baseline_config(no_restrict()),
                   replace(baseline_config(mc(1)), geometry=assoc),
                   replace(baseline_config(mc(1)), issue_width=2)]
        assert self._prebuild(monkeypatch, configs) == [()]

    def test_no_c_cell_builds_nothing(self, monkeypatch):
        # A finite write buffer runs the interpreter, which never
        # touches the kernel.
        configs = [replace(baseline_config(mc(1)), write_buffer_depth=4)]
        assert self._prebuild(monkeypatch, configs) == []

    def test_closed_form_cell_builds_the_kernel(self, monkeypatch):
        # A blocking single-issue cell takes the closed form, whose
        # functional summary is classified in the kernel.
        configs = [baseline_config(blocking_cache()),
                   replace(baseline_config(mc(1)), write_buffer_depth=4)]
        assert self._prebuild(monkeypatch, configs) == [()]

    def test_failed_build_is_left_to_the_cells(self, monkeypatch):
        # The per-cell fallback reports a failed build; the prebuild
        # must not raise it into the dispatcher.
        calls = self._prebuild(monkeypatch, [baseline_config(mc(1))],
                               fail=True)
        assert calls == [()]


class TestDualIssuePrebuild:
    @pytest.mark.skipif(not ckernel.kernels_available(),
                        reason="no C compiler available")
    def test_pool_parent_builds_the_kernel(self, monkeypatch):
        # Dual-issue cells run in the C kernel too, so the parent
        # builds it before forking instead of leaving each worker to
        # compile it.
        ckernel.reset_probe()
        configs = [replace(baseline_config(policy), issue_width=2)
                   for policy in (blocking_cache(write_allocate=True),
                                  mc(1), fc(2))]
        cells = [(get_benchmark(name), config, 10, 0.05)
                 for name in ("ora", "xlisp") for config in configs]
        try:
            dispatch(cells, workers=2)
            loaded = ckernel.loaded_kernels()
        finally:
            ckernel.reset_probe()
        assert len(loaded) == 1


class TestParallelMatchesSerial:
    @pytest.fixture(autouse=True)
    def _simulate_every_run(self, monkeypatch):
        # With the store on, the pooled run is served from the serial
        # run's results and never reaches the pool.
        monkeypatch.setenv("REPRO_CACHE", "0")

    def test_table_identical_across_pool(self):
        """Bit-identical results whether run serially or in a pool."""
        workloads = [get_benchmark("eqntott"), get_benchmark("ora")]
        policies = [blocking_cache(), mc(1), no_restrict()]

        serial = run_table(workloads, policies, load_latency=10, scale=0.1)
        parallel = run_table(workloads, policies, load_latency=10,
                             scale=0.1, workers=2)
        assert parallel.policy_names == serial.policy_names
        for bench in ("eqntott", "ora"):
            for policy in ("mc=0", "mc=1", "no restrict"):
                a = serial.rows[bench][policy]
                b = parallel.rows[bench][policy]
                assert a.cycles == b.cycles
                assert a.instructions == b.instructions
                assert a.miss.primary_misses == b.miss.primary_misses
                assert a.miss.miss_inflight_hist == b.miss.miss_inflight_hist

    def test_pooled_sweep_matches_reference(self):
        """The CI smoke sweep's cells, pooled, equal the reference loops."""
        cells = [
            (get_benchmark(name), baseline_config(policy), 10, 0.05)
            for name in ("xlisp", "eqntott")
            for policy in (mc(1), no_restrict())
        ]
        results = dispatch(cells, workers=2)
        assert results == [
            simulate_reference(workload, config, load_latency=latency,
                               scale=scale)
            for workload, config, latency, scale in cells
        ]

    def test_ratio_queries_work_on_parallel_tables(self):
        workloads = [get_benchmark("ora")]
        policies = [blocking_cache(), no_restrict()]
        table = run_table(workloads, policies, load_latency=10,
                          scale=0.05, workers=2)
        assert table.ratio("ora", "mc=0", "no restrict") == pytest.approx(1.0)
