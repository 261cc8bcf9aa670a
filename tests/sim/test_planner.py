"""Tests for the unified sweep planner: dedup, memoization, equality."""

import multiprocessing
import pickle
import shutil
import sqlite3
from contextlib import closing
from dataclasses import replace

import pytest

import repro.sim.planner as planner
import repro.sim.simulator
from repro import telemetry
from repro.core.policies import (
    blocking_cache,
    fc,
    fs,
    mc,
    no_restrict,
    with_layout,
)
from repro.errors import ConfigurationError
from repro.sim.config import baseline_config
from repro.sim.parallel import dispatch
from repro.sim.planner import cached_simulate, execute_cells, run_plan
from repro.sim import resultstore
from repro.sim.resultstore import ResultStore, cell_fingerprint
from repro.sim.simulator import simulate
from repro.workloads.spec92 import get_benchmark
from tests.helpers import selects


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def _shared_store_cells():
    """Nine cells; :func:`_plan_into_file` runs two overlapping slices."""
    return [(get_benchmark(name), baseline_config(policy), 10, 0.05)
            for name in ("ora", "eqntott", "tomcatv")
            for policy in (mc(1), fc(2), no_restrict())]


def _plan_into_file(root, start, stop, out):
    """Spawned-process body: plan one slice against a shared store."""
    results, report = run_plan(_shared_store_cells()[start:stop],
                               store=ResultStore(root))
    with open(out, "wb") as fh:
        pickle.dump((results, report.unique), fh)


def _count_simulations(monkeypatch):
    """Wrap the simulator entry point with a call counter."""
    calls = []
    real = repro.sim.simulator.simulate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.sim.simulator, "simulate", counting)
    return calls


class TestDedup:
    def test_identical_cells_simulated_once(self, store, monkeypatch):
        calls = _count_simulations(monkeypatch)
        cell = (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)
        results, report = run_plan([cell] * 5, store=store)
        assert len(results) == 5
        assert report.cells == 5
        assert report.unique == 1
        assert report.deduplicated == 4
        assert report.simulated == 1
        assert len(calls) == 1
        assert all(r == results[0] for r in results)

    def test_shared_baseline_across_figures_dedups(self, store):
        """The no-restrict cell every figure shares is run exactly once."""
        workload = get_benchmark("eqntott")
        base = baseline_config()
        fig_a = [(workload, base.with_policy(p), 10, 0.05)
                 for p in (mc(1), no_restrict())]
        fig_b = [(workload, base.with_policy(p), 10, 0.05)
                 for p in (fc(2), no_restrict())]
        _, report = run_plan(fig_a + fig_b, store=store)
        assert report.cells == 4
        assert report.unique == 3
        assert report.deduplicated == 1

    def test_equal_but_distinct_workloads_dedup(self, store, monkeypatch):
        """replace() copies with identical content collapse to one cell."""
        calls = _count_simulations(monkeypatch)
        workload = get_benchmark("ora")
        twin = replace(workload, seed=workload.seed)
        config = baseline_config(mc(1))
        results, report = run_plan(
            [(workload, config, 10, 0.05), (twin, config, 10, 0.05)],
            store=store,
        )
        assert report.unique == 1
        assert len(calls) == 1
        assert results[0] == results[1]

    def test_different_seeds_do_not_dedup(self, store):
        workload = get_benchmark("ora")
        other = replace(workload, seed=workload.seed + 1)
        config = baseline_config(mc(1))
        _, report = run_plan(
            [(workload, config, 10, 0.05), (other, config, 10, 0.05)],
            store=store,
        )
        assert report.unique == 2


class TestMemoization:
    def test_second_run_is_pure_cache_read(self, store, monkeypatch):
        cells = [
            (get_benchmark("ora"), baseline_config(p), 10, 0.05)
            for p in (blocking_cache(), mc(1), no_restrict())
        ]
        first, first_report = run_plan(cells, store=store)
        assert first_report.simulated == 3

        calls = _count_simulations(monkeypatch)
        second, second_report = run_plan(cells, store=store)
        assert second_report.simulated == 0
        assert second_report.store_hits == 3
        assert second_report.hit_rate == 1.0
        assert calls == []
        assert second == first

    def test_nonpositive_workers_rejected_even_when_warm(self, store):
        from repro import api

        cells = [(get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)]
        run_plan(cells, store=store)
        for workers in (0, -3):
            with pytest.raises(ConfigurationError, match=">= 1"):
                run_plan(cells, workers=workers, store=store)
        api.sweep(["ora"], policies=["mc=1"], scale=0.05)
        with pytest.raises(ConfigurationError, match=">= 1"):
            api.sweep(["ora"], policies=["mc=1"], scale=0.05, workers=0)

    def test_disabled_store_still_dedups_but_never_caches(self, tmp_path):
        disabled = ResultStore(tmp_path / "off", enabled=False)
        cell = (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)
        _, r1 = run_plan([cell, cell], store=disabled)
        _, r2 = run_plan([cell], store=disabled)
        assert r1.deduplicated == 1 and r1.simulated == 1
        assert r2.store_hits == 0 and r2.simulated == 1

    def test_corrupt_entry_resimulated_transparently(self, store):
        cell = (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)
        first, _ = run_plan([cell], store=store)
        # Corrupt every stored entry in place.
        with closing(sqlite3.connect(store.path, isolation_level=None)) as c:
            c.execute("UPDATE entries SET payload = 'garbage'")
        second, report = run_plan([cell], store=store)
        assert report.simulated == 1
        assert second == first
        assert store.stats().corrupt == 1
        assert run_plan([cell], store=store)[1].store_hits == 1

    def test_one_malformed_row_among_good_ones(self, store, monkeypatch):
        """The good rows are served; only the bad cell runs again."""
        cells = [(get_benchmark("ora"), baseline_config(p), 10, 0.05)
                 for p in (blocking_cache(), mc(1), no_restrict())]
        first, _ = run_plan(cells, store=store)
        bad = cell_fingerprint(*cells[1])
        with closing(sqlite3.connect(store.path, isolation_level=None)) as c:
            c.execute("UPDATE entries SET payload = 'garbage' "
                      "WHERE fingerprint = ?", (bad,))
        calls = _count_simulations(monkeypatch)
        second, report = run_plan(cells, store=store)
        assert second == first
        assert (report.store_hits, report.simulated) == (2, 1)
        assert [args[1] for args in calls] == [cells[1][1]]
        stats = store.stats()
        assert (stats.entries, stats.corrupt, stats.stores) == (3, 1, 4)

    def test_warm_plan_issues_one_select_per_chunk(self, store,
                                                   monkeypatch):
        cells = [(get_benchmark("ora"), baseline_config(p), 10, 0.05)
                 for p in (blocking_cache(), mc(1), fc(2), fs(1),
                           no_restrict())]
        run_plan(cells + cells, store=store)
        with selects(store) as statements:
            assert run_plan(cells + cells, store=store)[1].store_hits == 5
            assert len(statements) == 1
            monkeypatch.setattr(resultstore, "READ_CHUNK", 2)
            assert run_plan(cells, store=store)[1].store_hits == 5
            assert len(statements) == 1 + 3

    def test_database_deleted_under_live_process(self, store):
        """A wipe or ``cache clear`` elsewhere: miss, then a new file."""
        cell = (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)
        first, _ = run_plan([cell], store=store)
        shutil.rmtree(store.path.parent)
        second, report = run_plan([cell], store=store)
        assert report.simulated == 1
        assert second == first
        assert store.path.exists()
        assert store.stats().entries == 1
        assert run_plan([cell], store=store)[1].store_hits == 1

    def test_unusable_root_counts_a_miss_and_no_store(self, tmp_path):
        """A root under a regular file: nothing written, nothing corrupt."""
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        store = ResultStore(blocker / "store")
        telemetry.set_enabled(True)
        cell = (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)
        _, report = run_plan([cell], store=store)
        assert report.simulated == 1
        counters = telemetry.snapshot()["counters"]
        assert counters.get("store.misses") == 1
        assert "store.stores" not in counters
        assert "store.corrupt" not in counters
        assert not blocker.is_dir()

    def test_two_processes_share_one_store(self, store, tmp_path):
        """Overlapping cold plans from two processes: no lost update."""
        slices = [(0, 6), (3, 9)]
        ctx = multiprocessing.get_context("spawn")
        procs = []
        try:
            for i, (start, stop) in enumerate(slices):
                proc = ctx.Process(target=_plan_into_file, args=(
                    str(store.root), start, stop, str(tmp_path / f"out{i}")))
                proc.start()
                procs.append(proc)
            for proc in procs:
                proc.join(timeout=240)
                assert not proc.is_alive()
                assert proc.exitcode == 0
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
                    proc.join()
        cells = _shared_store_cells()
        lookups = 0
        for i, (start, stop) in enumerate(slices):
            with open(tmp_path / f"out{i}", "rb") as fh:
                results, unique = pickle.load(fh)
            lookups += unique
            assert results == execute_cells(
                cells[start:stop], store=ResultStore(tmp_path / "serial"))
        stats = store.stats()
        assert stats.entries == len(cells)
        assert stats.hits + stats.misses == lookups == 12

    def test_cached_simulate_matches_simulate(self, store):
        workload = get_benchmark("eqntott")
        config = baseline_config(fc(2))
        direct = simulate(workload, config, load_latency=6, scale=0.05)
        cold = cached_simulate(workload, config, load_latency=6, scale=0.05,
                               store=store)
        warm = cached_simulate(workload, config, load_latency=6, scale=0.05,
                               store=store)
        assert cold == direct
        assert warm == direct
        assert store.stats().hits == 1


class TestBitEquality:
    #: One policy per MSHR family: blocking, mc=, fc=, fs=, field
    #: layout, unrestricted.
    POLICY_FAMILIES = (
        blocking_cache(write_allocate=True),
        mc(1),
        fc(2),
        fs(1),
        with_layout(2, 2),
        no_restrict(),
    )

    def test_serial_parallel_cached_all_identical(self, store):
        """The acceptance check: three execution paths, one answer."""
        workload = get_benchmark("tomcatv")
        base = baseline_config()
        cells = [(workload, base.with_policy(p), 10, 0.05)
                 for p in self.POLICY_FAMILIES]

        direct = [simulate(w, c, load_latency=lat, scale=s)
                  for w, c, lat, s in cells]
        pooled = dispatch(cells, workers=2)
        cold = execute_cells(cells, store=store)
        warm = execute_cells(cells, store=store)

        assert pooled == direct
        assert cold == direct
        assert warm == direct

    def test_warm_results_preserve_every_counter(self, store):
        workload = get_benchmark("su2cor")
        config = baseline_config(fs(1))
        cold = execute_cells([(workload, config, 10, 0.05)], store=store)[0]
        warm = execute_cells([(workload, config, 10, 0.05)], store=store)[0]
        assert warm.cycles == cold.cycles
        assert warm.instructions == cold.instructions
        assert warm.truedep_stall_cycles == cold.truedep_stall_cycles
        assert warm.miss == cold.miss
        assert warm.mcpi == cold.mcpi
        warm.verify_accounting()


class TestReportPlumbing:
    def test_last_report_updated(self, store):
        cell = (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)
        _, report = run_plan([cell], store=store)
        assert planner.last_report is report
        assert "1 simulated" in report.describe()

    def test_plan_and_store_metrics(self, store):
        """The plan's and the store's telemetry counters, by name."""
        telemetry.set_enabled(True)
        cell = (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)
        run_plan([cell, cell], store=store)
        run_plan([cell], store=store)
        snap = telemetry.snapshot()
        counters = snap["counters"]
        assert {name: counters[name] for name in (
            "plan.runs", "plan.cells", "plan.unique", "plan.deduplicated",
            "plan.store_hits", "plan.simulated",
            "store.hits", "store.misses", "store.stores",
            "sim.stream_cache.misses", "fusion.streams_built",
        )} == {
            "plan.runs": 2, "plan.cells": 3, "plan.unique": 2,
            "plan.deduplicated": 1, "plan.store_hits": 1,
            "plan.simulated": 1, "store.hits": 1, "store.misses": 1,
            "store.stores": 1, "sim.stream_cache.misses": 1,
            "fusion.streams_built": 1,
        }
        assert "store.corrupt" not in counters
        assert snap["histograms"]["plan.cells_per_run"]["count"] == 2

    def test_cached_simulate_is_a_one_cell_plan(self, store):
        workload = get_benchmark("ora")
        config = baseline_config(mc(1))
        cached_simulate(workload, config, load_latency=10, scale=0.05,
                        store=store)
        assert planner.last_report == planner.PlanReport(
            cells=1, unique=1, store_hits=0, simulated=1)
        cached_simulate(workload, config, load_latency=10, scale=0.05,
                        store=store)
        assert planner.last_report.store_hits == 1
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)

    def test_counters_accumulate_in_store(self, store):
        cell = (get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)
        run_plan([cell], store=store)
        run_plan([cell], store=store)
        stats = store.stats()
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.stores == 1
