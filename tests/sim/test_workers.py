"""The worker count is the only dispatch control.

A sweep decides where its cells run from ``workers`` alone: one worker
(or one cell) runs in-process, more fan the cells across the process
pool.  These tests pin that contract at every public entry point:

* a count below 1 is refused with :class:`ConfigurationError`, even
  when the result store already holds every cell or the screen
  resolves every cell analytically, so no simulation would notice;
* a count above 1 really leases the pool and returns the serial
  results exactly.  The result store is switched off for these, or
  the second run would be served from it and never reach the pool;
* the cells the pool pickles to its workers arrive as the same cells,
  with the same result-store fingerprint.
"""

from __future__ import annotations

import inspect
import pickle
from dataclasses import dataclass, replace

import pytest

from repro import api
from repro.analysis.designspace import evaluate_designs
from repro.analysis.screen import run_band, run_screen_table
from repro.cache.geometry import CacheGeometry
from repro.compiler.ir import KernelBuilder
from repro.core.policies import (
    blocking_cache,
    fc,
    fs,
    in_cache,
    inverted,
    mc,
    no_restrict,
    with_layout,
)
from repro.errors import CellExecutionError, ConfigurationError
from repro.experiments import get_experiment
from repro.sim.config import baseline_config
from repro.sim.parallel import dispatch, pool_stats, shutdown_pool
from repro.sim.planner import execute_cells, run_plan
from repro.sim.resultstore import ResultStore, cell_fingerprint
from repro.sim.simulator import simulate
from repro.sim.sweep import run_curves, run_penalty_sweep, run_table
from repro.workloads.spec92 import get_benchmark
from repro.workloads.workload import Workload

#: One representative per policy family (the paper's spectrum).
POLICY_FAMILIES = [
    blocking_cache(),
    blocking_cache(write_allocate=True),
    mc(1),
    mc(4),
    fc(2),
    fs(2),
    no_restrict(),
    inverted(70),
    in_cache(),
    with_layout(2, 2),
    with_layout(4, 1),
]

#: Non-blocking machines with one fill port.  The screen cannot bound
#: them (``fill_ports`` fallback), so every fidelity simulates them,
#: all in one batch -- the batch that reaches the pool.
ONE_PORT = [
    replace(mc(1), name="mc=1/1 port", fill_ports=1),
    replace(mc(2), name="mc=2/1 port", fill_ports=1),
    replace(fc(2), name="fc=2/1 port", fill_ports=1),
    replace(mc(4), name="mc=4/1 port", fill_ports=1),
    replace(no_restrict(), name="no restrict/1 port", fill_ports=1),
]


@dataclass(frozen=True)
class PoisonPattern:
    """An address pattern whose generation always fails."""

    def generate(self, n, rng):
        raise RuntimeError("poisoned address stream")


def make_poison_workload() -> Workload:
    builder = KernelBuilder("poison")
    stream = builder.declare_stream()
    builder.load(stream)
    return Workload(name="poison", kernel=builder.build(),
                    patterns={stream: PoisonPattern()}, iterations=64)


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    """Each test leases its own persistent pool and retires it."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    shutdown_pool()
    yield
    shutdown_pool()


def _leases() -> int:
    """Dispatches that have leased the persistent pool so far."""
    stats = pool_stats()
    return stats["created"] + stats["reused"]


def _ora_cells():
    return [(get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05)]


def _two_workload_cells(policies=(mc(1), no_restrict())):
    """Cells in two (workload, latency, scale) groups: enough for a pool."""
    return [
        (get_benchmark(name), baseline_config(policy), 10, 0.05)
        for name in ("ora", "eqntott")
        for policy in policies
    ]


def _one_port_band():
    return [
        (get_benchmark(name), baseline_config(policy), 10, 0.05)
        for name in ("ora", "compress")
        for policy in ONE_PORT[:2]
    ]


#: Every public entry point that takes ``workers``, as a call on the
#: worker count.  Once warmed with ``workers=1``, each resolves its
#: cells from the store or from the screen's closed forms, so only the
#: entry check can refuse a bad count.
ENTRY_POINTS = {
    "run_plan": lambda workers: run_plan(_ora_cells(), workers=workers),
    "execute_cells": lambda workers: execute_cells(
        _ora_cells(), workers=workers),
    "run_table": lambda workers: run_table(
        [get_benchmark("ora")], [mc(1)], scale=0.05, workers=workers),
    "run_curves": lambda workers: run_curves(
        get_benchmark("ora"), [mc(1)], latencies=(10,), scale=0.05,
        workers=workers),
    "run_penalty_sweep": lambda workers: run_penalty_sweep(
        get_benchmark("ora"), [mc(1)], penalties=(16,), load_latency=10,
        scale=0.05, workers=workers),
    "run_band": lambda workers: run_band(
        [(get_benchmark("ora"), baseline_config(blocking_cache()), 10,
          0.05)], [0], fidelity="auto", workers=workers),
    "run_screen_table": lambda workers: run_screen_table(
        [get_benchmark("ora")], [blocking_cache()], scale=0.05,
        fidelity="screen", workers=workers),
    "evaluate_designs": lambda workers: evaluate_designs(
        get_benchmark("ora"), scale=0.05,
        catalogue=[("lockup", blocking_cache(), 0)], workers=workers),
    "api.sweep": lambda workers: api.sweep(
        ["ora"], policies=["mc=1"], scale=0.05, workers=workers),
    "api.sweep-screen": lambda workers: api.sweep(
        ["ora"], policies=["mc=0"], scale=0.05, fidelity="screen",
        workers=workers),
}

#: The functions behind :data:`ENTRY_POINTS`.
ENTRY_FUNCTIONS = {
    "run_plan": run_plan,
    "execute_cells": execute_cells,
    "run_table": run_table,
    "run_curves": run_curves,
    "run_penalty_sweep": run_penalty_sweep,
    "run_band": run_band,
    "run_screen_table": run_screen_table,
    "evaluate_designs": evaluate_designs,
    "api.sweep": api.sweep,
}


class TestEntryPoints:
    @pytest.mark.parametrize("workers", [0, -2])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_nonpositive_workers_rejected_when_nothing_simulates(
            self, entry, workers):
        call = ENTRY_POINTS[entry]
        call(1)  # warm: the store or the screen now resolves every cell
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            call(workers)

    @pytest.mark.parametrize("value,message", [
        ("0", ">= 1"),
        ("many", "must be an integer"),
    ])
    def test_bad_repro_workers_rejected_for_a_warm_default_sweep(
            self, monkeypatch, value, message):
        call = ENTRY_POINTS["api.sweep"]
        call(1)
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ConfigurationError, match=message):
            call(None)

    @pytest.mark.parametrize("entry", sorted(ENTRY_FUNCTIONS))
    def test_serial_by_default_with_no_other_dispatch_control(self, entry):
        parameters = inspect.signature(ENTRY_FUNCTIONS[entry]).parameters
        assert parameters["workers"].default == 1
        assert "backend" not in parameters


class TestPoolReached:
    """``workers=2`` leases the pool and matches ``workers=1`` exactly."""

    @pytest.fixture(autouse=True)
    def _simulate_every_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")

    @staticmethod
    def _serial_and_pooled(call):
        serial = call(1)
        before = _leases()
        pooled = call(2)
        assert _leases() > before, "workers=2 never reached the pool"
        return serial, pooled

    def test_execute_cells(self):
        cells = _two_workload_cells()
        serial, pooled = self._serial_and_pooled(
            lambda workers: execute_cells(cells, workers=workers))
        assert pooled == serial

    def test_run_band_exact(self):
        cells = _two_workload_cells((mc(1), mc(2), fc(2), no_restrict()))
        bits = list(range(len(cells)))
        serial, pooled = self._serial_and_pooled(
            lambda workers: [e.result for e in run_band(
                cells, bits, fidelity="exact", workers=workers)[0]])
        assert pooled == serial

    def test_run_band_auto_fallback_cells(self):
        cells = _one_port_band()
        bits = [1, 2] * 2
        serial, pooled = self._serial_and_pooled(
            lambda workers: [(e.result, e.pruned) for e in run_band(
                cells, bits, fidelity="auto", workers=workers)[0]])
        assert pooled == serial

    @pytest.mark.parametrize("fidelity", ["screen", "auto"])
    def test_run_screen_table(self, fidelity):
        workloads = [get_benchmark("ora"), get_benchmark("compress")]
        serial, pooled = self._serial_and_pooled(
            lambda workers: run_screen_table(
                workloads, ONE_PORT[:2], scale=0.05, fidelity=fidelity,
                workers=workers).rows)
        assert pooled == serial

    def test_evaluate_designs(self):
        catalogue = [(policy.name, policy, 100 * (i + 1))
                     for i, policy in enumerate(ONE_PORT)]
        serial, pooled = self._serial_and_pooled(
            lambda workers: evaluate_designs(
                get_benchmark("ora"), scale=0.05, catalogue=catalogue,
                workers=workers))
        assert pooled == serial

    def test_api_sweep(self):
        serial, pooled = self._serial_and_pooled(
            lambda workers: api.sweep(
                ["ora", "compress"], policies=["mc=1", "no restrict"],
                scale=0.05, workers=workers).rows)
        assert pooled == serial

    def test_api_sweep_screened(self):
        serial, pooled = self._serial_and_pooled(
            lambda workers: api.sweep(
                ["ora", "compress"], policies=ONE_PORT[:2], scale=0.05,
                fidelity="screen", workers=workers).rows)
        assert pooled == serial

    def test_experiment_run(self):
        experiment = get_experiment("fig5")
        serial, pooled = self._serial_and_pooled(
            lambda workers: experiment.run(scale=0.05,
                                           workers=workers).rows)
        assert pooled == serial

    def test_repro_workers_sizes_a_default_sweep(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        cells = _two_workload_cells()
        serial = execute_cells(cells, workers=1)
        before = _leases()
        assert execute_cells(cells, workers=None) == serial
        assert _leases() > before

    def test_pool_results_backfill_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cells = _two_workload_cells()
        pooled, cold = run_plan(cells, workers=2, store=store)
        assert cold.simulated == len(cells)
        warm_results, warm = run_plan(cells, workers=1, store=store)
        assert (warm.store_hits, warm.simulated) == (len(cells), 0)
        assert warm_results == pooled

    def test_failed_pool_dispatch_stores_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        good = _two_workload_cells()
        poison = (make_poison_workload(), baseline_config(mc(2)), 10, 1.0)
        with pytest.raises(CellExecutionError, match="workload='poison'"):
            run_plan(good + [poison], workers=2, store=store)
        _, report = run_plan(good, workers=1, store=store)
        assert report.store_hits == 0


class TestDispatch:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_any_pool_size_matches_serial(self, workers):
        cells = [
            (get_benchmark(name), baseline_config(policy), 10, 0.05)
            for name in ("ora", "eqntott", "compress")
            for policy in (mc(1), fc(2), no_restrict())
        ]
        serial = dispatch(cells, workers=1)
        assert dispatch(cells, workers=workers) == serial
        assert pool_stats()["workers"] == min(workers, 3)  # 3 groups

    def test_duplicate_cells_keep_their_positions(self):
        a, b, c, d = _two_workload_cells((mc(1), no_restrict()))
        cells = [a, c, a, d, b, c, a]
        before = _leases()
        results = dispatch(cells, workers=2)
        assert _leases() == before + 1
        assert results == dispatch(cells, workers=1)
        assert results[0] == results[2] == results[6]
        assert results[1] == results[5]

    def test_interleaved_workloads_come_back_in_order(self):
        names = ["ora", "eqntott", "ora", "compress", "eqntott", "ora"]
        cells = [(get_benchmark(name), baseline_config(mc(1)), 10, 0.05)
                 for name in names]
        before = _leases()
        results = dispatch(cells, workers=2)
        assert _leases() == before + 1
        assert [r.workload for r in results] == names

    def test_pool_strategy_never_changes_results(self):
        cells = _two_workload_cells()
        serial = dispatch(cells, workers=1)
        assert dispatch(cells, workers=2) == serial
        assert pool_stats()["active"]

    def test_worker_failure_names_the_cell_and_keeps_the_pool(self):
        good = get_benchmark("ora")
        cells = [
            (good, baseline_config(mc(1)), 10, 0.05),
            (good, baseline_config(no_restrict()), 10, 0.05),
            (make_poison_workload(), baseline_config(mc(2)), 10, 1.0),
            (make_poison_workload(), baseline_config(mc(4)), 10, 1.0),
        ]
        with pytest.raises(CellExecutionError) as err:
            dispatch(cells, workers=2)
        message = str(err.value)
        assert "workload='poison'" in message
        assert "load_latency=10" in message
        assert "poisoned address stream" in message
        created = pool_stats()["created"]
        healthy = _two_workload_cells()
        assert dispatch(healthy, workers=2) == dispatch(healthy, workers=1)
        assert pool_stats()["created"] == created  # the same pool served it

    def test_single_cell_never_leases_the_pool(self):
        before = _leases()
        results = dispatch(_ora_cells(), workers=4)
        assert [r.workload for r in results] == ["ora"]
        assert _leases() == before

    def test_a_retired_pool_is_replaced_on_demand(self):
        cells = _two_workload_cells()
        dispatch(cells, workers=2)
        created = pool_stats()["created"]
        assert api.shutdown_pool() is True
        assert api.shutdown_pool() is False
        dispatch(cells, workers=2)
        assert pool_stats()["created"] == created + 1
        assert api.pool_stats() == pool_stats()


class TestCellsCrossTheProcessBoundary:
    """Pool workers receive cells by pickle; they must arrive unchanged."""

    @pytest.mark.parametrize("policy", POLICY_FAMILIES,
                             ids=[p.name for p in POLICY_FAMILIES])
    def test_pickled_cell_keeps_its_fingerprint(self, policy):
        geometry = CacheGeometry(size=16 * 1024, line_size=32,
                                 associativity=2)
        cell = (get_benchmark("compress"),
                replace(baseline_config(policy), geometry=geometry), 10, 0.05)
        copy = pickle.loads(pickle.dumps(cell))
        assert copy == cell
        assert cell_fingerprint(*copy) == cell_fingerprint(*cell)

    def test_every_policy_family_matches_serial_through_the_pool(self):
        cells = [
            (get_benchmark(name), baseline_config(policy), 10, 0.05)
            for name in ("ora", "compress")
            for policy in POLICY_FAMILIES
        ]
        serial = [simulate(w, c, load_latency=lat, scale=s)
                  for w, c, lat, s in cells]
        before = _leases()
        assert dispatch(cells, workers=2) == serial
        assert _leases() == before + 1


class TestSimulateSelectors:
    @pytest.mark.parametrize("keyword", ["fast_path", "fusion", "engine"])
    def test_simulate_has_no_per_call_selector(self, keyword):
        assert keyword not in inspect.signature(simulate).parameters
        with pytest.raises(TypeError, match=keyword):
            simulate(get_benchmark("ora"), baseline_config(mc(1)),
                     scale=0.05, **{keyword: False})
