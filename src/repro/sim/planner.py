"""The unified sweep planner: dedup, memoize, then dispatch.

Every sweep and every experiment in the repository -- the curve
figures, the Figure 13 table, the penalty sweeps, every other
experiment driver, seed replication, the CLI's benchmark x policy
grid, and the one-cell :func:`cached_simulate` behind
:func:`repro.api.simulate` -- lowers to one flat list of cells
``(workload, config, load_latency, scale)``.
This module is the single execution funnel for such lists:

1. **fingerprint** every cell with
   :func:`repro.sim.resultstore.cell_fingerprint`;
2. **deduplicate** identical cells (the unrestricted baseline appears
   in nearly every figure, so a multi-figure run collapses
   substantially) -- each distinct cell is simulated at most once per
   planner call;
3. **partition** the unique cells into store hits and misses against
   the content-addressed :class:`~repro.sim.resultstore.ResultStore`,
   reading every row of the plan at once
   (:meth:`~repro.sim.resultstore.ResultStore.load_many`);
4. **dispatch** only the misses through
   :func:`repro.sim.parallel.dispatch` -- in-process for one worker,
   otherwise across the cache-affine process pool, which lives on
   between planner runs so consecutive runs keep worker caches warm
   -- and persist their results together with the plan's
   counter update, in one store transaction, and
5. **reassemble** the full result list in the caller's cell order.

A re-run of an already-simulated sweep is therefore one batched store
read and one write transaction (its counter update), and a first run
simulates each distinct cell exactly once no matter how many figures
share it.  Results are bit-identical to calling
:func:`repro.sim.simulator.simulate` per cell -- the tests assert
exact equality across serial, parallel, and cached executions.

The analytical screening tier (:mod:`repro.analysis.screen`) sits in
front of this funnel as a *multi-fidelity* stage: it brackets every
cell from the stream pass alone and feeds only the cells that still
matter -- unboundable fallbacks and frontier-band survivors -- into
:func:`execute_cells`, so a screened design-space sweep pays the
planner for tens of cells instead of thousands while the results that
do land here are memoized and dispatched exactly as before.  Only
genuinely simulated results enter the store; interval estimates never
do.

Figure 4 tabulates compiled bodies rather than simulations.
:func:`compile_facts` serves those from the same store: one row per
body, compiled only when the row is missing, so a warm pass of every
experiment compiles nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.compiler.pipeline import CompileFacts
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.parallel import (
    Cell,
    _checked_workers,
    _stream_affinity,
    dispatch,
)
from repro.sim.resultstore import (
    ResultStore,
    cell_fingerprint,
    compile_fingerprint,
    group_key,
)
from repro.sim.stats import SimulationResult
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class PlanReport:
    """What one planner execution did."""

    #: Cells requested by the caller.
    cells: int
    #: Distinct cells after dedup.
    unique: int
    #: Unique cells served from the result store.
    store_hits: int
    #: Unique cells actually simulated (and then persisted).
    simulated: int

    @property
    def deduplicated(self) -> int:
        """Requested cells that were duplicates of another cell."""
        return self.cells - self.unique

    @property
    def hit_rate(self) -> float:
        """Fraction of unique cells served from the store."""
        if not self.unique:
            return 0.0
        return self.store_hits / self.unique

    def describe(self) -> str:
        return (
            f"{self.cells} cells -> {self.unique} unique "
            f"({self.deduplicated} deduplicated), "
            f"{self.store_hits} cached, {self.simulated} simulated"
        )


#: The report of the most recent :func:`run_plan` in this process; the
#: CLI prints it after a sweep.  Purely advisory.
last_report: Optional[PlanReport] = None

#: The ``plan.*`` metrics, looked up once per registry generation.
_METRICS = telemetry.MetricHandles(lambda m: SimpleNamespace(
    runs=m.counter("plan.runs"),
    cells=m.counter("plan.cells"),
    unique=m.counter("plan.unique"),
    deduplicated=m.counter("plan.deduplicated"),
    store_hits=m.counter("plan.store_hits"),
    simulated=m.counter("plan.simulated"),
    cells_per_run=m.histogram("plan.cells_per_run",
                              bounds=telemetry.SIZE_BUCKETS),
))


def run_plan(
    cells: Sequence[Cell],
    workers: Optional[int] = 1,
    store: Optional[ResultStore] = None,
) -> Tuple[List[SimulationResult], PlanReport]:
    """Execute a cell list through dedup + store + dispatch; keep order.

    ``workers=1`` (the default) runs misses in-process, which keeps the
    serial sweep entry points bit-identical and pool-free;
    ``workers=None`` selects :func:`repro.sim.parallel.default_workers`.
    A count below 1 (or a bad ``REPRO_WORKERS``) raises
    :class:`~repro.errors.ConfigurationError` before the store is read.  ``store=None`` selects the environment's store
    (:meth:`ResultStore.from_env`); pass an explicit store to isolate
    (benchmarks, tests).
    """
    global last_report
    workers = _checked_workers(workers)
    if store is None:
        store = ResultStore.from_env()

    with telemetry.span("plan", cells=len(cells)) as span_args:
        results, report = _run_plan_impl(cells, workers, store)
        span_args.update(unique=report.unique,
                         store_hits=report.store_hits,
                         simulated=report.simulated)
    if telemetry.enabled():
        m = _METRICS.get()
        m.runs.inc()
        m.cells.inc(report.cells)
        m.unique.inc(report.unique)
        m.deduplicated.inc(report.deduplicated)
        m.store_hits.inc(report.store_hits)
        m.simulated.inc(report.simulated)
        m.cells_per_run.observe(report.cells)
    last_report = report
    return results, report


def _dispatch_key(cell: Cell) -> Tuple:
    """Stream-key ordering for dispatch: group, then stream siblings."""
    workload, config, load_latency, scale = cell
    return group_key(workload, load_latency, scale) + _stream_affinity(config)


def _run_plan_impl(
    cells: Sequence[Cell],
    workers: Optional[int],
    store: ResultStore,
) -> Tuple[List[SimulationResult], PlanReport]:
    fingerprints = [
        cell_fingerprint(workload, config, load_latency, scale)
        for workload, config, load_latency, scale in cells
    ]
    unique_order: List[str] = []
    unique_cells: Dict[str, Cell] = {}
    for fingerprint, cell in zip(fingerprints, cells):
        if fingerprint not in unique_cells:
            unique_cells[fingerprint] = cell
            unique_order.append(fingerprint)

    resolved = store.load_many(unique_order)
    missing = [fingerprint for fingerprint in unique_order
               if fingerprint not in resolved]
    simulated: List[SimulationResult] = []

    if missing:
        # Dispatch in stream-key order: cells sharing a (workload,
        # latency, scale, line size) replay over one event stream, so
        # adjacency keeps the stream/summary caches hot -- in-process
        # for serial runs, per pool group for parallel ones (the
        # grouper re-sorts within its buckets either way).  Results
        # are reassembled by fingerprint, so order is free to change.
        missing.sort(key=lambda fingerprint: _dispatch_key(
            unique_cells[fingerprint]))
        simulated = dispatch(
            [unique_cells[fingerprint] for fingerprint in missing],
            workers=workers,
        )
        resolved.update(zip(missing, simulated))

    # The plan's new rows and its counter update commit together.
    with store.transaction():
        stored = sum(store.store(fingerprint, result)
                     for fingerprint, result in zip(missing, simulated))
        store.add_counters(
            hits=len(unique_order) - len(missing),
            misses=len(missing),
            stores=stored,
        )
    report = PlanReport(
        cells=len(cells),
        unique=len(unique_order),
        store_hits=len(unique_order) - len(missing),
        simulated=len(missing),
    )
    return [resolved[fingerprint] for fingerprint in fingerprints], report


def execute_cells(
    cells: Sequence[Cell],
    workers: Optional[int] = 1,
    store: Optional[ResultStore] = None,
) -> List[SimulationResult]:
    """:func:`run_plan` returning just the results (sweep harness API)."""
    results, _ = run_plan(cells, workers=workers, store=store)
    return results


def cached_simulate(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    load_latency: int = 10,
    scale: float = 1.0,
    store: Optional[ResultStore] = None,
) -> SimulationResult:
    """A drop-in memoized :func:`repro.sim.simulator.simulate`.

    A one-cell plan: same signature for the common arguments, same
    bit-identical result, served from and written to the store like
    any other plan.
    """
    if config is None:
        config = baseline_config()
    return execute_cells([(workload, config, load_latency, scale)],
                         store=store)[0]


def compile_facts(
    pairs: Sequence[Tuple[Workload, int]],
    store: Optional[ResultStore] = None,
) -> List[CompileFacts]:
    """The compile facts of ``(workload, load_latency)`` pairs, in order.

    Reads every pair's row in one batched read, compiles only the
    bodies whose row is missing (through
    :func:`repro.sim.simulator.compile_workload` and its cache) and
    writes their rows in one transaction, so a warm call compiles and
    writes nothing.  Facts lookups count neither as store
    hits nor as misses, which stay per planned cell; rows written count
    as ``stores`` and malformed rows as ``corrupt``.  A disabled or
    unusable store compiles every body.
    """
    from repro.sim.simulator import compile_workload

    if store is None:
        store = ResultStore.from_env()
    fingerprints = [compile_fingerprint(workload, load_latency)
                    for workload, load_latency in pairs]
    facts = store.load_facts_many(fingerprints)
    missing: Dict[str, CompileFacts] = {}
    for fingerprint, (workload, load_latency) in zip(fingerprints, pairs):
        if fingerprint not in facts:
            facts[fingerprint] = missing[fingerprint] = compile_workload(
                workload, load_latency).facts()
    if missing:
        with store.transaction():
            stored = sum(store.store_facts(fingerprint, found)
                         for fingerprint, found in missing.items())
            store.add_counters(stores=stored)
    return [facts[fingerprint] for fingerprint in fingerprints]
