"""Sweep dispatch: fan a flat cell list across a process pool.

The paper burned 370 CPU-days on its 3700 simulations; this
reproduction's sweeps are lighter but still embarrassingly parallel:
every (workload, policy, latency, penalty) cell is an independent
deterministic simulation.  This module owns *how* a flat cell list
gets executed.  :func:`dispatch` is the single entry point, and the
worker count is its only control: ``workers<=1`` (or a single cell)
runs serially in-process, with no pool and no serialization; anything
larger fans the cells across a process pool and reassembles the same
structures the serial harness produces.

Cells are dispatched *cache-affinely*: cells of one group
(:func:`repro.sim.resultstore.group_key`: workload content, load
latency, scale) need the same compiled schedule and expanded trace, so
they are shipped to the pool as units, and each worker compiles and
expands its group once through its own caches.

The pool is **persistent**: one lazily created, process-wide
``ProcessPoolExecutor`` is reused across every :func:`dispatch` call
-- all sweeps and all experiment drivers -- so worker compile/trace
caches stay warm between dispatches.  The pool is capped at the number
of dispatchable groups, shuts itself down after
:data:`POOL_IDLE_SECONDS` of disuse, is never reused across a fork,
and can be retired explicitly via :func:`repro.api.shutdown_pool`.  A
dispatch that needs more workers while another holds the shared pool
gets a private pool instead.

Every piece of a cell description (workloads, policies, configs) is a
plain picklable dataclass, and each worker process builds its own
compile/trace caches, so results are bit-identical to serial runs --
the tests assert exact equality.  A cell that raises inside a worker
surfaces as :class:`~repro.errors.CellExecutionError` naming the
(workload, policy, latency, scale) cell, not as an anonymous pool
traceback.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.errors import CellExecutionError, ConfigurationError
from repro.sim import engines
from repro.sim.config import MachineConfig
from repro.sim.resultstore import group_key
from repro.sim.stats import SimulationResult
from repro.workloads.workload import Workload

#: One sweep cell: everything a worker needs.
Cell = Tuple[Workload, MachineConfig, int, float]

#: One pool task: a group's workload, latency and scale plus the
#: configs to run against it, each tagged with its position in the
#: caller's cell list.
_Group = Tuple[Workload, int, float, List[Tuple[int, MachineConfig]]]


def _cell_description(
    workload: Workload, config: MachineConfig, load_latency: int, scale: float
) -> str:
    policy = "perfect" if config.perfect_cache else config.policy.name
    return (f"workload={workload.name!r} policy={policy!r} "
            f"load_latency={load_latency} scale={scale}")


def _run_cell(cell: Cell) -> SimulationResult:
    """Worker entry point: simulate one cell."""
    from repro.sim.simulator import simulate

    workload, config, load_latency, scale = cell
    return simulate(workload, config, load_latency=load_latency, scale=scale)


def _run_group(group: _Group):
    """Worker entry point: simulate one cache-affine group of cells.

    The first ``simulate`` call compiles and expands the group's trace
    (unless a previous dispatch on this persistent worker already
    cached it); the remaining cells hit the worker-local caches because
    workload, latency, and scale are constant within a group.

    Returns ``(pairs, telemetry_delta, started_at)``: the indexed
    results, the worker's metric activity for exactly this group (a
    before/after snapshot diff, so a parallel sweep's merged metrics
    equal the sum of serial runs), and the wall-clock instant the group
    started executing (the parent derives queue wait from it).
    """
    from repro.sim.simulator import simulate

    workload, load_latency, scale, members = group
    telemetry_on = telemetry.enabled()
    before = telemetry.snapshot() if telemetry_on else None
    started_at = time.time()
    busy_start = time.perf_counter()
    pairs = []
    for index, config in members:
        try:
            result = simulate(workload, config, load_latency=load_latency,
                              scale=scale)
        except Exception as exc:
            raise CellExecutionError(
                f"sweep cell failed "
                f"({_cell_description(workload, config, load_latency, scale)})"
                f": {exc!r}"
            ) from exc
        pairs.append((index, result))
    delta = None
    if telemetry_on:
        busy = time.perf_counter() - busy_start
        m = telemetry.metrics()
        m.counter("pool.groups").inc()
        m.counter("pool.worker_busy_seconds").inc(busy)
        m.histogram("pool.group_cells",
                    bounds=telemetry.SIZE_BUCKETS).observe(len(members))
        m.histogram("pool.group_seconds").observe(busy)
        delta = telemetry.snapshot_diff(before, telemetry.snapshot())
    return pairs, delta, started_at


def default_workers() -> int:
    """The pool size: ``REPRO_WORKERS`` if set, else half the CPUs.

    The environment override lets batch scripts and CI pin the worker
    count without plumbing a flag through every entry point.
    """
    override = os.environ.get("REPRO_WORKERS")
    if override is not None:
        try:
            workers = int(override)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer: {override!r}"
            ) from None
        if workers < 1:
            raise ConfigurationError(
                f"REPRO_WORKERS must be >= 1: {workers}"
            )
        return workers
    return max(1, (os.cpu_count() or 2) // 2)


def _checked_workers(workers: Optional[int]) -> int:
    """``workers``, or :func:`default_workers` for ``None``; below 1 raises.

    Sweep entry points call this before they read the result store or
    screen a cell, so a bad count is refused even when no cell would
    reach :func:`dispatch`.
    """
    if workers is None:
        return default_workers()
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1: {workers}")
    return workers


# -- the persistent pool -------------------------------------------------------


#: Seconds the persistent pool may sit unused before it retires itself.
POOL_IDLE_SECONDS = 120.0


class _PoolState:
    """The process-wide pool plus its bookkeeping, guarded by one lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.pool: Optional[ProcessPoolExecutor] = None
        self.workers = 0
        self.pid: Optional[int] = None
        self.leases = 0
        self.last_used = 0.0
        self.idle_timer: Optional[threading.Timer] = None
        self.created = 0
        self.reused = 0
        self.shutdowns = 0


_STATE = _PoolState()


def _lease_pool(workers: int) -> Tuple[ProcessPoolExecutor, bool]:
    """A pool with at least ``workers`` workers; ``(pool, caller_owns)``.

    Hands out the process-wide pool (created or resized if the live one
    is too small, discarded if it belongs to a pre-fork parent), or a
    fresh private pool when the shared one is too small and leased by
    another dispatch.  Either way the caller passes it to
    :func:`_return_pool`, which shuts a private pool down.
    """
    state = _STATE
    with state.lock:
        if state.pid is not None and state.pid != os.getpid():
            # Forked child: the inherited executor's plumbing belongs
            # to the parent.  Abandon it without touching its queues.
            state.pool = None
            state.pid = None
            state.workers = 0
            state.leases = 0
            state.idle_timer = None
        pool = state.pool
        broken = pool is not None and getattr(pool, "_broken", False)
        if pool is not None and state.workers < workers and state.leases > 0:
            # Another dispatch is mid-flight on the shared pool; give
            # this caller a private, right-sized pool instead of
            # yanking the shared one out from under its sibling.
            return ProcessPoolExecutor(max_workers=workers), True
        if pool is None or broken or state.workers < workers:
            if pool is not None:
                pool.shutdown(wait=not broken, cancel_futures=True)
                state.shutdowns += 1
            pool = ProcessPoolExecutor(max_workers=workers)
            state.pool = pool
            state.workers = workers
            state.pid = os.getpid()
            state.created += 1
            if telemetry.enabled():
                telemetry.counter("pool.created").inc()
        else:
            state.reused += 1
            if telemetry.enabled():
                telemetry.counter("pool.reused").inc()
        state.leases += 1
        state.last_used = time.monotonic()
        if state.idle_timer is not None:
            state.idle_timer.cancel()
            state.idle_timer = None
        return pool, False


def _return_pool(pool: ProcessPoolExecutor, owned: bool,
                 broken: bool = False) -> None:
    """End a lease: private pools die, the shared one arms its idle timer."""
    if owned:
        pool.shutdown(wait=True, cancel_futures=True)
        return
    state = _STATE
    with state.lock:
        if state.pool is not pool:
            return
        state.leases = max(0, state.leases - 1)
        state.last_used = time.monotonic()
        if broken:
            state.pool = None
            state.workers = 0
            state.leases = 0
            state.shutdowns += 1
            pool.shutdown(wait=False, cancel_futures=True)
            return
        if state.leases == 0:
            _arm_idle_timer_locked(state)


def _arm_idle_timer_locked(state: _PoolState) -> None:
    timer = threading.Timer(POOL_IDLE_SECONDS, _idle_shutdown)
    timer.daemon = True
    state.idle_timer = timer
    timer.start()


def _idle_shutdown() -> None:
    state = _STATE
    with state.lock:
        if (state.pool is None or state.leases > 0
                or state.pid != os.getpid()):
            return
        if time.monotonic() - state.last_used < POOL_IDLE_SECONDS * 0.5:
            _arm_idle_timer_locked(state)
            return
        pool = state.pool
        state.pool = None
        state.workers = 0
        state.idle_timer = None
        state.shutdowns += 1
    pool.shutdown(wait=True, cancel_futures=True)
    if telemetry.enabled():
        telemetry.counter("pool.idle_shutdowns").inc()


def shutdown_pool() -> bool:
    """Retire the persistent process pool now; True if one was running.

    Safe to call at any time -- a later sweep transparently creates a
    fresh pool.
    """
    state = _STATE
    with state.lock:
        if state.idle_timer is not None:
            state.idle_timer.cancel()
            state.idle_timer = None
        pool = state.pool
        if pool is None or state.pid != os.getpid():
            state.pool = None
            state.workers = 0
            state.leases = 0
            return False
        state.pool = None
        state.workers = 0
        state.leases = 0
        state.shutdowns += 1
    pool.shutdown(wait=True, cancel_futures=True)
    return True


def pool_stats() -> Dict[str, object]:
    """Lifetime process-pool bookkeeping for this process (advisory).

    Keys: ``active``, ``workers``, ``created``, ``reused`` and
    ``shutdowns``.
    """
    state = _STATE
    with state.lock:
        return {
            "active": state.pool is not None and state.pid == os.getpid(),
            "workers": state.workers,
            "created": state.created,
            "reused": state.reused,
            "shutdowns": state.shutdowns,
        }


def _atexit_shutdown() -> None:
    state = _STATE
    if state.pid == os.getpid():
        shutdown_pool()


atexit.register(_atexit_shutdown)


# -- dispatch ------------------------------------------------------------------


def _stream_affinity(config: MachineConfig) -> Tuple:
    """Sort key clustering policy siblings of one event stream.

    Within a (workload, latency, scale) bucket, cells that share a
    line size replay over the same event stream, and cells that also
    share the full geometry and store policy share a functional
    summary.  Ordering members this way before chunking keeps stream
    siblings in the same pool group (and adjacent in serial runs), so
    the small stream/summary LRU caches stay hot across them.

    Whether the cell itself runs in C (:data:`repro.sim.engines.C_LANES`)
    leads the key so replay and dual-issue cells cluster apart from
    closed-form ones: a closed-form cell needs only the functional
    summary it shares with every sibling of its geometry and store
    policy, while a C cell binds its own kernel call (and, for limited
    field layouts, the stream's address columns).  Interleaving them
    would spread each kind's shared work across groups.
    """
    geometry = config.geometry
    return (
        engines.cell_lane(config) in engines.C_LANES,
        config.perfect_cache,
        geometry.line_size,
        geometry.size,
        geometry.associativity,
        config.policy.blocking,
        config.policy.write_allocate_blocking,
    )


def _group_cells(cells: Sequence[Cell], max_group: int) -> List[_Group]:
    """Bucket cells by :func:`~repro.sim.resultstore.group_key`, keeping tags.

    Workload identity is by *content*, not by object: equal-but-distinct
    ``Workload`` instances land in the same bucket and share one trace
    expansion, while workloads that differ in any field expansion reads
    (patterns, seed, ...) never do.
    Members are ordered stream-affinely (:func:`_stream_affinity`)
    before chunking, and groups are capped at ``max_group`` members so
    one giant bucket cannot serialize the whole pool behind a single
    worker.
    """
    buckets: Dict[Tuple, List[Tuple[int, MachineConfig]]] = {}
    keys: Dict[Tuple, Tuple[Workload, int, float]] = {}
    for index, (workload, config, load_latency, scale) in enumerate(cells):
        key = group_key(workload, load_latency, scale)
        buckets.setdefault(key, []).append((index, config))
        keys.setdefault(key, (workload, load_latency, scale))
    groups: List[_Group] = []
    for key, members in buckets.items():
        workload, load_latency, scale = keys[key]
        members.sort(key=lambda item: _stream_affinity(item[1]) + (item[0],))
        for start in range(0, len(members), max_group):
            groups.append(
                (workload, load_latency, scale,
                 members[start:start + max_group])
            )
    return groups


def _prebuild_kernels(cells: Sequence[Cell]) -> None:
    """Compile the C kernel up front when any cell will use it.

    Replay and dual-issue cells run in the kernel, and closed-form
    cells classify their stream in it
    (:func:`repro.sim.stream.functional_summary`); only interp cells
    never touch it.  Workers inherit the on-disk kernel cache, so
    building in the parent turns each worker's first use into a plain
    ``dlopen`` of the cached ``.so`` instead of a racing compile.
    Does nothing when every cell is an interp cell, and leaves no
    compiler or a failed build to the per-cell and per-summary
    fallbacks.
    """
    from repro.cpu import ckernel

    if any(engines.cell_lane(config) != "interp"
           for _workload, config, _latency, _scale in cells):
        ckernel.kernel_or_cause()


def dispatch(
    cells: Sequence[Cell],
    *,
    workers: Optional[int] = None,
) -> List[SimulationResult]:
    """Execute sweep cells and return their results in the caller's order.

    The one entry point every sweep path funnels through.  ``workers``
    defaults to :func:`default_workers`.  With ``workers<=1`` (or a
    single cell) everything runs in-process, which keeps tests and
    small sweeps free of pool overhead; otherwise the cells go through
    the cache-affine process pool, which never exceeds the number of
    dispatchable groups.  Results are bit-identical either way.
    """
    cells = list(cells)
    if telemetry.enabled():
        m = telemetry.metrics()
        m.counter("dispatch.calls").inc()
        m.counter("dispatch.cells").inc(len(cells))
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(cells) <= 1:
        return [_run_cell(cell) for cell in cells]
    # Cap group size so every worker gets a few tasks to balance, but
    # never below a handful of cells or the affinity win evaporates.
    max_group = max(4, -(-len(cells) // (workers * 4)))
    groups = _group_cells(cells, max_group)
    # A pool larger than the group count would spawn workers that can
    # never receive a task; with one group the pool cannot help at all.
    workers = min(workers, len(groups))
    if workers <= 1:
        return [_run_cell(cell) for cell in cells]

    _prebuild_kernels(cells)
    results: List[Optional[SimulationResult]] = [None] * len(cells)
    telemetry_on = telemetry.enabled()
    busy_total = 0.0
    dispatch_start = time.perf_counter()
    pool, owned = _lease_pool(workers)
    broken = False
    submitted_at = {}
    futures = []
    try:
        for group in groups:
            future = pool.submit(_run_group, group)
            submitted_at[future] = time.time()
            futures.append(future)
        for future in as_completed(futures):
            pairs, delta, started_at = future.result()
            for index, result in pairs:
                results[index] = result
            if telemetry_on and delta is not None:
                telemetry.merge(delta)
                busy_total += delta.get("counters", {}).get(
                    "pool.worker_busy_seconds", 0.0)
                telemetry.histogram("pool.queue_wait_seconds").observe(
                    max(0.0, started_at - submitted_at[future]))
    except BaseException as exc:
        broken = isinstance(exc, BrokenProcessPool)
        for future in futures:
            future.cancel()
        raise
    finally:
        _return_pool(pool, owned, broken=broken)
    if telemetry_on:
        elapsed = time.perf_counter() - dispatch_start
        m = telemetry.metrics()
        m.counter("pool.dispatches").inc()
        m.gauge("pool.workers").set(workers)
        if elapsed > 0:
            m.gauge("pool.last_utilization").set(
                busy_total / (workers * elapsed))
    return results  # type: ignore[return-value]
