"""Interval-bounded MCPI estimates from the stream pass: no replay.

The screening tier (:mod:`repro.analysis.screen`) ranks design-space
cells without simulating them.  This module computes, per cell, a
``[lower, upper]`` bracket on the run's end cycle -- and therefore on
MCPI -- directly from the stream pass's
:class:`~repro.sim.stream.FunctionalSummary` and the static dependency
terms of the :class:`~repro.sim.stream.EventStream`:

* **exact closed forms** where the machine model permits: the blocking
  (``mc=0`` family) policies are the immediate-install machine whose
  end cycle is :func:`repro.core.handler.blocking_end_cycle`; a
  perfect cache and a body with no memory ops both pin the run at
  ``cycles == instructions``;
* **upper bound** for every non-blocking policy: the blocking closed
  form over the same functional summary.  A blocking cache takes the
  paper's worst-case stall for every miss and overlaps nothing, which
  is the paper's monotonicity observation (Figures 5/13/18: the
  ``mc=0`` curve dominates every non-blocking curve).  The soundness
  test suite validates the dominance against the reference engine on
  the full policy x geometry equivalence matrix;
* **lower bounds** that are *provably* sound for any machine the
  simulator can build:

  - the **dependency floor**: the exact end cycle of a relaxed machine
    with unlimited MSHRs, free stores, no structural stalls, and whose
    only misses are the *compulsory* references -- loads that are the
    first load ever to touch their line.  Such a load misses in every
    write-through machine this codebase models (stores never install
    under write-around, and a first touch can have no fetch in flight),
    and it always misses as a primary, so its data-ready time is at
    least ``issue + 1 + penalty`` in any machine.  The max-plus issue
    recurrence (:mod:`repro.cpu.replay`) is monotone in every ready
    time and every stall, so the relaxed machine finishes first.  The
    walk exploits the stream's periodicity: executions are grouped into
    runs of identical compulsory-miss masks and each run is advanced to
    its steady state (constant per-execution cycle delta and relative
    lateness vector), then multiplied out -- O(runs x slots), never
    O(references);
  - the **occupancy floor**: ``K`` compulsory line fetches each keep an
    MSHR busy for ``penalty`` cycles, and the policy admits at most
    ``N`` concurrently (``max_fetches`` / ``max_misses`` globally,
    ``max_fetches_per_set`` per set), so the run spans at least
    ``ceil(K * penalty / N)`` cycles;

* **finite write buffers** widen the bracket instead of breaking it:
  the ideal-buffer lower bound stands (removing stalls only speeds the
  machine up), and each of the run's ``pushes`` stalls at most
  ``retire_cycles`` (the drain invariant of
  :class:`repro.cache.write_buffer.FiniteWriteBuffer`), so the upper
  bound gains ``pushes * retire_cycles``.

Cells the bracket cannot cover report a cause through
:func:`screen_support` -- ``dual_issue`` (no MCPI is defined),
``fill_ports`` (serialized fills break the per-miss ready bound) and
``wma_nonblocking`` (a write-allocating non-blocking tag state has no
summary) -- and the screening tier falls back to exact simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.handler import blocking_end_cycle
from repro.sim.lru import LRUCache
from repro.sim.resultstore import group_key
from repro.sim.stream import EventStream, event_stream, functional_summary
from repro.sim.trace import P_LOAD
from repro.workloads.workload import Workload

#: Hard cap on individually walked executions in the dependency floor.
#: Beyond it the walk finishes with the (sound, coarser) body-length
#: floor for the remaining executions; real streams reach their
#: periodic steady state orders of magnitude earlier.
MAX_WALK_STEPS = 20_000


@dataclass(frozen=True)
class CellBounds:
    """A sound ``[lower, upper]`` bracket on one cell's end cycle.

    ``method`` records how the bracket was derived: ``"blocking"``,
    ``"perfect"`` and ``"no-mem"`` are exact closed forms
    (``lower_cycles == upper_cycles``); ``"interval"`` is the
    non-blocking bracket.
    """

    instructions: int
    lower_cycles: int
    upper_cycles: int
    method: str

    @property
    def exact(self) -> bool:
        return self.lower_cycles == self.upper_cycles

    @property
    def mcpi_low(self) -> float:
        """Lower MCPI bound, on the engines' exact formula."""
        return (self.lower_cycles - self.instructions) / self.instructions

    @property
    def mcpi_high(self) -> float:
        """Upper MCPI bound, on the engines' exact formula."""
        return (self.upper_cycles - self.instructions) / self.instructions

    @property
    def width(self) -> float:
        """Bound width in MCPI units (0 for the closed forms)."""
        return self.mcpi_high - self.mcpi_low


def screen_support(config) -> Optional[str]:
    """``None`` when the cell can be bracketed, else the fallback cause.

    Causes mirror the C lanes' fallback tags:
    ``dual_issue`` -- MCPI is undefined for ``issue_width != 1``;
    ``fill_ports`` -- serialized fills delay secondary ready times by
    an amount the summary cannot bound; ``wma_nonblocking`` -- a
    write-allocating non-blocking machine's tag state diverges from
    the immediate-install summary in both directions.
    """
    if config.issue_width != 1:
        return "dual_issue"
    if config.perfect_cache:
        return None
    policy = config.policy
    if not policy.blocking:
        if policy.fill_ports is not None:
            return "fill_ports"
        if policy.write_allocate_blocking:
            return "wma_nonblocking"
    return None


# -- compulsory references and floors ------------------------------------------

#: (group key, line size) -> (flat indices of first-load refs, their
#: blocks).  Policy-independent, so one entry serves a whole sweep.
_FIRST_LOAD_CACHE = LRUCache(16)

#: (group key, line size, penalty) -> relaxed-machine end cycle.  The floor
#: depends on the policy only through its effective penalty, so the
#: cache collapses sibling policies of one design space.
_FLOOR_CACHE = LRUCache(64)


def clear_bounds_caches() -> None:
    """Drop the memoized compulsory-reference sets and floors."""
    _FIRST_LOAD_CACHE.clear()
    _FLOOR_CACHE.clear()


def bounds_cache_sizes() -> Tuple[int, int]:
    """(first-load sets, floors) currently cached."""
    return len(_FIRST_LOAD_CACHE), len(_FLOOR_CACHE)


def _flat_blocks(stream: EventStream) -> Tuple[np.ndarray, np.ndarray]:
    """(blocks, is_load) flattened in reference order (execution-major)."""
    n_slots = len(stream.slots)
    grid = np.empty((stream.executions, n_slots), dtype=np.int64)
    for k, buf in enumerate(stream.lines):
        grid[:, k] = np.frombuffer(buf, dtype=np.int64)
    kinds = np.array(
        [slot.kind == P_LOAD for slot in stream.slots], dtype=bool
    )
    is_load = np.broadcast_to(
        kinds, (stream.executions, n_slots)
    ).reshape(-1)
    return grid.reshape(-1), np.ascontiguousarray(is_load)


def _first_load_refs(stream: EventStream) -> Tuple[np.ndarray, np.ndarray]:
    """Flat reference indices (execution-major) of the compulsory loads.

    A compulsory load is the first *load* to its line address in the
    whole run.  Prior stores are irrelevant: every non-blocking policy
    here is write-around, so stores never install a line.
    """
    blocks, is_load = _flat_blocks(stream)
    load_idx = np.nonzero(is_load)[0]
    if not load_idx.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    _, first = np.unique(blocks[load_idx], return_index=True)
    flat = np.sort(load_idx[first])
    return flat, blocks[flat]


def first_load_refs(
    workload: Workload, load_latency: int, scale: float, stream: EventStream
) -> Tuple[np.ndarray, np.ndarray]:
    """Cached :func:`_first_load_refs` for one stream group."""
    key = (group_key(workload, load_latency, scale), stream.line_size)
    cached = _FIRST_LOAD_CACHE.get(key)
    if cached is None:
        cached = _first_load_refs(stream)
        _FIRST_LOAD_CACHE.put(key, cached)
    return cached


def _occupancy_floor(
    policy, geometry, first_blocks: np.ndarray, penalty: int
) -> int:
    """``ceil(K * penalty / N)`` over every concurrency limit the policy has."""
    count = int(first_blocks.size)
    if not count or penalty <= 0:
        return 0
    floor = 0
    limits = [
        n for n in (policy.max_fetches, policy.max_misses) if n is not None
    ]
    if limits:
        n = min(limits)
        floor = -(-count * penalty // n)
    if policy.max_fetches_per_set is not None:
        sets = first_blocks & (geometry.num_sets - 1)
        busiest = int(np.bincount(sets).max())
        per_set = -(-busiest * penalty // policy.max_fetches_per_set)
        if per_set > floor:
            floor = per_set
    return floor


def _dependency_floor(
    stream: EventStream, penalty: int, first_flat: np.ndarray
) -> int:
    """Exact end cycle of the compulsory-miss relaxed machine.

    Mirrors the replay kernel's recurrence (``issue = max(cycle +
    pregap, max(ready[m] + delta))``; a memory op releases the pipeline
    one cycle after issue; a load publishes ``release`` when it hits
    and ``release + penalty`` when it misses) with unlimited MSHRs,
    free stores and the compulsory references as the only misses.
    """
    n_slots = len(stream.slots)
    execs = stream.executions
    body_len = stream.body_len

    grid = np.zeros(execs * n_slots, dtype=bool)
    grid[first_flat] = True
    grid = grid.reshape(execs, n_slots)
    if execs > 1:
        changed = np.any(grid[1:] != grid[:-1], axis=1)
        starts = np.concatenate(([0], np.nonzero(changed)[0] + 1))
    else:
        starts = np.zeros(1, dtype=np.int64)
    run_ends = np.concatenate((starts[1:], [execs]))

    slot_info = [
        (s.kind == P_LOAD, s.lr_index, s.pregap, s.terms)
        for s in stream.slots
    ]
    tail_gap = stream.tail_gap
    tail_terms = stream.tail_terms
    max_delta = 0
    for _m, d in tail_terms:
        if d > max_delta:
            max_delta = d
    for s in stream.slots:
        for _m, d in s.terms:
            if d > max_delta:
                max_delta = d

    ready: List[int] = [0] * stream.n_loads
    cycle = 0
    done = 0
    steps = 0
    for ri in range(starts.size):
        count = int(run_ends[ri] - starts[ri])
        row = grid[starts[ri]].tolist()
        prev_sig = None
        e = 0
        while e < count:
            if steps >= MAX_WALK_STEPS:
                # Sound coarse finish: each remaining execution
                # advances the clock by at least the body length.
                return cycle + (execs - done) * body_len
            start_cycle = cycle
            for k in range(n_slots):
                is_load, lr, pregap, terms = slot_info[k]
                t = cycle + pregap
                for m, d in terms:
                    v = ready[m] + d
                    if v > t:
                        t = v
                t += 1
                if is_load:
                    ready[lr] = t + penalty if row[k] else t
                cycle = t
            cycle += tail_gap
            for m, d in tail_terms:
                v = ready[m] + d
                if v > cycle:
                    cycle = v
            # Ready times older than every delta can never bind again;
            # normalizing them makes the steady-state signature exact.
            dead = cycle - max_delta
            for i in range(len(ready)):
                if ready[i] < dead:
                    ready[i] = dead
            steps += 1
            e += 1
            done += 1
            delta = cycle - start_cycle
            sig = (delta, tuple(r - cycle for r in ready))
            if sig == prev_sig:
                # Periodic steady state: the remaining executions of
                # this run repeat the same shifted timing exactly.
                shift = (count - e) * delta
                cycle += shift
                ready = [r + shift for r in ready]
                done += count - e
                break
            prev_sig = sig
    return cycle


def dependency_floor(
    workload: Workload,
    load_latency: int,
    scale: float,
    stream: EventStream,
    penalty: int,
) -> int:
    """Cached :func:`_dependency_floor` for one (group, penalty) pair."""
    key = (group_key(workload, load_latency, scale), stream.line_size,
           penalty)
    cached = _FLOOR_CACHE.get(key)
    if cached is None:
        first_flat, _blocks = first_load_refs(
            workload, load_latency, scale, stream
        )
        cached = _dependency_floor(stream, penalty, first_flat)
        _FLOOR_CACHE.put(key, cached)
    return cached


# -- the bracket ---------------------------------------------------------------


def _trace_instructions(workload: Workload, load_latency: int,
                        scale: float) -> int:
    from repro.sim.simulator import expand_workload

    _, trace = expand_workload(workload, load_latency, scale=scale)
    return len(trace.body) * trace.executions


def cell_bounds(
    workload: Workload,
    config,
    load_latency: int = 10,
    scale: float = 1.0,
) -> Optional[CellBounds]:
    """Bracket one cell's end cycle, or ``None`` when it has no bracket.

    ``None`` means :func:`screen_support` names a fallback cause; every
    other cell gets a sound ``[lower, upper]`` with ``lower == upper``
    for the closed-form families.
    """
    if screen_support(config) is not None:
        return None
    instructions = _trace_instructions(workload, load_latency, scale)
    if config.perfect_cache:
        return CellBounds(instructions, instructions, instructions,
                          "perfect")
    policy = config.policy
    geometry = config.geometry
    summary = functional_summary(
        workload, load_latency, scale, geometry,
        write_allocate=policy.write_allocate_blocking,
    )
    if summary is None:
        # No memory ops: nothing ever stalls and the clock is the
        # instruction count.
        return CellBounds(instructions, instructions, instructions,
                          "no-mem")
    penalty = config.effective_penalty + policy.fill_overhead
    upper = blocking_end_cycle(
        instructions=summary.instructions,
        load_misses=summary.load_misses,
        store_misses=summary.store_misses,
        penalty=penalty,
        write_allocate_blocking=policy.write_allocate_blocking,
    )
    if policy.blocking:
        lower = upper
        method = "blocking"
    else:
        stream = event_stream(workload, load_latency, scale,
                              geometry.line_size)
        floor = dependency_floor(workload, load_latency, scale, stream,
                                 penalty)
        _flat, first_blocks = first_load_refs(workload, load_latency,
                                              scale, stream)
        occupancy = _occupancy_floor(policy, geometry, first_blocks,
                                     penalty)
        lower = max(summary.instructions, floor, occupancy)
        method = "interval"
    if config.write_buffer_depth is not None:
        # Finite buffer: the ideal-buffer lower bound stands; each
        # push stalls at most one retire period (drain invariant).
        pushes = summary.store_hits + summary.store_misses
        upper += pushes * config.write_buffer_retire_cycles
        if method == "blocking":
            method = "interval"
    return CellBounds(summary.instructions, lower, upper, method)
