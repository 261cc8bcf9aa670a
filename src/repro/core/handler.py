"""The lockup-free cache miss handler: the paper's machinery, executable.

:class:`MissHandler` combines a tag store, a pipelined memory, a write
buffer, and an :class:`repro.core.policies.MSHRPolicy` into the data
side of the paper's machine model.  The processor model calls
:meth:`MissHandler.load` / :meth:`MissHandler.store` with the issue
cycle of each memory instruction and receives back when the instruction
releases the pipeline and when its data becomes valid.

Timing contract (chosen so that the paper's boundary behaviours hold
exactly):

* a load issued at cycle ``t`` that hits produces data usable by an
  instruction issuing at ``t + 1`` ("data cache references that hit in
  the cache require a single cycle", Section 3.1);
* a load miss launches its fetch at the end of its cycle; the whole
  line and *all* waiting registers fill at ``t + 1 + penalty``
  (simultaneous update, the multiple-write-port assumption of
  Section 3.1; ``fill_ports`` serializes this for the Section 6
  ablation, and the in-cache MSHR organization's ``fill_overhead``
  extends every fill by its MSHR read-out time);
* a blocking (``mc=0``) miss stalls the processor until the fill, so
  each miss costs exactly ``penalty`` stall cycles and the blocking
  MCPI is strictly linear in the miss penalty, as Figure 18 observes;
* a structural-stall miss freezes the processor until the earliest
  event that removes the hazard, then replays: if the awaited event was
  its own block's fill the replay completes as a hit; otherwise the
  replay re-arbitrates for the freed resource.

Because the memory is fully pipelined with a constant latency, fetch
completion times are known at launch and are monotone in launch order,
so outstanding fetches form a FIFO and no event queue is needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import PipelinedMemory
from repro.cache.tags import TagStore, make_tag_store
from repro.cache.write_buffer import WriteBuffer
from repro.core.classify import AccessOutcome, StructuralCause
from repro.core.policies import MSHRPolicy
from repro.core.stats import HIST_BUCKETS, MissStats
from repro.errors import SimulationError

#: Sentinel "fill time" meaning no fetch is outstanding: any real cycle
#: number compares below it.  The replay kernels (:mod:`repro.cpu.replay`,
#: ``kernel.c``) keep their fence -- the earliest outstanding fill time,
#: before which no tag state can change -- at this value when their
#: fetch FIFO is empty.
FAR_FUTURE = 1 << 62


def blocking_end_cycle(
    *,
    instructions: int,
    load_misses: int,
    store_misses: int,
    penalty: int,
    write_allocate_blocking: bool,
) -> int:
    """End cycle of a blocking (``mc=0``) run, in closed form.

    The immediate-install machine has no overlap: every load miss
    stalls for exactly ``penalty`` cycles (the effective miss penalty
    including any ``fill_overhead``), data returns with the pipeline
    release so true-dependency stalls are zero, and with the ideal
    write buffer stores are free (plus, under ``+wma``, a penalty-long
    stall per store miss).  This is the arithmetic shared by
    :meth:`MissHandler.absorb_blocking_run` (which also updates the
    handler's statistics) and the analytical screening tier's bound
    primitives (:mod:`repro.sim.bounds`), which use it both as the
    blocking family's exact value and as the non-blocking families'
    no-overlap upper bound.
    """
    end = instructions + load_misses * penalty
    if write_allocate_blocking:
        end += store_misses * penalty
    return end


class _Fetch:
    """One outstanding line fetch (one occupied MSHR)."""

    __slots__ = ("block", "set_idx", "fill_time", "n_misses", "sub_counts")

    def __init__(self, block: int, set_idx: int, fill_time: int) -> None:
        self.block = block
        self.set_idx = set_idx
        self.fill_time = fill_time
        #: Misses merged into this fetch, including the primary.
        self.n_misses = 1
        #: Per-sub-block miss counts; lazily allocated only when the
        #: policy's field layout is finite.
        self.sub_counts: Optional[List[int]] = None


class MissHandler:
    """Runtime state of a lockup-free data cache under one policy."""

    def __init__(
        self,
        policy: MSHRPolicy,
        geometry: CacheGeometry,
        memory: PipelinedMemory,
        tags: Optional[TagStore] = None,
        write_buffer: Optional[WriteBuffer] = None,
    ) -> None:
        self.policy = policy
        self.geometry = geometry
        self.memory = memory
        self.tags = tags if tags is not None else make_tag_store(geometry)
        self.write_buffer = write_buffer if write_buffer is not None else WriteBuffer()
        self.stats = MissStats()

        self._offset_bits = geometry.offset_bits
        self._penalty = memory.miss_penalty + policy.fill_overhead

        # Outstanding fetches in launch (== fill) order plus a block index.
        self._fifo: List[_Fetch] = []
        self._by_block: Dict[int, _Fetch] = {}
        self._n_misses_out = 0
        # Per-set outstanding fetch counts, kept only under an fs limit.
        self._per_set: Dict[int, int] = {}

        # Field-layout geometry (finite layouts only).
        layout = policy.layout
        self._layout_limited = not layout.unlimited
        self._n_subblocks = layout.n_subblocks
        self._sub_limit = layout.misses_per_subblock
        if self._layout_limited and self._n_subblocks > geometry.line_size:
            raise SimulationError(
                "field layout has more sub-blocks than bytes per line"
            )
        # offset -> sub-block index is offset >> sub_shift.
        sub_size = geometry.line_size // self._n_subblocks
        self._sub_shift = sub_size.bit_length() - 1

        # Histogram integration state.
        self._last_t = 0
        self._line_mask = geometry.line_size - 1

    # -- occupancy histogram integration -------------------------------------

    def _advance(self, t: int) -> None:
        """Integrate in-flight occupancy up to cycle ``t``."""
        dt = t - self._last_t
        if dt <= 0:
            return
        stats = self.stats
        n_f = len(self._fifo)
        n_m = self._n_misses_out
        stats.fetch_inflight_hist[n_f if n_f < HIST_BUCKETS else 7] += dt
        stats.miss_inflight_hist[n_m if n_m < HIST_BUCKETS else 7] += dt
        self._last_t = t

    # -- fill processing -------------------------------------------------------

    def _install(self, block: int) -> None:
        if self.tags.install(block) is not None:
            self.stats.evictions += 1

    def _drain(self, now: int) -> None:
        """Complete every fetch whose fill time has arrived."""
        fifo = self._fifo
        while fifo and fifo[0].fill_time <= now:
            fetch = fifo[0]
            self._advance(fetch.fill_time)
            del fifo[0]
            del self._by_block[fetch.block]
            self._n_misses_out -= fetch.n_misses
            if self._per_set:
                remaining = self._per_set.get(fetch.set_idx, 0) - 1
                if remaining > 0:
                    self._per_set[fetch.set_idx] = remaining
                else:
                    self._per_set.pop(fetch.set_idx, None)
            self._install(fetch.block)

    # -- helpers ----------------------------------------------------------------

    def _earliest_fill(self) -> int:
        return self._fifo[0].fill_time

    def _earliest_fill_in_set(self, set_idx: int) -> int:
        for fetch in self._fifo:
            if fetch.set_idx == set_idx:
                return fetch.fill_time
        raise SimulationError("per-set limit hit with no fetch in the set")

    def _field_free(self, fetch: _Fetch, sub_idx: int) -> bool:
        if not self._layout_limited:
            return True
        counts = fetch.sub_counts
        if counts is None:
            return True
        return counts[sub_idx] < self._sub_limit  # type: ignore[operator]

    def _take_field(self, fetch: _Fetch, sub_idx: int) -> None:
        if not self._layout_limited:
            return
        if fetch.sub_counts is None:
            fetch.sub_counts = [0] * self._n_subblocks
        fetch.sub_counts[sub_idx] += 1

    def _data_ready(self, fetch: _Fetch, position: int) -> int:
        """When the destination at attach ``position`` becomes valid."""
        ports = self.policy.fill_ports
        if ports is None:
            return fetch.fill_time
        return fetch.fill_time + position // ports

    def _launch(self, block: int, set_idx: int, sub_idx: int, t: int) -> _Fetch:
        self._advance(t)
        fetch = _Fetch(block, set_idx, t + 1 + self._penalty)
        self._fifo.append(fetch)
        self._by_block[block] = fetch
        self._n_misses_out += 1
        self._take_field(fetch, sub_idx)
        if self.policy.max_fetches_per_set is not None:
            self._per_set[set_idx] = self._per_set.get(set_idx, 0) + 1
        stats = self.stats
        stats.fetches_launched += 1
        if self._n_misses_out > stats.max_misses_inflight:
            stats.max_misses_inflight = self._n_misses_out
        if len(self._fifo) > stats.max_fetches_inflight:
            stats.max_fetches_inflight = len(self._fifo)
        return fetch

    # -- the access interface ------------------------------------------------

    def load(self, addr: int, now: int) -> Tuple[int, int, AccessOutcome]:
        """Present a load issued at cycle ``now``.

        Returns ``(next_issue, data_ready, outcome)``: the cycle at
        which the next instruction may issue, the cycle at which the
        loaded register becomes valid, and the miss classification.
        Structural and blocking stall cycles are recorded in
        :attr:`stats`; the caller accounts only true-data-dependency
        stalls.
        """
        stats = self.stats
        stats.loads += 1
        block = addr >> self._offset_bits
        self._drain(now)

        if self.tags.access(block):
            stats.load_hits += 1
            return now + 1, now + 1, AccessOutcome.HIT

        policy = self.policy
        if policy.blocking:
            stats.blocking_misses += 1
            stats.blocking_stall_cycles += self._penalty
            ready = now + 1 + self._penalty
            self._install(block)
            return ready, ready, AccessOutcome.BLOCKING

        t = now
        stalled = False
        stall_cause = StructuralCause.NONE
        while True:
            fetch = self._by_block.get(block)
            if fetch is not None:
                sub_idx = (addr & self._line_mask) >> self._sub_shift
                miss_ok = (
                    policy.max_misses is None
                    or self._n_misses_out < policy.max_misses
                )
                if miss_ok and self._field_free(fetch, sub_idx):
                    # Secondary miss: merge into the outstanding fetch.
                    self._advance(t)
                    position = fetch.n_misses
                    fetch.n_misses = position + 1
                    self._n_misses_out += 1
                    self._take_field(fetch, sub_idx)
                    if self._n_misses_out > stats.max_misses_inflight:
                        stats.max_misses_inflight = self._n_misses_out
                    ready = self._data_ready(fetch, position)
                    if stalled:
                        stats.count_structural(stall_cause)
                        stats.structural_stall_cycles += t - now
                        return t + 1, ready, AccessOutcome.STRUCTURAL
                    stats.secondary_misses += 1
                    return t + 1, ready, AccessOutcome.SECONDARY
                # Structural hazard on the merge path.
                if not stalled:
                    stalled = True
                    stall_cause = (
                        StructuralCause.NO_MISS_SLOT
                        if not miss_ok
                        else StructuralCause.NO_DEST_FIELD
                    )
                if not miss_ok:
                    # A miss slot frees at the earliest fill anywhere,
                    # possibly before our block's own fill.
                    t = self._earliest_fill()
                else:
                    # Destination fields free only when the block fills.
                    t = fetch.fill_time
                self._drain(t)
                if self.tags.access(block):
                    # Our block filled while we were stalled: complete
                    # the replay as a hit.
                    stats.count_structural(stall_cause)
                    stats.structural_stall_cycles += t - now
                    return t + 1, t + 1, AccessOutcome.STRUCTURAL
                continue

            # No outstanding fetch for this block: primary-miss path.
            set_idx = block & (self.geometry.num_sets - 1)
            wait_until = t
            cause = StructuralCause.NONE
            if (
                policy.max_fetches is not None
                and len(self._fifo) >= policy.max_fetches
            ):
                wait_until = max(wait_until, self._earliest_fill())
                cause = StructuralCause.NO_FETCH_SLOT
            if (
                policy.max_misses is not None
                and self._n_misses_out >= policy.max_misses
            ):
                wait_until = max(wait_until, self._earliest_fill())
                cause = StructuralCause.NO_MISS_SLOT
            if policy.max_fetches_per_set is not None:
                if self._per_set.get(set_idx, 0) >= policy.max_fetches_per_set:
                    wait_until = max(
                        wait_until, self._earliest_fill_in_set(set_idx)
                    )
                    cause = StructuralCause.NO_SET_SLOT
            if cause is StructuralCause.NONE:
                sub_idx = (addr & self._line_mask) >> self._sub_shift
                fetch = self._launch(block, set_idx, sub_idx, t)
                if stalled:
                    stats.count_structural(stall_cause)
                    stats.structural_stall_cycles += t - now
                    return t + 1, fetch.fill_time, AccessOutcome.STRUCTURAL
                stats.primary_misses += 1
                return t + 1, fetch.fill_time, AccessOutcome.PRIMARY
            if not stalled:
                stalled = True
                stall_cause = cause
            if wait_until <= t:
                raise SimulationError("structural stall made no progress")
            t = wait_until
            self._drain(t)
            # The block cannot have been installed while no fetch for it
            # existed, so loop straight into re-arbitration.

    def store(self, addr: int, now: int) -> Tuple[int, bool]:
        """Present a store issued at cycle ``now``.

        Returns ``(next_issue, hit)``.  The baseline policy is
        write-through with write-around (no-write-allocate), serviced
        by the write buffer, so stores normally complete in one cycle.
        Under ``write_allocate_blocking`` (the ``+wma`` curve) a store
        miss fetches the line and stalls the processor for the full
        miss penalty.
        """
        stats = self.stats
        stats.stores += 1
        block = addr >> self._offset_bits
        self._drain(now)

        hit = self.tags.access(block)
        if hit:
            stats.store_hits += 1
        else:
            stats.store_misses += 1
        wb_stall = self.write_buffer.push(now)
        if wb_stall:
            stats.write_buffer_stall_cycles += wb_stall
        next_issue = now + 1 + wb_stall
        if not hit and self.policy.write_allocate_blocking:
            stats.write_allocate_stall_cycles += self._penalty
            next_issue += self._penalty
            self._install(block)
        return next_issue, hit

    def checkpoint(self, cycle: int) -> MissStats:
        """Snapshot the statistics as of ``cycle`` (for warmup discard).

        Brings fills and histogram integration up to ``cycle`` first so
        the snapshot is exact.
        """
        self._drain(cycle)
        self._advance(cycle)
        snap = self.stats.snapshot()
        snap.observed_cycles = cycle
        return snap

    def finalize(self, end_cycle: int) -> None:
        """Close the books at ``end_cycle``: drain fills, fix histograms."""
        self._drain(end_cycle)
        self._advance(end_cycle)
        self.stats.observed_cycles = end_cycle

    def absorb_blocking_run(
        self,
        *,
        instructions: int,
        load_hits: int,
        load_misses: int,
        store_hits: int,
        store_misses: int,
        evictions: int,
    ) -> Optional[int]:
        """Account a whole blocking-policy run from functional aggregates.

        A blocking (``mc=0``) machine is the immediate-install cache:
        every load miss stalls for exactly the penalty and installs
        before the next instruction issues, loads return data with the
        pipeline release so true-dependency stalls are zero, and with
        the ideal write buffer stores are pure counter updates (plus,
        under ``+wma``, a penalty-long stall per store miss).  The end
        cycle is therefore closed-form and the per-access replay can
        be skipped entirely (:func:`repro.cpu.replay.run_blocking_summary`).

        Returns the run's end cycle after finalizing, or ``None`` when
        the closed form does not apply (non-blocking policy, or a
        finite write buffer whose stalls depend on per-push timing).
        The caller guarantees the aggregates describe the whole run on
        this handler's exact geometry and store-allocation policy.
        """
        if not self.policy.blocking:
            return None
        if type(self.write_buffer) is not WriteBuffer:
            return None
        stats = self.stats
        penalty = self._penalty
        stats.loads += load_hits + load_misses
        stats.load_hits += load_hits
        stats.blocking_misses += load_misses
        stats.blocking_stall_cycles += load_misses * penalty
        end = blocking_end_cycle(
            instructions=instructions,
            load_misses=load_misses,
            store_misses=store_misses,
            penalty=penalty,
            write_allocate_blocking=self.policy.write_allocate_blocking,
        )
        if store_hits or store_misses:
            stats.stores += store_hits + store_misses
            stats.store_hits += store_hits
            stats.store_misses += store_misses
            self.write_buffer.pushes += store_hits + store_misses
            if self.policy.write_allocate_blocking:
                stats.write_allocate_stall_cycles += store_misses * penalty
        stats.evictions += evictions
        self.finalize(end)
        return end

    # -- introspection ----------------------------------------------------------

    @property
    def outstanding_fetches(self) -> int:
        """Number of fetches currently in flight."""
        return len(self._fifo)

    @property
    def outstanding_misses(self) -> int:
        """Number of misses currently in flight (primaries included)."""
        return self._n_misses_out
