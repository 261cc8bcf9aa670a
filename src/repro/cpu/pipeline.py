"""The single-issue processor timing model (paper Section 3.1).

A multistage pipeline reduced to its timing essentials: one
instruction issues per cycle, every instruction has a single-cycle
latency, the I-cache is perfect, branches are perfectly predicted, and
the register file is scoreboarded.  The only stalls are

* **true-data-dependency stalls**: an instruction whose source (or,
  for the write-after-write case, destination) register awaits an
  outstanding load fill waits until the fill returns; and
* **memory-system stalls** raised by the miss handler: structural
  hazards, blocking misses, write-miss-allocate fetches, and (in the
  finite-buffer ablation) write-buffer overflow.

This module holds the *two-tier* execution engine.  Tier 2 is the
flattened interpreter: the engine walks the trace's pre-compiled
dispatch program (:meth:`repro.sim.trace.ExpandedTrace.program`), in
which non-interacting scalar runs are single clock-advance entries.
Tier 1 is the hit fast path: when the handler publishes fast-path
hooks, a load/store whose block is resident -- and which issues before
the earliest outstanding fill could change tag state -- is accounted
inline as a 1-cycle hit with direct counter increments, and only the
remaining accesses pay the full ``MissHandler.load``/``store`` call.
The timing contract is bit-identical to the reference loop in
:mod:`repro.cpu.reference`; ``tests/sim/test_fastpath_equivalence.py``
asserts it across every policy family.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.cpu.isa import NUM_REGS
from repro.core.handler import FAR_FUTURE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.trace import ExpandedTrace


class _Universe:
    """A "set" containing every block -- the perfect cache's residency."""

    def __contains__(self, block: int) -> bool:
        return True


_UNIVERSE = _Universe()


class PerfectCacheHandler:
    """Stand-in handler where every access hits (for IPC baselines)."""

    def __init__(self) -> None:
        from repro.core.stats import MissStats

        self.stats = MissStats()

    def load(self, addr: int, now: int) -> Tuple[int, int, int]:
        self.stats.loads += 1
        self.stats.load_hits += 1
        return now + 1, now + 1, 0

    def store(self, addr: int, now: int) -> Tuple[int, bool]:
        self.stats.stores += 1
        self.stats.store_hits += 1
        return now + 1, True

    def absorb_fast_hits(
        self, n_loads: int, n_stores: int, n_store_misses: int = 0
    ) -> None:
        self.stats.loads += n_loads
        self.stats.load_hits += n_loads
        self.stats.stores += n_stores
        self.stats.store_hits += n_stores

    def fast_path_hooks(self):
        """Every access hits, so the fast path is unconditional."""
        return (_UNIVERSE.__contains__, (lambda: FAR_FUTURE), 2, 0,
                self.absorb_fast_hits, _UNIVERSE)

    def checkpoint(self, cycle: int):
        snap = self.stats.snapshot()
        snap.observed_cycles = cycle
        return snap

    def finalize(self, end_cycle: int) -> None:
        self.stats.observed_cycles = end_cycle


def _no_fill() -> int:
    """next_fill stand-in when no fast-path hooks are active."""
    return -1


def run_single_issue(
    trace: "ExpandedTrace",
    handler,
    warmup_executions: int = 0,
) -> Tuple[int, int, int]:
    """Execute the trace; returns (cycles, instructions, truedep_stalls).

    ``handler`` is a :class:`~repro.core.handler.MissHandler` or
    :class:`PerfectCacheHandler`.  ``warmup_executions`` discards the
    first N body executions from every returned count and from the
    handler's statistics (cache state is kept, so the measured window
    starts warm) -- the control the paper's billion-reference runs
    never needed.  A handler without fast-path hooks sends every
    access through its ``load``/``store``; the result is identical
    either way, only slower.

    The body loop itself is specialized per trace by
    :mod:`repro.cpu.codegen`; this wrapper resolves the handler's
    fast-path hooks, splits the run around the warmup checkpoint, and
    settles the inline hit counters into the handler's statistics.
    """
    from repro.cpu.codegen import specialized_single_issue

    executions = trace.executions
    n_body = len(trace.body)
    run = specialized_single_issue(trace)

    reg_ready = [0] * NUM_REGS
    do_load = handler.load
    do_store = handler.store

    hooks = getattr(handler, "fast_path_hooks", None)
    hooks = hooks() if hooks is not None else None
    if hooks is not None:
        probe, next_fill, store_mode, offset_bits, absorb, res = hooks
        fence = next_fill()
    else:
        probe = absorb = res = None
        next_fill = _no_fill
        store_mode = 0
        offset_bits = 0
        fence = -1  # cycle < fence is never true: every access slow-paths

    if warmup_executions >= executions:
        warmup_executions = max(0, executions - 1)
    base_cycles = base_truedep = 0
    base_stats = None

    cycle = truedep = 0
    if warmup_executions > 0:
        cycle, truedep, fence, fast_loads, fast_stores, fast_smiss = run(
            0, warmup_executions, cycle, truedep, reg_ready,
            do_load, do_store, probe, next_fill, store_mode, offset_bits,
            fence, res,
        )
        if absorb is not None and (fast_loads or fast_stores or fast_smiss):
            absorb(fast_loads, fast_stores, fast_smiss)
        base_cycles = cycle
        base_truedep = truedep
        base_stats = handler.checkpoint(cycle)
    cycle, truedep, fence, fast_loads, fast_stores, fast_smiss = run(
        warmup_executions, executions, cycle, truedep, reg_ready,
        do_load, do_store, probe, next_fill, store_mode, offset_bits,
        fence, res,
    )
    if absorb is not None and (fast_loads or fast_stores or fast_smiss):
        absorb(fast_loads, fast_stores, fast_smiss)

    handler.finalize(cycle)
    if base_stats is not None:
        handler.stats = handler.stats.minus(base_stats)
        measured = executions - warmup_executions
        return cycle - base_cycles, n_body * measured, truedep - base_truedep
    return cycle, n_body * executions, truedep
