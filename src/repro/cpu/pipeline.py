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

The model itself is executed by
:func:`repro.cpu.reference.run_single_issue_reference`; this module
keeps the stand-in handler for the perfect-cache baselines.
"""

from __future__ import annotations

from typing import Tuple


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

    def checkpoint(self, cycle: int):
        snap = self.stats.snapshot()
        snap.observed_cycles = cycle
        return snap

    def finalize(self, end_cycle: int) -> None:
        self.stats.observed_cycles = end_cycle

