"""Access-level tracing: watch the lockup-free cache work.

The aggregate counters answer "how much"; debugging a policy or
teaching the mechanism needs "what happened, access by access".  This
module wraps a :class:`~repro.core.handler.MissHandler` so that every
load/store is recorded with its issue cycle, address, classification,
stall, and data-ready time, then exposes a one-call entry point that
runs a (truncated) simulation and returns the log.

Tracing is strictly additive: the wrapped handler's timing decisions
are untouched, so a traced run's cycle counts equal an untraced run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.classify import AccessOutcome
from repro.core.handler import MissHandler
from repro.cpu.reference import run_single_issue_reference
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.simulator import expand_workload
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class AccessRecord:
    """One data-cache access as the handler resolved it."""

    index: int
    is_load: bool
    address: int
    issue_cycle: int
    #: Cycle at which the pipeline could issue the next instruction.
    next_issue: int
    #: Cycle at which the loaded register became valid (loads only).
    data_ready: Optional[int]
    outcome: Optional[AccessOutcome]
    store_hit: Optional[bool] = None

    @property
    def stall_cycles(self) -> int:
        """Pipeline cycles this access held beyond its own issue slot."""
        return self.next_issue - self.issue_cycle - 1

    def describe(self) -> str:
        kind = "load " if self.is_load else "store"
        outcome = (
            self.outcome.name.lower() if self.outcome is not None
            else ("hit" if self.store_hit else "miss")
        )
        text = (f"#{self.index:<6d} cycle {self.issue_cycle:<8d} {kind} "
                f"0x{self.address:08x}  {outcome:10s}")
        if self.stall_cycles:
            text += f" stalled {self.stall_cycles}"
        if self.is_load and self.data_ready is not None:
            text += f" ready@{self.data_ready}"
        return text


class TracingHandler:
    """MissHandler wrapper recording every access up to a limit."""

    def __init__(self, inner: MissHandler, limit: int = 1000) -> None:
        self.inner = inner
        self.limit = limit
        self.records: List[AccessRecord] = []
        self._count = 0

    @property
    def stats(self):
        return self.inner.stats

    def load(self, addr: int, now: int):
        result = self.inner.load(addr, now)
        if len(self.records) < self.limit:
            nxt, ready, outcome = result
            self.records.append(AccessRecord(
                index=self._count, is_load=True, address=addr,
                issue_cycle=now, next_issue=nxt, data_ready=ready,
                outcome=outcome,
            ))
        self._count += 1
        return result

    def store(self, addr: int, now: int):
        result = self.inner.store(addr, now)
        if len(self.records) < self.limit:
            nxt, hit = result
            self.records.append(AccessRecord(
                index=self._count, is_load=False, address=addr,
                issue_cycle=now, next_issue=nxt, data_ready=None,
                outcome=None, store_hit=hit,
            ))
        self._count += 1
        return result

    def finalize(self, end_cycle: int) -> None:
        self.inner.finalize(end_cycle)


def record_accesses(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    load_latency: int = 10,
    limit: int = 200,
    scale: float = 0.05,
) -> List[AccessRecord]:
    """Run a short simulation and return the first ``limit`` accesses.

    Single-issue only: the trace runs on the reference loop
    (:func:`repro.cpu.reference.run_single_issue_reference`), which
    sends every access through the wrapped handler.
    """
    if config is None:
        config = baseline_config()
    _compiled, trace = expand_workload(workload, load_latency, scale=scale)
    handler = TracingHandler(config.make_handler(), limit=limit)
    run_single_issue_reference(trace, handler)
    return handler.records


def format_access_log(records: List[AccessRecord]) -> str:
    """Render an access log as readable lines."""
    return "\n".join(record.describe() for record in records)
