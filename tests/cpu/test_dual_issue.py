"""The dual-issue issue rules (Section 6), on the reference loop."""

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import PipelinedMemory
from repro.core.handler import MissHandler
from repro.core.policies import blocking_cache, no_restrict
from repro.cpu.isa import Instruction, OpClass
from repro.cpu.pipeline import PerfectCacheHandler
from repro.cpu.reference import (
    run_dual_issue_reference,
    run_single_issue_reference,
)
from repro.sim.trace import ExpandedTrace

GEOM = CacheGeometry(size=8 * 1024, line_size=32, associativity=1)

LOAD = lambda dst, stream=0: Instruction(OpClass.LOAD, dst=dst, stream=stream)
IALU = lambda dst, *srcs: Instruction(OpClass.IALU, dst=dst, srcs=srcs)
STORE = lambda src, stream=0: Instruction(OpClass.STORE, srcs=(src,), stream=stream)


def trace(body, addresses, executions=1):
    return ExpandedTrace(body=tuple(body), addresses=list(addresses),
                         executions=executions, workload_name="hand-built")


def handler(policy=None):
    return MissHandler(policy or no_restrict(), GEOM, PipelinedMemory(16))


class TestIssueRules:
    def test_independent_pair_dual_issues(self):
        body = [IALU(1), IALU(2)]
        cycles, instructions, _ = run_dual_issue_reference(
            trace(body, [None, None], executions=10), PerfectCacheHandler()
        )
        assert instructions == 20
        assert cycles == 10  # two per cycle

    def test_dependent_pair_cannot_share_cycle(self):
        body = [IALU(1), IALU(2, 1)]
        cycles, instructions, _ = run_dual_issue_reference(
            trace(body, [None, None], executions=10), PerfectCacheHandler()
        )
        # The dependent consumer never shares a cycle with its
        # producer, but it CAN pair with the *next* execution's
        # independent producer: cycle 0 = [p0], cycles 1..10 =
        # [c_k, p_{k+1}] -> 11 cycles for 20 instructions.
        assert cycles == 11

    def test_one_memory_port(self):
        body = [LOAD(32), LOAD(33, 1)]
        addresses = [[0x100] * 10, [0x100 + 8] * 10]
        cycles, _, _ = run_dual_issue_reference(
            trace(body, addresses, executions=10), PerfectCacheHandler()
        )
        # Two memory ops per execution, one port: >= 2 cycles each.
        assert cycles >= 20

    def test_memory_plus_alu_coissue(self):
        body = [LOAD(32), IALU(1)]
        addresses = [[0x100] * 10, None]
        cycles, _, _ = run_dual_issue_reference(
            trace(body, addresses, executions=10), PerfectCacheHandler()
        )
        assert cycles <= 11  # pairable every cycle

    def test_ipc_between_one_and_two(self):
        body = [IALU(1), IALU(2, 1), IALU(3), IALU(4, 3)]
        cycles, instructions, _ = run_dual_issue_reference(
            trace(body, [None] * 4, executions=25), PerfectCacheHandler()
        )
        ipc = instructions / cycles
        assert 1.0 < ipc <= 2.0


class TestWithRealCache:
    def test_blocking_miss_freezes_both_slots(self):
        body = [LOAD(32), IALU(1)]
        cycles, _, _ = run_dual_issue_reference(
            trace(body, [[0x100], None]), handler(blocking_cache())
        )
        # The blocking miss alone costs ~17 cycles.
        assert cycles >= 17

    def test_dual_never_slower_than_single(self):
        body = [LOAD(32), IALU(1, 32), IALU(2), IALU(3, 2), STORE(3, 1)]
        addresses = [
            [0x100 + 64 * i for i in range(30)], None, None, None,
            [0x9000] * 30,
        ]
        single_cycles, _, _ = run_single_issue_reference(
            trace(body, addresses, executions=30), handler()
        )
        dual_cycles, _, _ = run_dual_issue_reference(
            trace(body, addresses, executions=30), handler()
        )
        assert dual_cycles <= single_cycles

    def test_finalize_called(self):
        h = handler()
        run_dual_issue_reference(trace([LOAD(32)], [[0x100]]), h)
        assert h.stats.observed_cycles > 0
