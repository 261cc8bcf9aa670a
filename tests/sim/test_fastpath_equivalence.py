"""The simulator's timing contract: bit-identical results.

Whatever lane a cell takes -- closed form, replay, the dual-issue
driver or the reference loop itself (``docs/performance.md``) --
``simulate`` must produce *exactly* the
:class:`~repro.sim.stats.SimulationResult` the reference loops produce
(:func:`repro.sim.simulator.simulate_reference`) -- cycles, MCPI, and
the complete ``MissStats`` including histograms -- for every MSHR
policy family, cache geometry, write buffer, issue width, and warmup
setting.  ``SimulationResult`` is a frozen
dataclass, so ``==`` compares every field.
"""

from dataclasses import replace

import pytest

from repro.cache.geometry import FULLY_ASSOCIATIVE, CacheGeometry
from repro.core.policies import (
    blocking_cache,
    explicit,
    fc,
    fs,
    implicit,
    in_cache,
    inverted,
    mc,
    no_restrict,
)
from repro.sim.config import baseline_config
from repro.sim.simulator import simulate, simulate_reference
from repro.workloads.spec92 import get_benchmark

#: Every policy family the paper studies (Section 4), by label.
POLICIES = [
    ("mc=0", blocking_cache()),
    ("mc=0+wma", blocking_cache(write_allocate=True)),
    ("mc=1", mc(1)),
    ("mc=2", mc(2)),
    ("fc=1", fc(1)),
    ("fc=2", fc(2)),
    ("fs=1", fs(1)),
    ("no-restrict", no_restrict()),
    ("in-cache", in_cache()),
    ("implicit", implicit()),
    ("explicit-4", explicit(4)),
    ("inverted-4", inverted(4)),
]

#: A hit-heavy integer code, a miss-heavy stream, and an FP kernel.
BENCHMARKS = ["eqntott", "ora", "tomcatv"]


def run_both(workload, config, latency=10, scale=0.25, warmup=0.0):
    fast = simulate(workload, config, load_latency=latency, scale=scale,
                    warmup=warmup)
    slow = simulate_reference(workload, config, load_latency=latency,
                              scale=scale, warmup=warmup)
    return fast, slow


class TestPolicyFamilies:
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_exact_equality(self, label, policy, bench):
        workload = get_benchmark(bench)
        config = baseline_config().with_policy(policy)
        fast, slow = run_both(workload, config)
        assert fast == slow

    @pytest.mark.parametrize("latency", [1, 6, 20])
    def test_across_latencies(self, latency):
        workload = get_benchmark("xlisp")
        config = baseline_config().with_policy(mc(2))
        fast, slow = run_both(workload, config, latency=latency)
        assert fast == slow


class TestGeometries:
    def test_set_associative_lru(self):
        # SA hits must touch LRU in the replay kernels too; a
        # divergence shows up as a different victim on a later miss.
        workload = get_benchmark("espresso")
        config = replace(
            baseline_config().with_policy(no_restrict()),
            geometry=CacheGeometry(size=8192, line_size=32, associativity=4),
        )
        fast, slow = run_both(workload, config)
        assert fast == slow

    def test_fully_associative(self):
        workload = get_benchmark("compress")
        config = replace(
            baseline_config().with_policy(mc(4)),
            geometry=CacheGeometry(
                size=8192, line_size=32, associativity=FULLY_ASSOCIATIVE
            ),
        )
        fast, slow = run_both(workload, config)
        assert fast == slow

    def test_small_lines(self):
        workload = get_benchmark("swm256")
        config = replace(
            baseline_config().with_policy(fc(2)),
            geometry=CacheGeometry(size=8192, line_size=16, associativity=1),
        )
        fast, slow = run_both(workload, config)
        assert fast == slow


class TestOtherMachinery:
    def test_finite_write_buffer(self):
        # Finite-buffer occupancy depends on push times, which no fast
        # lane models: the cell runs on the interp lane.
        workload = get_benchmark("eqntott")
        config = replace(
            baseline_config().with_policy(no_restrict()),
            write_buffer_depth=2,
        )
        fast, slow = run_both(workload, config)
        assert fast == slow

    def test_dual_issue(self):
        workload = get_benchmark("doduc")
        config = replace(
            baseline_config().with_policy(mc(2)), issue_width=2
        )
        fast, slow = run_both(workload, config)
        assert fast == slow

    def test_perfect_cache(self):
        workload = get_benchmark("alvinn")
        config = replace(baseline_config(), perfect_cache=True)
        fast, slow = run_both(workload, config)
        assert fast == slow

    @pytest.mark.parametrize("warmup", [0.25, 0.5])
    def test_warmup_checkpoint(self, warmup):
        workload = get_benchmark("xlisp")
        config = baseline_config().with_policy(fs(1))
        fast, slow = run_both(workload, config, warmup=warmup)
        assert fast == slow


class TestParallelGrouping:
    def test_grouped_pool_matches_serial(self):
        # The cache-affine grouped dispatch must reassemble results in
        # submission order and match in-process runs exactly.
        from repro.sim.parallel import dispatch

        base = baseline_config()
        cells = []
        for name in ("compress", "ora"):
            workload = get_benchmark(name)
            for policy in (blocking_cache(), mc(1), no_restrict()):
                cells.append((workload, base.with_policy(policy), 10, 0.2))
        serial = dispatch(cells, workers=1)
        pooled = dispatch(cells, workers=2)
        assert pooled == serial
