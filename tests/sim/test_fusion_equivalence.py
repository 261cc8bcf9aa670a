"""Policy-sibling fusion's timing contract: bit-identical results.

Every fast lane -- the closed form and the replay over one stream pass
per group (``docs/performance.md``), in the C kernel or the scalar
fallback, and the dual-issue driver -- must produce *exactly* the
:class:`~repro.sim.stats.SimulationResult` the reference loops produce
-- cycles, stall accounting, and the complete ``MissStats`` including
histograms -- across every baseline policy, both issue widths, and the
paper's cache-geometry corners.  The interp lane is the reference loop
itself; its finite write buffer is checked against the fast lanes at
the buffer's ideal limit.  ``SimulationResult`` is a frozen dataclass,
so ``==`` compares every field.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import telemetry
from repro.cache.geometry import CacheGeometry
from repro.core.policies import (
    baseline_policies,
    blocking_cache,
    mc,
    no_restrict,
)
from repro.cpu import ckernel
from repro.cpu.reference import run_single_issue_reference
from repro.sim import engines
from repro.sim import simulator
from repro.sim import stream as stream_mod
from repro.sim.config import baseline_config
from repro.sim.simulator import (
    clear_caches,
    expand_workload,
    simulate,
    simulate_reference,
)
from repro.workloads.spec92 import get_benchmark
from tests.helpers import compiler_hidden

#: The two geometry corners the sweep figures pivot on.
GEOMETRIES = [
    ("8KB/16B", CacheGeometry(size=8192, line_size=16, associativity=1)),
    ("64KB/32B", CacheGeometry(size=65536, line_size=32, associativity=1)),
]

POLICIES = [(policy.name, policy) for policy in baseline_policies()]

#: Interp-lane machines: (label, machine, warmup fraction).
INTERP_CELLS = [
    ("wb4", replace(baseline_config(mc(1)), write_buffer_depth=4), 0.0),
    ("warmup", baseline_config(mc(1)), 0.25),
    ("perfect", replace(baseline_config(), perfect_cache=True), 0.0),
]


class TestInterpLane:
    """Interp-lane cells on the single-issue reference loop.

    A finite write buffer, a warmup discard or a single-issue perfect
    cache runs :func:`repro.cpu.reference.run_single_issue_reference`
    through the module-level name ``repro.sim.simulator.run_single_issue``,
    which ``perfbench``'s ``interp`` site wraps.  A finite buffer that
    can never fill must time exactly as the fast lanes do with the
    paper's ideal buffer, for every policy at both issue widths.
    """

    @pytest.mark.parametrize("label,config,warmup", INTERP_CELLS,
                             ids=[label for label, _, _ in INTERP_CELLS])
    def test_runs_through_the_module_name(self, monkeypatch, label, config,
                                          warmup):
        assert simulator.run_single_issue is run_single_issue_reference
        calls = []

        def counting(trace, handler, warmup_executions=0):
            calls.append(warmup_executions)
            return run_single_issue_reference(trace, handler,
                                              warmup_executions)

        monkeypatch.setattr(simulator, "run_single_issue", counting)
        workload = get_benchmark("xlisp")
        assert engines.cell_lane(config, warmup) == "interp"
        simulate(workload, config, load_latency=10, scale=0.1,
                 warmup=warmup)
        _, trace = expand_workload(workload, 10, scale=0.1)
        assert calls == [int(trace.executions * warmup)]

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("issue_width", [1, 2])
    def test_one_entry_buffer_retiring_each_cycle_is_ideal(
            self, label, policy, issue_width):
        # One memory port issues at most one store a cycle, so a
        # one-entry buffer that retires every cycle never fills.  The
        # same buffer retiring every other cycle does stall on xlisp,
        # so the run presses on it.
        workload = get_benchmark("xlisp")
        config = replace(baseline_config().with_policy(policy),
                         issue_width=issue_width)
        ideal = simulate(workload, config, load_latency=10, scale=0.1)
        one_entry = replace(config, write_buffer_depth=1)
        assert engines.cell_lane(one_entry) == "interp"
        assert simulate(workload, one_entry, load_latency=10,
                        scale=0.1) == ideal
        slow = simulate(workload,
                        replace(one_entry, write_buffer_retire_cycles=2),
                        load_latency=10, scale=0.1)
        assert slow.miss.write_buffer_stall_cycles > 0


class TestPolicySiblingEquivalence:
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    def test_fused_matches_reference_engine(self, label, policy):
        # The strongest cross-check: fused vs the unoptimized
        # cpu/reference.py loops, which share no code with the stream
        # pass or the replay kernels.
        workload = get_benchmark("ora")
        config = baseline_config().with_policy(policy)
        fused = simulate(workload, config, load_latency=10, scale=0.1)
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert fused == reference

    def test_replay_kernel_is_cached_per_sibling(self):
        # Two siblings over one stream compile two kernels; re-running
        # either sibling reuses its kernel (and the shared stream).
        workload = get_benchmark("eqntott")
        clear_caches()
        for policy in (mc(1), no_restrict(), mc(1)):
            config = baseline_config().with_policy(policy)
            simulate(workload, config, load_latency=10, scale=0.1)
        stream = stream_mod.event_stream(workload, 10, 0.1, 32)
        assert len(stream._replay_fns) == 2

    def test_clear_caches_drops_streams(self):
        workload = get_benchmark("compress")
        simulate(workload, baseline_config(), load_latency=10, scale=0.1)
        assert stream_mod.cache_sizes()[0] > 0
        clear_caches()
        assert stream_mod.cache_sizes() == (0, 0)


#: The cnative and no-compiler matrices add set-associative corners to
#: the two direct-mapped ones, so the replay kernels' LRU stacks -- C
#: and scalar -- are covered too.
CNATIVE_GEOMETRIES = GEOMETRIES + [
    ("8KB/4way", CacheGeometry(size=8192, line_size=32, associativity=4)),
    ("64KB/2way", CacheGeometry(size=65536, line_size=32, associativity=2)),
    ("8KB/full", CacheGeometry(size=8192, line_size=32, associativity=0)),
]

needs_cc = pytest.mark.skipif(
    not ckernel.kernels_available(), reason="no C compiler available",
)


#: Dual-issue machines beyond the baseline matrix.
DUAL_EXTRAS = [
    ("perfect", replace(baseline_config(), perfect_cache=True)),
    ("mc=0", baseline_config(blocking_cache())),
    ("mc=0+wma", baseline_config(blocking_cache(write_allocate=True))),
]


class TestCnativeEquivalence:
    """The compiled-C replay kernels under the same contract.

    The full matrix -- every baseline policy at every geometry corner,
    direct-mapped and associative, both issue widths -- run in the C
    kernel and compared bit-identically against the scalar replay (the
    same cell without a compiler) or the reference interpreter.
    Dual-issue cells run in the C dual-issue driver, blocking and
    perfect caches included; out-of-envelope cells (a finite write
    buffer) exercise the transparent fallback.
    """

    @needs_cc
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("geo_label,geometry", CNATIVE_GEOMETRIES,
                             ids=[label for label, _ in CNATIVE_GEOMETRIES])
    def test_cnative_matches_fused(self, label, policy, geo_label, geometry):
        workload = get_benchmark("eqntott")
        config = replace(
            baseline_config().with_policy(policy), geometry=geometry,
        )
        cnative = simulate(workload, config, load_latency=10, scale=0.1)
        with compiler_hidden():
            fused = simulate(workload, config, load_latency=10, scale=0.1)
        assert cnative == fused

    @needs_cc
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("issue_width", [1, 2])
    def test_cnative_matches_reference_engine(self, label, policy,
                                              issue_width):
        # Strongest cross-check for the C tier: against the
        # unoptimized cpu/reference.py loops, which share no code with
        # the stream pass, the replay kernels, or the C kernel.
        workload = get_benchmark("ora")
        config = replace(baseline_config().with_policy(policy),
                         issue_width=issue_width)
        cnative = simulate(workload, config, load_latency=10, scale=0.1)
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert cnative == reference

    @needs_cc
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("geo_label,geometry", CNATIVE_GEOMETRIES,
                             ids=[label for label, _ in CNATIVE_GEOMETRIES])
    def test_dual_issue_matches_reference_engine(self, label, policy,
                                                 geo_label, geometry):
        workload = get_benchmark("eqntott")
        config = replace(baseline_config().with_policy(policy),
                         geometry=geometry, issue_width=2)
        cnative, ran = _run_counting("engine.cnative.dual_issue", workload,
                                     config)
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert cnative == reference
        assert ran == 1

    @needs_cc
    @pytest.mark.parametrize("label,config", DUAL_EXTRAS,
                             ids=[label for label, _ in DUAL_EXTRAS])
    @pytest.mark.parametrize("name", ["tomcatv", "compress"])
    def test_dual_issue_corner_machines_match_reference(self, label, config,
                                                        name):
        # The perfect cache (fig19's IPC baseline) and both blocking
        # caches are runtime flags of the driver, not families.
        workload = get_benchmark(name)
        config = replace(config, issue_width=2)
        cnative, ran = _run_counting("engine.cnative.dual_issue", workload,
                                     config)
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert cnative == reference
        assert ran == 1

    def test_dual_issue_finite_write_buffer_falls_back(self):
        # The C lanes model only the ideal write buffer.
        workload = get_benchmark("compress")
        config = replace(baseline_config(mc(1)), issue_width=2,
                         write_buffer_depth=4)
        out, policy = _run_counting("engine.cnative.fallback.policy",
                                    workload, config)
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert out == reference
        assert policy == 1

    @needs_cc
    @pytest.mark.parametrize("geometry", [
        CacheGeometry(size=65536, line_size=32, associativity=1),
        CacheGeometry(size=8192, line_size=32, associativity=0),
    ], ids=["64KB/32B", "8KB/full"])
    def test_cnative_store_counters_on_store_heavy_model(self, geometry):
        # compress is the store-heaviest model.  At the direct-mapped
        # 64 KB corner its write-around stores split into inline hits
        # and misses; at the fully-associative corner they churn the
        # LRU stacks.  Both run inside the C kernel.
        workload = get_benchmark("compress")
        config = replace(baseline_config().with_policy(no_restrict()),
                         geometry=geometry)
        cnative = simulate(workload, config, load_latency=10, scale=0.2)
        with compiler_hidden():
            fused = simulate(workload, config, load_latency=10, scale=0.2)
        assert cnative == fused

    @needs_cc
    def test_cnative_kernels_cached_per_tier(self):
        # The C kernel's callable is cached under a distinct key on the
        # stream, never aliasing the scalar one bound without a
        # compiler.
        workload = get_benchmark("eqntott")
        assoc = CacheGeometry(size=8192, line_size=32, associativity=4)
        config = replace(baseline_config().with_policy(mc(1)),
                         geometry=assoc)
        with compiler_hidden():
            simulate(workload, config, load_latency=10, scale=0.1)
        simulate(workload, config, load_latency=10, scale=0.1)
        stream = stream_mod.event_stream(workload, 10, 0.1, 32)
        tiers = {key[0] if isinstance(key[0], str) else "scalar"
                 for key in stream._replay_fns}
        assert tiers == {"cnative", "scalar"}
        clear_caches()


def _run_counting(name, workload, config):
    """Simulate one cell; return the result and how far ``name`` moved."""
    try:
        telemetry.set_enabled(True)
        before = telemetry.counter(name).value
        result = simulate(workload, config, load_latency=10, scale=0.1)
        return result, telemetry.counter(name).value - before
    finally:
        telemetry.set_enabled(None)


class TestScalarFallbackEquivalence:
    """The scalar replay and reference loop when no C kernel can be had.

    Every replayable or dual-issue cell is routed to the C kernels
    first.  With no compiler, or with a build that fails, it must
    degrade to the scalar replay (or the reference dual-issue loop) --
    counted under the matching fallback cause -- and still equal the
    reference interpreter bit for bit.  The compiler is forced away
    rather than required, so these run on any host.
    """

    @pytest.fixture
    def failing_build(self, monkeypatch):
        def refuse():
            raise ckernel.KernelBuildError("forced build failure")

        monkeypatch.setattr(ckernel, "kernels_available", lambda: True)
        monkeypatch.setattr(ckernel, "compile_kernel_so", refuse)
        ckernel.reset_probe()
        clear_caches()
        yield
        ckernel.reset_probe()
        clear_caches()

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("geo_label,geometry", CNATIVE_GEOMETRIES,
                             ids=[label for label, _ in CNATIVE_GEOMETRIES])
    def test_no_compiler_matches_reference(self, no_compiler, label,
                                           policy, geo_label, geometry):
        workload = get_benchmark("eqntott")
        config = replace(
            baseline_config().with_policy(policy), geometry=geometry,
        )
        degraded, nocc = _run_counting("engine.cnative.fallback.nocc",
                                       workload, config)
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert degraded == reference
        # Blocking cells take the closed form and never ask for C.
        assert nocc == (0 if policy.blocking else 1)

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    def test_failed_build_matches_reference(self, failing_build, label,
                                            policy):
        workload = get_benchmark("ora")
        config = baseline_config().with_policy(policy)
        degraded, build = _run_counting("engine.cnative.fallback.build",
                                        workload, config)
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert degraded == reference
        assert build == (0 if policy.blocking else 1)

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    def test_dual_issue_without_compiler_matches_reference(
            self, no_compiler, label, policy):
        workload = get_benchmark("xlisp")
        config = replace(baseline_config().with_policy(policy),
                         issue_width=2)
        degraded, nocc = _run_counting("engine.cnative.fallback.nocc",
                                       workload, config)
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert degraded == reference
        # Every dual-issue cell asks for C, blocking ones included.
        assert nocc == 1

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    def test_dual_issue_failed_build_matches_reference(
            self, failing_build, label, policy):
        workload = get_benchmark("xlisp")
        config = replace(baseline_config().with_policy(policy),
                         issue_width=2)
        degraded, build = _run_counting("engine.cnative.fallback.build",
                                        workload, config)
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert degraded == reference
        assert build == 1
