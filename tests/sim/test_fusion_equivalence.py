"""Policy-sibling fusion's timing contract: bit-identical results.

The fused engine (one stream pass per group + a compiled replay
kernel or functional closed form per policy sibling,
``docs/performance.md``) must produce *exactly* the
:class:`~repro.sim.stats.SimulationResult` per-cell execution
produces -- cycles, stall accounting, and the complete ``MissStats``
including histograms -- across every baseline policy, both issue
widths, and the paper's cache-geometry corners.  ``SimulationResult``
is a frozen dataclass, so ``==`` compares every field.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import telemetry
from repro.cache.geometry import CacheGeometry
from repro.core.policies import baseline_policies, mc, no_restrict
from repro.cpu import ckernel
from repro.sim import stream as stream_mod
from repro.sim.config import baseline_config
from repro.sim.simulator import clear_caches, fusion_default, simulate
from repro.workloads.spec92 import get_benchmark

#: The two geometry corners the sweep figures pivot on.
GEOMETRIES = [
    ("8KB/16B", CacheGeometry(size=8192, line_size=16, associativity=1)),
    ("64KB/32B", CacheGeometry(size=65536, line_size=32, associativity=1)),
]

POLICIES = [(policy.name, policy) for policy in baseline_policies()]


def run_fused_and_unfused(workload, config, latency=10, scale=0.1):
    fused = simulate(workload, config, load_latency=latency, scale=scale)
    unfused = simulate(workload, config, load_latency=latency, scale=scale,
                       engine="fastpath")
    return fused, unfused


class TestPolicySiblingEquivalence:
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("geo_label,geometry", GEOMETRIES,
                             ids=[label for label, _ in GEOMETRIES])
    @pytest.mark.parametrize("issue_width", [1, 2])
    def test_fused_matches_unfused(self, label, policy, geo_label,
                                   geometry, issue_width):
        workload = get_benchmark("eqntott")
        config = replace(
            baseline_config().with_policy(policy),
            geometry=geometry, issue_width=issue_width,
        )
        fused, unfused = run_fused_and_unfused(workload, config)
        assert fused == unfused

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    def test_fused_matches_reference_engine(self, label, policy):
        # The strongest cross-check: fused vs the unoptimized
        # cpu/reference.py loops, which share no code with the stream
        # pass or the replay kernels.
        workload = get_benchmark("ora")
        config = baseline_config().with_policy(policy)
        fused = simulate(workload, config, load_latency=10, scale=0.1)
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             engine="reference")
        assert fused == reference

    def test_env_opt_out(self, monkeypatch):
        # REPRO_ENGINE=fastpath turns fusion off; results stay identical
        # because fusion never changes numbers, only how they're made.
        monkeypatch.setenv("REPRO_ENGINE", "fastpath")
        assert not fusion_default()
        workload = get_benchmark("compress")
        config = baseline_config().with_policy(no_restrict())
        off = simulate(workload, config, load_latency=10, scale=0.1)
        monkeypatch.delenv("REPRO_ENGINE")
        assert fusion_default()
        on = simulate(workload, config, load_latency=10, scale=0.1)
        assert on == off

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


#: The cnative matrix adds set-associative corners to the two
#: direct-mapped ones, so the C kernels' LRU stacks are covered too.
CNATIVE_GEOMETRIES = GEOMETRIES + [
    ("8KB/4way", CacheGeometry(size=8192, line_size=32, associativity=4)),
    ("64KB/2way", CacheGeometry(size=65536, line_size=32, associativity=2)),
    ("8KB/full", CacheGeometry(size=8192, line_size=32, associativity=0)),
]

needs_cc = pytest.mark.skipif(
    not ckernel.kernels_available(), reason="no C compiler available",
)


class TestCnativeEquivalence:
    """The compiled-C replay kernels under the same contract.

    The full matrix -- every baseline policy at every geometry corner,
    direct-mapped and associative, both issue widths -- pinned to
    ``engine="cnative"`` and compared bit-identically against the
    reference interpreter.  Out-of-
    envelope cells (blocking policies, dual issue) exercise the
    transparent fallback; the equality must hold regardless of which
    lane actually ran.
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
        cnative = simulate(workload, config, load_latency=10, scale=0.1,
                           engine="cnative")
        fused = simulate(workload, config, load_latency=10, scale=0.1,
                         engine="fused")
        assert cnative == fused

    @needs_cc
    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("issue_width", [1, 2])
    def test_cnative_matches_reference_engine(self, label, policy,
                                              issue_width):
        # Strongest cross-check for the C tier: against the
        # unoptimized cpu/reference.py loops, which share no code with
        # the stream pass, the replay kernels, or the generated C.
        workload = get_benchmark("ora")
        config = replace(baseline_config().with_policy(policy),
                         issue_width=issue_width)
        cnative = simulate(workload, config, load_latency=10, scale=0.1,
                           engine="cnative")
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             engine="reference")
        assert cnative == reference

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
        cnative = simulate(workload, config, load_latency=10, scale=0.2,
                           engine="cnative")
        fused = simulate(workload, config, load_latency=10, scale=0.2,
                         engine="fused")
        assert cnative == fused

    @needs_cc
    def test_cnative_kernels_cached_per_tier(self):
        # An associative cell pinned to cnative caches its callable
        # under the tier-distinct key, never aliasing the scalar one.
        workload = get_benchmark("eqntott")
        assoc = CacheGeometry(size=8192, line_size=32, associativity=4)
        clear_caches()
        config = replace(baseline_config().with_policy(mc(1)),
                         geometry=assoc)
        simulate(workload, config, load_latency=10, scale=0.1,
                 engine="cnative")
        simulate(workload, config, load_latency=10, scale=0.1,
                 engine="fused")
        stream = stream_mod.event_stream(workload, 10, 0.1, 32)
        tiers = {key[0] if isinstance(key[0], str) else "scalar"
                 for key in stream._replay_fns}
        assert tiers == {"cnative", "scalar"}
        clear_caches()


def _run_counting_fallbacks(cause, workload, config):
    """Simulate under ``auto``; return the result and the ``cause`` count."""
    name = f"engine.cnative.fallback.{cause}"
    try:
        telemetry.set_enabled(True)
        before = telemetry.counter(name).value
        result = simulate(workload, config, load_latency=10, scale=0.1,
                          engine="auto")
        return result, telemetry.counter(name).value - before
    finally:
        telemetry.set_enabled(None)


class TestScalarFallbackEquivalence:
    """The scalar replay behind ``auto`` when no C kernel can be had.

    Every replayable cell is routed to the C kernel first.  With no
    compiler, or with a build that fails, it must degrade to the
    scalar replay -- counted under the matching fallback cause -- and
    still equal the reference interpreter bit for bit.  The compiler
    is forced away rather than required, so these run on any host.
    """

    @pytest.fixture
    def no_compiler(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "no-such-compiler-xyz")
        ckernel.reset_probe()
        # Streams cache bound C kernels; drop them so nothing bound
        # by an earlier test bypasses the probe.
        clear_caches()
        yield
        ckernel.reset_probe()
        clear_caches()

    @pytest.fixture
    def failing_build(self, monkeypatch):
        def refuse(family):
            raise ckernel.KernelBuildError(
                f"forced failure for family {family.label()}")

        monkeypatch.setattr(ckernel, "kernels_available", lambda: True)
        monkeypatch.setattr(ckernel, "compile_kernel_so", refuse)
        ckernel.reset_probe()
        clear_caches()
        yield
        ckernel.reset_probe()
        clear_caches()

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    @pytest.mark.parametrize("geo_label,geometry", GEOMETRIES,
                             ids=[label for label, _ in GEOMETRIES])
    def test_no_compiler_matches_reference(self, no_compiler, label,
                                           policy, geo_label, geometry):
        workload = get_benchmark("eqntott")
        config = replace(
            baseline_config().with_policy(policy), geometry=geometry,
        )
        degraded, nocc = _run_counting_fallbacks("nocc", workload, config)
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             engine="reference")
        assert degraded == reference
        # Blocking cells take the closed form and never ask for C.
        assert nocc == (0 if policy.blocking else 1)

    @pytest.mark.parametrize("label,policy", POLICIES,
                             ids=[label for label, _ in POLICIES])
    def test_failed_build_matches_reference(self, failing_build, label,
                                            policy):
        workload = get_benchmark("ora")
        config = baseline_config().with_policy(policy)
        degraded, build = _run_counting_fallbacks("build", workload, config)
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             engine="reference")
        assert degraded == reference
        assert build == (0 if policy.blocking else 1)
