"""The compiled-C replay tier: kernel cache, fallback, telemetry.

Equivalence across the policy/geometry matrix lives in
``tests/sim/test_fusion_equivalence.py`` and the hypothesis property
test; this module covers the machinery around the kernels -- the
content-addressed disk cache (hits, digest invalidation, gc), the
forced no-compiler degradation the compiler-less CI job relies on,
and the ``engine.cnative.*`` counters.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import telemetry
from repro.cache.geometry import CacheGeometry
from repro.core.policies import mc
from repro.cpu import ckernel
from repro.sim.config import baseline_config
from repro.sim.simulator import clear_caches, simulate
from repro.workloads.spec92 import get_benchmark

needs_cc = pytest.mark.skipif(
    not ckernel.kernels_available(), reason="no C compiler available",
)

ASSOC = CacheGeometry(size=8192, line_size=32, associativity=4)


@pytest.fixture
def kernel_dir(tmp_path, monkeypatch):
    """An isolated kernel cache; memoized state reset on both sides."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    ckernel.reset_probe()
    yield tmp_path / ckernel.KERNEL_DIR_NAME
    ckernel.reset_probe()


def _counter(name):
    return telemetry.counter(name).value


class TestKernelDiskCache:
    @needs_cc
    def test_first_build_then_disk_hit(self, kernel_dir):
        family = ckernel.family_of(replace(baseline_config(mc(1)),
                                           geometry=ASSOC))
        path, secs, built = ckernel.compile_kernel_so(family)
        assert built and path.exists() and secs > 0
        again, secs, built = ckernel.compile_kernel_so(family)
        assert again == path and not built and secs == 0.0

    @needs_cc
    def test_digest_keys_the_entry(self, kernel_dir):
        # Two families never collide; the digest folds in the family,
        # the generated source, the schema, and the engine version.
        dm = ckernel.family_of(baseline_config(mc(1)))
        assoc = ckernel.family_of(replace(baseline_config(mc(1)),
                                          geometry=ASSOC))
        p1, _, _ = ckernel.compile_kernel_so(dm)
        p2, _, _ = ckernel.compile_kernel_so(assoc)
        assert p1 != p2
        assert len(list(kernel_dir.glob("*.so"))) == 2

    @needs_cc
    def test_gc_keeps_fresh_entries(self, kernel_dir):
        family = ckernel.family_of(baseline_config(mc(1)))
        path, _, _ = ckernel.compile_kernel_so(family)
        assert ckernel.gc_kernel_cache() == 0
        assert path.exists()

    @needs_cc
    def test_gc_prunes_stale_engine_version(self, kernel_dir):
        # A kernel built by a different engine version must not
        # survive gc: its numbers are not this engine's numbers.
        family = ckernel.family_of(baseline_config(mc(1)))
        path, _, _ = ckernel.compile_kernel_so(family)
        meta_path = path.with_suffix(".json")
        meta = json.loads(meta_path.read_text())
        meta["engine_version"] = "engine-0"
        meta_path.write_text(json.dumps(meta))
        assert ckernel.gc_kernel_cache() == 1
        assert not path.exists()
        assert not meta_path.exists()

    @needs_cc
    def test_gc_prunes_orphaned_so(self, kernel_dir):
        # A .json whose source digest no longer matches (here: garbage
        # metadata) takes its .so with it.
        family = ckernel.family_of(baseline_config(mc(1)))
        path, _, _ = ckernel.compile_kernel_so(family)
        path.with_suffix(".json").write_text("not json")
        assert ckernel.gc_kernel_cache() == 1
        assert not path.exists()

    @needs_cc
    def test_flags_key_the_entry(self, kernel_dir, monkeypatch):
        # A flag change is a new kernel: it misses the cache, rebuilds,
        # records its flags, and gc reaps the entry built without them.
        family = ckernel.family_of(baseline_config(mc(1)))
        source = ckernel.generate_source(family)
        old, _, _ = ckernel.compile_kernel_so(family)
        digest = ckernel.kernel_digest(family, source)
        flags = ("-O0", "-shared", "-fPIC")
        monkeypatch.setattr(ckernel, "CFLAGS", flags)
        assert ckernel.kernel_digest(family, source) != digest
        new, _, built = ckernel.compile_kernel_so(family)
        assert built and new != old
        meta = json.loads(new.with_suffix(".json").read_text())
        assert meta["cflags"] == list(flags)
        assert ckernel.gc_kernel_cache() == 1
        assert new.exists() and not old.exists()

    @needs_cc
    def test_stats_and_clear(self, kernel_dir):
        family = ckernel.family_of(baseline_config(mc(1)))
        ckernel.compile_kernel_so(family)
        stats = ckernel.kernel_cache_stats()
        assert stats["kernels"] == 1
        assert stats["bytes"] > 0
        assert stats["compiler"]
        assert ckernel.clear_kernel_cache() > 0
        assert ckernel.kernel_cache_stats()["kernels"] == 0

    @needs_cc
    def test_ensure_kernel_memoizes_per_family(self, kernel_dir):
        family = ckernel.family_of(baseline_config(mc(1)))
        kernel = ckernel.ensure_kernel(family)
        assert ckernel.ensure_kernel(family) is kernel
        assert kernel in ckernel.loaded_kernels()


class TestDualIssueDriver:
    @needs_cc
    def test_short_address_column_is_refused(self, kernel_dir):
        # The driver indexes every memory op's column by execution, so
        # a column shorter than the run must never reach the C code.
        from repro.cpu.isa import Instruction, OpClass
        from repro.cpu.replay_cnative import run_dual_issue
        from repro.errors import SimulationError
        from repro.sim.trace import ExpandedTrace

        trace = ExpandedTrace(
            body=(Instruction(OpClass.LOAD, dst=32, stream=0),),
            addresses=[[0x100]], executions=3, workload_name="short")
        config = replace(baseline_config(mc(1)), issue_width=2)
        with pytest.raises(SimulationError, match="do not cover"):
            run_dual_issue(trace, config)

    @needs_cc
    def test_ctypes_binding_runs_both_entries(self, kernel_dir,
                                              monkeypatch):
        # The stdlib binding (used when cffi is missing) loads the
        # replay and the dual-issue entry of each kernel.
        monkeypatch.setattr(ckernel, "_BINDING", ckernel._CtypesBinding())
        workload = get_benchmark("xlisp")
        for width in (1, 2):
            config = replace(baseline_config(mc(1)), geometry=ASSOC,
                             issue_width=width)
            clear_caches()
            c = simulate(workload, config, load_latency=10, scale=0.05,
                         engine="cnative")
            assert c == simulate(workload, config, load_latency=10,
                                 scale=0.05, engine="reference")
        assert [k._binding.name for k in ckernel.loaded_kernels()] == [
            "ctypes"]


class TestNoCompilerFallback:
    @pytest.fixture
    def no_compiler(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "no-such-compiler-xyz")
        ckernel.reset_probe()
        yield
        ckernel.reset_probe()

    def test_probe_and_build_refuse(self, no_compiler):
        assert ckernel.find_compiler() is None
        assert not ckernel.kernels_available()
        family = ckernel.family_of(baseline_config(mc(1)))
        with pytest.raises(ckernel.KernelBuildError, match="no C compiler"):
            ckernel.ensure_kernel(family)

    def test_simulate_degrades_bit_identically(self, no_compiler):
        # Pinning cnative without a toolchain must return the exact
        # reference numbers via the scalar replay fallback, and tag
        # the degradation under engine.cnative.fallback.nocc.
        workload = get_benchmark("eqntott")
        config = replace(baseline_config(mc(1)), geometry=ASSOC)
        try:
            telemetry.set_enabled(True)
            clear_caches()
            total = _counter("engine.cnative.fallbacks")
            nocc = _counter("engine.cnative.fallback.nocc")
            degraded = simulate(workload, config, load_latency=10,
                                scale=0.1, engine="cnative")
            assert _counter("engine.cnative.fallbacks") == total + 1
            assert _counter("engine.cnative.fallback.nocc") == nocc + 1
        finally:
            telemetry.set_enabled(None)
            clear_caches()
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             engine="reference")
        assert degraded == reference


class TestBuildFailureFallback:
    def test_failed_build_is_tried_once_per_family(self, kernel_dir,
                                                   monkeypatch):
        # A broken toolchain is probed once per kernel family: the
        # second cell of the family reuses the memoized failure, and
        # both cells degrade to the reference numbers under the build
        # cause.
        attempts = []

        def refuse(family):
            attempts.append(family)
            raise ckernel.KernelBuildError("forced build failure")

        monkeypatch.setattr(ckernel, "kernels_available", lambda: True)
        monkeypatch.setattr(ckernel, "compile_kernel_so", refuse)
        workload = get_benchmark("eqntott")
        config = baseline_config(mc(1))
        latencies = (3, 10)
        try:
            telemetry.set_enabled(True)
            clear_caches()
            build = _counter("engine.cnative.fallback.build")
            degraded = [simulate(workload, config, load_latency=latency,
                                 scale=0.1, engine="cnative")
                        for latency in latencies]
            assert _counter("engine.cnative.fallback.build") == build + 2
        finally:
            telemetry.set_enabled(None)
            clear_caches()
        assert attempts == [ckernel.family_of(config)]
        for latency, result in zip(latencies, degraded):
            assert result == simulate(workload, config,
                                      load_latency=latency, scale=0.1,
                                      engine="reference")


class TestCnativeTelemetry:
    @needs_cc
    def test_replays_counted(self):
        workload = get_benchmark("eqntott")
        config = replace(baseline_config(mc(1)), geometry=ASSOC)
        try:
            telemetry.set_enabled(True)
            clear_caches()
            before = _counter("engine.cnative.replays")
            simulate(workload, config, load_latency=10, scale=0.1,
                     engine="cnative")
            assert _counter("engine.cnative.replays") == before + 1
        finally:
            telemetry.set_enabled(None)
            clear_caches()

    @needs_cc
    def test_auto_runs_direct_mapped_cells_in_c(self, monkeypatch):
        # Under the default engine a direct-mapped cell with long
        # resident phases (eqntott, mc=1) replays in the C kernel.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        workload = get_benchmark("eqntott")
        config = baseline_config(mc(1))
        assert config.geometry.is_direct_mapped
        try:
            telemetry.set_enabled(True)
            clear_caches()
            before = _counter("engine.cnative.replays")
            simulate(workload, config, load_latency=10, scale=0.1,
                     engine="auto")
            assert _counter("engine.cnative.replays") == before + 1
        finally:
            telemetry.set_enabled(None)
            clear_caches()

    @needs_cc
    def test_policy_fallback_counted(self):
        # A finite write buffer sits outside the replay contract, so
        # the C tier declines it with the policy cause and the per-cell
        # machinery still produces the right numbers.
        workload = get_benchmark("ora")
        config = replace(baseline_config(mc(1)), write_buffer_depth=4)
        try:
            telemetry.set_enabled(True)
            clear_caches()
            policy = _counter("engine.cnative.fallback.policy")
            out = simulate(workload, config, load_latency=10, scale=0.1,
                           engine="cnative")
            counted = _counter("engine.cnative.fallback.policy")
        finally:
            telemetry.set_enabled(None)
            clear_caches()
        reference = simulate(workload, config, load_latency=10, scale=0.1,
                             engine="reference")
        assert out == reference
        assert counted == policy + 1
