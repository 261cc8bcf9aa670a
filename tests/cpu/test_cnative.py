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
import re
from dataclasses import replace

import pytest

from repro import telemetry
from repro.cache.geometry import CacheGeometry
from repro.cli import main
from repro.core.policies import blocking_cache, mc, with_layout
from repro.cpu import ckernel
from repro.errors import SimulationError
from repro.sim.config import baseline_config
from repro.sim.simulator import clear_caches, simulate, simulate_reference
from repro.workloads.spec92 import get_benchmark
from tests.helpers import compiler_hidden

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
        path, secs, built = ckernel.compile_kernel_so()
        assert built and path.exists() and secs > 0
        again, secs, built = ckernel.compile_kernel_so()
        assert again == path and not built and secs == 0.0

    def test_digest_names_the_entry(self, kernel_dir, monkeypatch):
        # The entry is named by a digest of the source, the flags, the
        # schema and the engine version; a change to any is a new name.
        digest = ckernel.kernel_digest()
        assert ckernel._entry_paths(digest)[1].name == \
            f"kernel-{digest[:16]}.so"
        monkeypatch.setattr(ckernel, "kernel_source",
                            lambda: "/* edited */\n")
        edited = ckernel.kernel_digest()
        monkeypatch.setattr(ckernel, "_engine_version", lambda: "engine-0")
        assert len({digest, edited, ckernel.kernel_digest()}) == 3

    def test_param_slots_match_the_kernel_enum(self):
        # The parameter block is filled by name in Python and read by
        # index in C; the two layouts must list the same slots.
        enum = re.search(r"enum \{([^}]*)\}", ckernel.kernel_source())
        assert [name.strip() for name in enum.group(1).split(",")] == [
            f"P_{slot.upper()}" for slot in ckernel.PARAM_SLOTS]

    @needs_cc
    def test_gc_keeps_fresh_entries(self, kernel_dir):
        path, _, _ = ckernel.compile_kernel_so()
        assert ckernel.gc_kernel_cache() == 0
        assert path.exists()

    @needs_cc
    def test_gc_prunes_stale_engine_version(self, kernel_dir, monkeypatch):
        # A kernel built by a different engine version must not
        # survive gc: its numbers are not this engine's numbers.
        path, _, _ = ckernel.compile_kernel_so()
        monkeypatch.setattr(ckernel, "_engine_version", lambda: "engine-0")
        assert ckernel.gc_kernel_cache() == 3
        assert list(kernel_dir.iterdir()) == []

    def test_gc_counts_every_file_it_removes(self, kernel_dir, capsys):
        # An entry of an older per-configuration cache (its .json still
        # names a family) and an orphaned .so: four files, all stale.
        kernel_dir.mkdir(parents=True)
        for suffix in (".c", ".so", ".json"):
            (kernel_dir / f"dm-s2-mm-0123456789abcdef{suffix}").write_text(
                json.dumps({"family": {"dm": True, "smode": 2}}))
        (kernel_dir / "assoc-s1-fedcba9876543210.so").write_bytes(b"\0")
        assert main(["cache", "gc"]) == 0
        assert "garbage-collected 4 stale kernel files" in \
            capsys.readouterr().out
        assert list(kernel_dir.iterdir()) == []

    @needs_cc
    def test_flags_key_the_entry(self, kernel_dir, monkeypatch):
        # A flag change is a new kernel: it misses the cache, rebuilds,
        # records its flags, and gc reaps the entry built without them.
        old, _, _ = ckernel.compile_kernel_so()
        digest = ckernel.kernel_digest()
        flags = ("-O0", "-shared", "-fPIC")
        monkeypatch.setattr(ckernel, "CFLAGS", flags)
        assert ckernel.kernel_digest() != digest
        new, _, built = ckernel.compile_kernel_so()
        assert built and new != old
        meta = json.loads(new.with_suffix(".json").read_text())
        assert meta["cflags"] == list(flags)
        assert ckernel.gc_kernel_cache() == 3
        assert new.exists() and not old.exists()

    @needs_cc
    def test_stats_and_clear(self, kernel_dir):
        ckernel.compile_kernel_so()
        stats = ckernel.kernel_cache_stats()
        assert stats["kernels"] == 1
        assert stats["bytes"] > 0
        assert stats["compiler"]
        assert ckernel.clear_kernel_cache() == 3
        assert ckernel.kernel_cache_stats()["kernels"] == 0

    @needs_cc
    def test_ensure_kernel_memoizes(self, kernel_dir):
        # One kernel per process, whatever label a caller passes back.
        kernel = ckernel.ensure_kernel()
        assert ckernel.ensure_kernel() is kernel
        assert ckernel.ensure_kernel(kernel.family) is kernel
        assert ckernel.loaded_kernels() == (kernel,)
        assert kernel.family == kernel.path.stem


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
    def test_ctypes_binding_runs_all_three_entries(self, kernel_dir):
        # The kernel loads the replay, the dual-issue and the classify
        # entry through ctypes: a replay cell, a dual-issue cell and a
        # blocking cell, whose closed form reads a summary classified
        # in C.
        workload = get_benchmark("xlisp")
        for policy, width in ((mc(1), 1), (mc(1), 2),
                              (blocking_cache(), 1)):
            config = replace(baseline_config(policy), geometry=ASSOC,
                             issue_width=width)
            clear_caches()
            c = simulate(workload, config, load_latency=10, scale=0.05)
            assert c == simulate_reference(workload, config,
                                           load_latency=10, scale=0.05)
        assert len(ckernel.loaded_kernels()) == 1


class TestPointerCache:
    @needs_cc
    def test_reloaded_kernel_reuses_cached_casts(self, kernel_dir):
        # A stream's and a trace's tables are cast once, whichever load
        # of the kernel runs on them.  A kernel loaded again must run
        # on the same casts and give the same numbers.
        from repro.core.policies import implicit
        from repro.cpu.replay_cnative import (classify_cnative,
                                              run_cnative, run_dual_issue)
        from repro.sim.stream import event_stream
        from repro.sim.simulator import expand_workload

        workload = get_benchmark("xlisp")
        _, trace = expand_workload(workload, 10, scale=0.05)
        stream = event_stream(workload, 10, 0.05, ASSOC.line_size)
        replays = [replace(baseline_config(policy), geometry=ASSOC)
                   for policy in (mc(1), implicit())]
        dual = replace(baseline_config(mc(1)), geometry=ASSOC,
                       issue_width=2)

        def run_all():
            return ([run_cnative(stream, trace, c) for c in replays]
                    + [classify_cnative(stream, ASSOC, wa)
                       for wa in (False, True)]
                    + [run_dual_issue(trace, dual)[0]])

        def casts():
            return (stream._cnative_args, stream._cnative_addrs,
                    trace._cnative_body)

        first = run_all()
        (kernel,) = ckernel.loaded_kernels()
        cast = casts()
        ckernel.reset_probe()
        stream._replay_fns.clear()  # the replays bind the new kernel
        second = run_all()
        (reloaded,) = ckernel.loaded_kernels()
        assert None not in first
        assert second == first
        assert reloaded is not kernel
        assert all(now is then for now, then in zip(casts(), cast))
        assert {m[0] for key, m in stream._replay_fns.items()
                if key[0] == "cnative"} == {reloaded}


class TestNoCompilerFallback:
    def test_probe_and_build_refuse(self, no_compiler, monkeypatch):
        # As in a fresh process: no kernel loaded, no failure memoized.
        monkeypatch.setattr(ckernel, "_KERNEL", None)
        monkeypatch.setattr(ckernel, "_BUILD_FAILURE", None)
        assert ckernel.find_compiler() is None
        assert not ckernel.kernels_available()
        with pytest.raises(ckernel.KernelBuildError, match="no C compiler"):
            ckernel.ensure_kernel()

    def test_simulate_degrades_bit_identically(self, no_compiler):
        # Without a toolchain a C-lane cell must return the exact
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
                                scale=0.1)
            assert _counter("engine.cnative.fallbacks") == total + 1
            assert _counter("engine.cnative.fallback.nocc") == nocc + 1
        finally:
            telemetry.set_enabled(None)
            clear_caches()
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert degraded == reference


class TestBuildFailureFallback:
    def test_failed_build_is_tried_once(self, kernel_dir, monkeypatch):
        # A broken toolchain is probed once per process: every later
        # cell, of any organization, reuses the memoized failure, and
        # each degrades to the reference numbers under the build cause.
        attempts = []

        def refuse():
            attempts.append(1)
            raise ckernel.KernelBuildError("forced build failure")

        monkeypatch.setattr(ckernel, "kernels_available", lambda: True)
        monkeypatch.setattr(ckernel, "compile_kernel_so", refuse)
        workload = get_benchmark("eqntott")
        cells = [(baseline_config(mc(1)), 3), (baseline_config(mc(1)), 10),
                 (replace(baseline_config(mc(1)), geometry=ASSOC), 10)]
        try:
            telemetry.set_enabled(True)
            clear_caches()
            build = _counter("engine.cnative.fallback.build")
            degraded = [simulate(workload, config, load_latency=latency,
                                 scale=0.1)
                        for config, latency in cells]
            assert _counter("engine.cnative.fallback.build") == build + 3
        finally:
            telemetry.set_enabled(None)
            clear_caches()
        assert attempts == [1]
        for (config, latency), result in zip(cells, degraded):
            assert result == simulate_reference(
                workload, config, load_latency=latency, scale=0.1)


#: 16-byte lines hold fewer bytes than the 32 sub-blocks of ``layout
#: 32x1``, a field layout the miss handler refuses.
LINE16 = CacheGeometry(size=8192, line_size=16)
OVERSPLIT = replace(baseline_config(with_layout(32, 1)), geometry=LINE16)


class TestMachineGuard:
    """The C lanes refuse exactly the machines the reference refuses."""

    @staticmethod
    def _refused(config):
        workload = get_benchmark("ora")
        with pytest.raises(SimulationError, match="more sub-blocks"):
            simulate_reference(workload, config, load_latency=10,
                               scale=0.05)
        with pytest.raises(SimulationError, match="more sub-blocks"):
            simulate(workload, config, load_latency=10, scale=0.05)

    @needs_cc
    @pytest.mark.parametrize("width", [1, 2])
    def test_compiled_lanes_refuse_the_layout(self, width):
        self._refused(replace(OVERSPLIT, issue_width=width))

    @pytest.mark.parametrize("width", [1, 2])
    def test_fallback_lanes_refuse_the_layout(self, width):
        with compiler_hidden():
            self._refused(replace(OVERSPLIT, issue_width=width))

    def test_refused_cell_stores_no_row(self):
        from repro import api
        from repro.sim.resultstore import ResultStore

        for width in (1, 2):
            with pytest.raises(SimulationError, match="more sub-blocks"):
                api.simulate("ora", scale=0.05,
                             config=replace(OVERSPLIT, issue_width=width))
        assert ResultStore.from_env().stats().entries == 0

    def test_perfect_cache_has_no_layout_to_refuse(self):
        # A perfect cache runs no miss handler, so its layout binds
        # nothing, on the dual-issue lane as on the reference loop.
        config = replace(OVERSPLIT, issue_width=2, perfect_cache=True)
        workload = get_benchmark("ora")
        assert simulate(workload, config, load_latency=10, scale=0.05) == \
            simulate_reference(workload, config, load_latency=10,
                               scale=0.05)


class TestCnativeTelemetry:
    @needs_cc
    def test_replays_counted(self):
        workload = get_benchmark("eqntott")
        config = replace(baseline_config(mc(1)), geometry=ASSOC)
        try:
            telemetry.set_enabled(True)
            clear_caches()
            before = _counter("engine.cnative.replays")
            simulate(workload, config, load_latency=10, scale=0.1)
            assert _counter("engine.cnative.replays") == before + 1
        finally:
            telemetry.set_enabled(None)
            clear_caches()

    @needs_cc
    def test_direct_mapped_cells_run_in_c(self):
        # A direct-mapped cell with long resident phases (eqntott,
        # mc=1) replays in the C kernel too.
        workload = get_benchmark("eqntott")
        config = baseline_config(mc(1))
        assert config.geometry.is_direct_mapped
        try:
            telemetry.set_enabled(True)
            clear_caches()
            before = _counter("engine.cnative.replays")
            simulate(workload, config, load_latency=10, scale=0.1)
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
            out = simulate(workload, config, load_latency=10, scale=0.1)
            counted = _counter("engine.cnative.fallback.policy")
        finally:
            telemetry.set_enabled(None)
            clear_caches()
        reference = simulate_reference(workload, config, load_latency=10,
                                       scale=0.1)
        assert out == reference
        assert counted == policy + 1
