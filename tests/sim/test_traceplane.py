"""Tests for the shared-memory trace plane and its pool integration."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.compiler.ir import KernelBuilder
from repro.core.policies import mc, no_restrict
from repro.errors import CellExecutionError
from repro.sim import traceplane
from repro.sim.config import baseline_config
from repro.sim.parallel import dispatch, shutdown_pool
from repro.sim.simulator import clear_caches, expand_workload, simulate
from repro.sim.traceplane import SEGMENT_PREFIX, TracePlane, attach_trace
from repro.workloads.patterns import Strided
from repro.workloads.spec92 import get_benchmark
from repro.workloads.workload import Workload

SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not traceplane.shm_available(), reason="no POSIX shared memory"
)


def shm_segments() -> set:
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.glob(f"{SEGMENT_PREFIX}*")}


@dataclass(frozen=True)
class PoisonPattern:
    """An address pattern whose generation always fails.

    Publication in the parent falls back (the plane swallows the
    error), and the worker's local expansion then raises -- which the
    pool must surface as a :class:`CellExecutionError` naming the cell.
    """

    def generate(self, n, rng):
        raise RuntimeError("poisoned address stream")


def make_poison_workload() -> Workload:
    builder = KernelBuilder("poison")
    stream = builder.declare_stream()
    builder.load(stream)
    return Workload(
        name="poison",
        kernel=builder.build(),
        patterns={stream: PoisonPattern()},
        iterations=64,
    )


class TestPublishAttach:
    def test_round_trip_matches_local_expansion(self):
        plane = TracePlane()
        workload = get_benchmark("ora")
        handle = plane.acquire(workload, 10, 0.05)
        assert handle is not None
        try:
            _, local = expand_workload(workload, 10, scale=0.05)
            attached = attach_trace(workload, handle)
            assert attached is not None
            assert attached.executions == local.executions
            assert len(attached.addresses) == len(local.addresses)
            for shared, own in zip(attached.addresses, local.addresses):
                if own is None:
                    assert shared is None
                else:
                    assert list(shared) == list(own)
            # simulating off the attached trace is bit-identical
            from repro.sim.simulator import install_trace

            config = baseline_config(mc(1))
            expected = simulate(workload, config, load_latency=10, scale=0.05)
            clear_caches()
            install_trace(workload, 10, attached, scale=0.05)
            assert simulate(workload, config, load_latency=10,
                            scale=0.05) == expected
        finally:
            plane.release_all()

    def test_refcounted_lifecycle(self):
        plane = TracePlane()
        workload = get_benchmark("ora")
        before = shm_segments()
        first = plane.acquire(workload, 10, 0.05)
        second = plane.acquire(workload, 10, 0.05)
        assert first is second  # same published segment, refcounted
        assert plane.live_segments() == 1
        plane.release(workload, 10, 0.05)
        assert plane.live_segments() == 1  # one reference still held
        plane.release(workload, 10, 0.05)
        assert plane.live_segments() == 0
        assert shm_segments() == before  # unlinked from /dev/shm

    def test_attach_after_unlink_falls_back(self):
        plane = TracePlane()
        workload = get_benchmark("ora")
        handle = plane.acquire(workload, 10, 0.05)
        assert handle is not None
        plane.release(workload, 10, 0.05)
        assert attach_trace(workload, handle) is None

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        plane = TracePlane()
        assert plane.acquire(get_benchmark("ora"), 10, 0.05) is None
        assert plane.live_segments() == 0

    def test_broken_workload_falls_back_to_none(self):
        plane = TracePlane()
        assert plane.acquire(make_poison_workload(), 10, 1.0) is None
        assert plane.live_segments() == 0


class TestStreamPublishAttach:
    def test_stream_round_trip_matches_local_build(self):
        from repro.cpu.replay import run_replay
        from repro.sim import stream as stream_mod

        plane = TracePlane()
        workload = get_benchmark("ora")
        handle = plane.acquire_stream(workload, 10, 0.05, 32)
        assert handle is not None
        try:
            _, trace = expand_workload(workload, 10, scale=0.05)
            local = stream_mod.build_stream(trace, 32)
            attached = traceplane.attach_stream(trace, handle)
            assert attached is not None
            assert attached.slots == local.slots
            assert attached.executions == local.executions
            for shared, own in zip(attached.lines, local.lines):
                assert list(shared) == list(own)
            # replaying off the attached stream is bit-identical
            config = baseline_config(no_restrict())
            assert run_replay(attached, trace, config) == run_replay(
                local, trace, config)
        finally:
            plane.release_all()

    def test_stream_refcounted_lifecycle(self):
        plane = TracePlane()
        workload = get_benchmark("ora")
        before = shm_segments()
        first = plane.acquire_stream(workload, 10, 0.05, 32)
        second = plane.acquire_stream(workload, 10, 0.05, 32)
        assert first is second
        other = plane.acquire_stream(workload, 10, 0.05, 16)
        assert other is not first  # line size is part of the identity
        assert plane.live_segments() == 2
        plane.release_stream(workload, 10, 0.05, 16)
        plane.release_stream(workload, 10, 0.05, 32)
        assert plane.live_segments() == 1  # one 32B reference still held
        plane.release_stream(workload, 10, 0.05, 32)
        assert plane.live_segments() == 0
        assert shm_segments() == before

    def test_stream_attach_after_unlink_falls_back(self):
        plane = TracePlane()
        workload = get_benchmark("ora")
        handle = plane.acquire_stream(workload, 10, 0.05, 32)
        assert handle is not None
        _, trace = expand_workload(workload, 10, scale=0.05)
        plane.release_stream(workload, 10, 0.05, 32)
        assert traceplane.attach_stream(trace, handle) is None

    def test_stream_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        plane = TracePlane()
        assert plane.acquire_stream(get_benchmark("ora"), 10, 0.05, 32) is None
        assert plane.live_segments() == 0

    def test_worker_attach_used_by_pool(self):
        # A persistent pool whose workers predate the publish must
        # seed their stream caches from the plane, and the sweep must
        # stay bit-identical to serial.
        base = baseline_config()
        warm = [(get_benchmark(name), base.with_policy(no_restrict()),
                 10, 0.05) for name in ("ora", "tomcatv")]
        cells = []
        for name in ("compress", "eqntott"):
            workload = get_benchmark(name)
            for policy in (mc(1), no_restrict()):
                cells.append((workload, base.with_policy(policy), 10, 0.05))
        shutdown_pool()
        try:
            dispatch(warm, workers=2)  # fork the workers early
            pooled = dispatch(cells, workers=2)
            serial = [simulate(w, c, load_latency=latency, scale=s)
                      for w, c, latency, s in cells]
            assert pooled == serial
        finally:
            shutdown_pool()
        assert traceplane.plane().live_segments() == 0


class TestPoolIntegration:
    def test_fallback_path_matches_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        cells = [
            (get_benchmark(name), baseline_config(policy), 10, 0.05)
            for name in ("ora", "eqntott")
            for policy in (mc(1), no_restrict())
        ]
        serial = dispatch(cells, workers=1)
        clear_caches()
        try:
            assert dispatch(cells, workers=2) == serial
        finally:
            shutdown_pool()

    def test_plane_path_matches_serial_and_cleans_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        cells = [
            (get_benchmark(name), baseline_config(policy), latency, 0.05)
            for name in ("ora", "eqntott")
            for policy in (mc(1), no_restrict())
            for latency in (3, 10)
        ]
        serial = dispatch(cells, workers=1)
        clear_caches()
        before = shm_segments()
        try:
            assert dispatch(cells, workers=2) == serial
        finally:
            shutdown_pool()
        assert traceplane.plane().live_segments() == 0
        assert shm_segments() == before

    def test_worker_failure_names_the_cell_and_cleans_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        good = get_benchmark("ora")
        cells = [
            (good, baseline_config(mc(1)), 10, 0.05),
            (good, baseline_config(no_restrict()), 10, 0.05),
            (make_poison_workload(), baseline_config(mc(2)), 10, 1.0),
            (make_poison_workload(), baseline_config(mc(4)), 10, 1.0),
        ]
        before = shm_segments()
        try:
            with pytest.raises(CellExecutionError) as err:
                dispatch(cells, workers=2)
            message = str(err.value)
            assert "workload='poison'" in message
            assert "load_latency=10" in message
            assert "poisoned address stream" in message
            # the good group's published segment was still unlinked
            assert traceplane.plane().live_segments() == 0
            assert shm_segments() == before
            # and the persistent pool survived the failure
            healthy = [
                (get_benchmark(name), baseline_config(mc(1)), 10, 0.05)
                for name in ("ora", "eqntott")
            ]
            assert dispatch(healthy, workers=2) == dispatch(
                healthy, workers=1)
        finally:
            shutdown_pool()

    def test_no_segments_survive_shutdown(self):
        assert os.getpid() == traceplane._PLANE_PID
        assert traceplane.plane().live_segments() == 0
