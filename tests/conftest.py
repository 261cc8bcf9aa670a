"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import PipelinedMemory
from repro.sim.simulator import clear_caches
from tests.helpers import compiler_hidden


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Isolate compile/trace caches between tests."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    """Point the on-disk result store at a per-test directory.

    Keeps the suite hermetic: no test reads another test's (or the
    developer's) cached simulation results, and nothing is written
    into the repository tree.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(autouse=True)
def _fresh_telemetry(monkeypatch):
    """Reset the telemetry registry and disable tracing between tests."""
    from repro import telemetry

    monkeypatch.delenv(telemetry.TRACE_FILE_ENV, raising=False)
    telemetry.reset()
    telemetry.set_enabled(None)
    yield
    telemetry.reset()
    telemetry.set_enabled(None)


@pytest.fixture
def no_compiler():
    """The whole test on the no-compiler path (C lanes fall back)."""
    with compiler_hidden():
        yield


@pytest.fixture
def baseline_geometry() -> CacheGeometry:
    """The paper's baseline cache: 8KB direct mapped, 32B lines."""
    return CacheGeometry(size=8 * 1024, line_size=32, associativity=1)


@pytest.fixture
def memory16() -> PipelinedMemory:
    """The baseline pipelined memory: 16-cycle miss penalty."""
    return PipelinedMemory(miss_penalty=16)
