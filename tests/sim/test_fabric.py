"""The distributed sweep fabric: bit-identity, loss, handshakes.

These tests run :class:`WorkerServer` instances in threads of the
test process -- real TCP over loopback, no subprocesses -- so they
exercise the full wire protocol while staying fast and deterministic.
The subprocess path (actual ``python -m repro worker`` processes,
including a mid-sweep kill) is covered by ``tools/fabric_smoke.py``
in CI.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.policies import fc, mc, no_restrict
from repro.errors import FabricError
from repro.sim import fabric
from repro.sim.config import baseline_config
from repro.sim.parallel import dispatch, get_backend
from repro.workloads.spec92 import get_benchmark


def sweep_cells():
    cells = []
    for name in ("ora", "compress"):
        workload = get_benchmark(name)
        for policy in (mc(1), mc(2), fc(2), no_restrict()):
            cells.append((workload, baseline_config(policy), 10, 0.05))
    return cells


@pytest.fixture
def workers():
    servers = [fabric.WorkerServer() for _ in range(2)]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    yield servers
    for server in servers:
        server.close()


class TestCoordinator:
    def test_bit_identical_to_serial(self, workers):
        cells = sweep_cells()
        serial = dispatch(cells, backend="inline")
        coordinator = fabric.FabricCoordinator(
            [(server.host, server.port) for server in workers])
        assert coordinator.run(cells) == serial
        report = coordinator.report
        assert report.cells == len(cells)
        assert sum(report.worker_shards.values()) == report.shards

    def test_duplicate_cells_preserve_positions(self, workers):
        cells = sweep_cells()
        cells = cells + cells[:3]
        serial = dispatch(cells, backend="inline")
        coordinator = fabric.FabricCoordinator(
            [(workers[0].host, workers[0].port)])
        assert coordinator.run(cells) == serial

    def test_empty_plan(self, workers):
        coordinator = fabric.FabricCoordinator(
            [(workers[0].host, workers[0].port)])
        assert coordinator.run([]) == []

    def test_worker_killed_mid_sweep_reassigns(self, workers):
        cells = sweep_cells()
        serial = dispatch(cells, backend="inline")
        killed = threading.Event()

        def kill_one(shard):
            if not killed.is_set():
                killed.set()
                workers[0].close()

        coordinator = fabric.FabricCoordinator(
            [(server.host, server.port) for server in workers],
            max_group=1, on_shard_done=kill_one)
        assert coordinator.run(cells) == serial
        assert killed.is_set()
        assert coordinator.report.lost_workers >= 1

    def test_all_workers_dead_falls_back_locally(self, workers):
        for server in workers:
            server.close()
        time.sleep(0.3)
        cells = sweep_cells()
        serial = dispatch(cells, backend="inline")
        coordinator = fabric.FabricCoordinator(
            [(server.host, server.port) for server in workers])
        assert coordinator.run(cells) == serial
        assert coordinator.report.local_cells == len(cells)

    def test_no_fallback_raises(self, workers):
        for server in workers:
            server.close()
        time.sleep(0.3)
        coordinator = fabric.FabricCoordinator(
            [(server.host, server.port) for server in workers],
            allow_local_fallback=False)
        with pytest.raises(FabricError, match="workers lost"):
            coordinator.run(sweep_cells())

    def test_remote_execution_error_not_retried(self, workers):
        # A workload whose simulation fails raises CellExecutionError
        # (or the original) remotely; the coordinator must surface it
        # rather than reassign a poisoned shard forever.
        from repro.errors import CellExecutionError
        from repro.workloads.workload import Workload

        workload = get_benchmark("ora")
        bad = (workload, baseline_config(mc(1)), -5, 0.05)  # bad latency
        coordinator = fabric.FabricCoordinator(
            [(workers[0].host, workers[0].port)])
        with pytest.raises(CellExecutionError):
            coordinator.run([bad])

    def test_shard_whose_send_fails_is_reassigned(self, workers,
                                                  monkeypatch):
        # A worker that dies between two shards fails the coordinator's
        # next send; that shard must go back on the queue, or the sweep
        # waits for it forever.
        cells = sweep_cells()
        serial = dispatch(cells, backend="inline")
        real_send = fabric.wire.send_frame
        failed = threading.Event()

        def send_frame(fh, payload, codec=None):
            if payload.get("kind") == "shard" and not failed.is_set():
                failed.set()
                raise BrokenPipeError("worker died")
            real_send(fh, payload, codec=codec)

        monkeypatch.setattr(fabric.wire, "send_frame", send_frame)
        coordinator = fabric.FabricCoordinator(
            [(server.host, server.port) for server in workers],
            max_group=1)
        out = []
        runner = threading.Thread(
            target=lambda: out.append(coordinator.run(cells)), daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "coordinator lost the shard"
        assert out == [serial]
        assert coordinator.report.reassigned >= 1


class TestHandshake:
    # Both ends live in this process, so a monkeypatched schema would
    # change both sides at once and they would still agree; instead
    # each test plays one side of the conversation by hand.

    def test_worker_refuses_stale_coordinator(self, workers):
        import socket as socket_mod

        from repro.sim import wire

        conn = socket_mod.create_connection(
            (workers[0].host, workers[0].port), timeout=5)
        fh = conn.makefile("rwb")
        try:
            hello = wire.recv_frame(fh)
            assert hello["kind"] == "hello"
            doctored = dict(fabric._hello_payload())
            doctored["schema"] = 999
            wire.send_frame(fh, doctored)
            reply = wire.recv_frame(fh)
            assert reply["kind"] == "error"
            assert "schema mismatch" in reply["message"]
        finally:
            fh.close()
            conn.close()

    def test_coordinator_refuses_stale_worker(self):
        import socket as socket_mod

        from repro.sim import wire

        server = socket_mod.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]

        def stale_worker():
            conn, _peer = server.accept()
            fh = conn.makefile("rwb")
            doctored = dict(fabric._hello_payload())
            doctored["engine"] = "engine-from-the-future"
            wire.send_frame(fh, doctored)
            # The coordinator hangs up on the mismatch.
            wire.recv_frame(fh)
            fh.close()
            conn.close()

        thread = threading.Thread(target=stale_worker, daemon=True)
        thread.start()
        coordinator = fabric.FabricCoordinator(
            [(host, port)], allow_local_fallback=False)
        try:
            with pytest.raises(FabricError, match="workers lost"):
                coordinator.run(sweep_cells()[:1])
            assert coordinator.report.lost_workers == 1
        finally:
            server.close()


class TestSocketBackend:
    def test_dispatch_via_env(self, workers, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FABRIC_WORKERS",
            ",".join(server.address for server in workers))
        cells = sweep_cells()
        serial = dispatch(cells, backend="inline")
        assert dispatch(cells, backend="socket") == serial
        stats = get_backend("socket").stats()
        assert stats["dispatches"] >= 1
        assert stats["last_workers"] == 2

    def test_missing_env_is_a_clear_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_FABRIC_WORKERS", raising=False)
        with pytest.raises(FabricError, match="REPRO_FABRIC_WORKERS"):
            dispatch(sweep_cells()[:1], backend="socket")

    def test_address_parsing(self):
        assert fabric.parse_worker_addresses("a:1, b:2") == \
            [("a", 1), ("b", 2)]
        with pytest.raises(FabricError):
            fabric.parse_worker_addresses("no-port")
        with pytest.raises(FabricError):
            fabric.parse_worker_addresses("host:nan")
        with pytest.raises(FabricError):
            fabric.parse_worker_addresses("")


class TestPlannerIntegration:
    def test_planner_backfills_store_from_fabric(self, workers, monkeypatch):
        from repro.sim import planner
        from repro.sim.resultstore import ResultStore

        monkeypatch.setenv(
            "REPRO_FABRIC_WORKERS",
            ",".join(server.address for server in workers))
        cells = sweep_cells()
        store = ResultStore.from_env()
        results, report = planner.run_plan(cells, backend="socket")
        assert report.simulated == len(cells)
        # Second run: every cell served from the coordinator's store.
        results2, report2 = planner.run_plan(cells, backend="socket")
        assert report2.store_hits == report2.unique
        assert results2 == results
