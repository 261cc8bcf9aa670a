"""Distributed sweep fabric: socket workers and the shard coordinator.

The planner already reduces every sweep to a flat, content-addressed
cell list, and cells are deterministic and idempotent, which makes
scale-out almost embarrassing: the fabric just has to move cells to
other Python processes and move :class:`SimulationResult` objects
back.  This module supplies the three pieces:

:class:`WorkerServer`
    ``python -m repro worker --host H --port P``.  A TCP server that
    executes shards.  Each connection starts with a ``hello``
    handshake carrying the worker's wire schema, ``ENGINE_VERSION``
    and fabric protocol number; a coordinator running a different
    timing-model revision is refused outright (mixing engine versions
    would poison the shared result store).  Shards execute with the
    worker-local compile/trace caches, so a shard's cache-affine cells
    amortize expansion exactly like pool groups do.

:class:`FabricCoordinator`
    Partitions a cell list with the same stream-affinity grouping the
    process pool uses, fans the shards out over the connected workers
    (one feeder thread per worker), and reassembles ordered results.
    Failure semantics are *at-least-once*: when a worker's socket
    dies, its in-flight shard goes back on the queue for the
    surviving workers (``fabric.reassigned``); if every worker is
    lost, the remainder runs locally inline (``fabric.local_cells``)
    unless local fallback is disabled, in which case
    :class:`~repro.errors.FabricError` is raised.  A shard that
    *executes* but raises remotely is a real cell failure and is
    re-raised, never retried.  Workers return their telemetry
    snapshot diff with each shard and the coordinator merges it, so a
    distributed sweep's metrics still sum to the serial run's.

:class:`SocketBackend`
    The ``socket`` entry in the dispatch-backend registry
    (:mod:`repro.sim.parallel`).  Worker addresses come from
    ``REPRO_FABRIC_WORKERS`` (``host:port,host:port,...``).

Result-store backfill is deliberately *not* done here: the planner
stores every dispatched result after :func:`repro.sim.parallel.dispatch`
returns, whatever the backend, so a fabric sweep warms the
coordinator's store exactly like a local one.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.errors import CellExecutionError, FabricError, WireError
from repro.sim import wire
from repro.sim.parallel import (
    BackendCapabilities,
    Cell,
    DispatchBackend,
    _group_cells,
    _run_cell,
    register_backend,
)
from repro.sim.stats import SimulationResult

#: Fabric message-protocol revision, checked during the handshake
#: alongside the wire schema and engine version.
PROTOCOL = 1

#: Accept/connect timeout and per-shard response timeout (seconds).
#: Shards are small (tens of cells) but a cold worker compiles and
#: expands traces, so the response timeout is generous.
CONNECT_TIMEOUT = 10.0
SHARD_TIMEOUT = 600.0

#: Shards kept in flight per worker connection.  Depth 2 hides the
#: coordinator's encode/decode and the loopback round trip behind the
#: worker's simulation time without hoarding work on a slow worker.
PIPELINE_DEPTH = 2


def _hello_payload() -> Dict[str, object]:
    return {
        "kind": "hello",
        "protocol": PROTOCOL,
        "schema": wire.WIRE_SCHEMA,
        "engine": wire._engine_version(),
        "pid": os.getpid(),
    }


def _check_hello(payload: Dict[str, object], who: str) -> None:
    """Refuse a peer whose protocol/schema/engine doesn't match ours."""
    if not isinstance(payload, dict) or payload.get("kind") != "hello":
        raise FabricError(f"{who} did not open with a hello message")
    ours = _hello_payload()
    for key in ("protocol", "schema", "engine"):
        if payload.get(key) != ours[key]:
            raise FabricError(
                f"{who} {key} mismatch: local {ours[key]!r}, "
                f"peer {payload.get(key)!r}; refusing to exchange cells"
            )


def parse_worker_addresses(spec: str) -> List[Tuple[str, int]]:
    """Parse ``host:port,host:port`` (the ``REPRO_FABRIC_WORKERS`` form)."""
    addresses: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise FabricError(
                f"bad worker address {part!r}; expected host:port"
            )
        try:
            addresses.append((host, int(port)))
        except ValueError:
            raise FabricError(
                f"bad worker port in {part!r}; expected host:port"
            ) from None
    if not addresses:
        raise FabricError("no worker addresses given")
    return addresses


# -- worker side ---------------------------------------------------------------


class WorkerServer:
    """A socket worker: executes shards for one coordinator at a time.

    Connections are handled in daemon threads so a wedged coordinator
    cannot block the accept loop; shard execution within a connection
    is sequential, which keeps the worker-local caches coherent and
    the memory footprint at one trace at a time.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.create_server((host, port))
        # A blocked accept() does not notice close() from another
        # thread on Linux, so the accept loop polls: wake every 250ms
        # to check the closed flag.  Accepted sockets are unaffected
        # (accept() always returns blocking sockets).
        self._sock.settimeout(0.25)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closed = threading.Event()
        self._conns: set = set()
        self._conns_lock = threading.Lock()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Accept coordinators until :meth:`close` (blocking)."""
        while not self._closed.is_set():
            try:
                conn, _peer = self._sock.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True)
            thread.start()

    def close(self) -> None:
        """Stop accepting and sever live connections (simulated death).

        Closing in-flight connections too makes this equivalent, from
        a coordinator's point of view, to the worker process being
        killed -- which is exactly what the reassignment tests need.
        """
        self._closed.set()
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def _serve_connection(self, conn: socket.socket) -> None:
        with self._conns_lock:
            self._conns.add(conn)
        # Shard frames are small and strictly request/response; Nagle
        # delays would stack ~40ms per round trip.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        fh = conn.makefile("rwb")
        try:
            wire.send_frame(fh, _hello_payload())
            hello = wire.recv_frame(fh)
            if hello is None:
                return
            try:
                _check_hello(hello, "coordinator")
            except FabricError as exc:
                wire.send_frame(fh, {"kind": "error", "id": None,
                                     "fatal": True, "message": str(exc)})
                return
            while True:
                message = wire.recv_frame(fh)
                if message is None:
                    return
                kind = message.get("kind")
                if kind == "ping":
                    wire.send_frame(fh, {"kind": "pong"})
                elif kind == "shard":
                    wire.send_frame(fh, self._execute(message))
                else:
                    wire.send_frame(fh, {
                        "kind": "error", "id": message.get("id"),
                        "fatal": True,
                        "message": f"unknown message kind {kind!r}",
                    })
                    return
        except (WireError, OSError):
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                fh.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def _execute(self, message: Dict[str, object]) -> Dict[str, object]:
        shard_id = message.get("id")
        try:
            cells = wire.cells_from_wire(message["cells"])
        except (KeyError, WireError) as exc:
            return {"kind": "error", "id": shard_id, "fatal": True,
                    "message": f"undecodable shard: {exc}"}
        telemetry_on = telemetry.enabled()
        before = telemetry.snapshot() if telemetry_on else None
        try:
            results = [_run_cell(cell) for cell in cells]
        except Exception as exc:  # noqa: BLE001 - shipped to coordinator
            return {"kind": "error", "id": shard_id, "fatal": False,
                    "message": f"{type(exc).__name__}: {exc}"}
        delta = None
        if telemetry_on:
            telemetry.counter("fabric.worker.shards").inc()
            telemetry.counter("fabric.worker.cells").inc(len(cells))
            delta = telemetry.snapshot_diff(before, telemetry.snapshot())
        return {"kind": "result", "id": shard_id,
                "results": wire.results_to_wire(results),
                "telemetry": delta}


def run_worker(host: str = "127.0.0.1", port: int = 0) -> None:
    """``python -m repro worker`` entry: announce the address and serve.

    The ``listening on host:port`` line (flushed) is the discovery
    contract for port-0 workers: smoke scripts and the CI fabric step
    read it to learn the kernel-assigned port.
    """
    server = WorkerServer(host=host, port=port)
    print(f"listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()


# -- coordinator side ----------------------------------------------------------


@dataclass
class FabricReport:
    """What a coordinator run actually did, for benchmarks and smoke."""

    workers: int = 0
    shards: int = 0
    cells: int = 0
    reassigned: int = 0
    lost_workers: int = 0
    local_cells: int = 0
    worker_shards: Dict[str, int] = field(default_factory=dict)


class _Shard:
    __slots__ = ("shard_id", "indices", "cells", "attempts")

    def __init__(self, shard_id: int, indices: List[int],
                 cells: List[Cell]) -> None:
        self.shard_id = shard_id
        self.indices = indices
        self.cells = cells
        self.attempts = 0


class FabricCoordinator:
    """Fan a cell list out over socket workers and reassemble results.

    ``addresses`` are ``(host, port)`` pairs of live
    :class:`WorkerServer` instances.  ``max_group`` caps shard size
    (defaulting to the pool's balance heuristic); ``on_shard_done``
    is a test/smoke hook called with each completed :class:`_Shard`
    as its remote result lands -- the kill-a-worker smoke uses it to
    time the kill deterministically.  Note that dispatch is
    pipelined (:data:`PIPELINE_DEPTH`), so by the time the hook
    fires the worker may already hold its next shard; a worker
    killed from the hook reassigns everything it still held.
    """

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        *,
        max_group: Optional[int] = None,
        allow_local_fallback: bool = True,
        on_shard_done=None,
    ) -> None:
        if not addresses:
            raise FabricError("fabric coordinator needs at least one worker")
        self._addresses = list(addresses)
        self._max_group = max_group
        self._allow_local_fallback = allow_local_fallback
        self._on_shard_done = on_shard_done
        self.report = FabricReport()

    def run(self, cells: Sequence[Cell]) -> List[SimulationResult]:
        cells = list(cells)
        if not cells:
            return []
        if self._max_group is not None:
            max_group = self._max_group
        else:
            workers = max(len(self._addresses), 1)
            max_group = max(4, -(-len(cells) // (workers * 4)))
        groups = _group_cells(cells, max_group)
        shards: "queue.Queue[Optional[_Shard]]" = queue.Queue()
        for shard_id, (workload, load_latency, scale, members) in enumerate(
                groups):
            indices = [index for index, _config in members]
            shard_cells = [
                (workload, config, load_latency, scale)
                for _index, config in members
            ]
            shards.put(_Shard(shard_id, indices, shard_cells))

        report = self.report = FabricReport(
            workers=len(self._addresses), shards=len(groups),
            cells=len(cells))
        results: List[Optional[SimulationResult]] = [None] * len(cells)
        lock = threading.Lock()
        state = {
            "remaining": len(groups),
            "failure": None,        # remote execution error: fatal
            "live_workers": 0,
        }
        done = threading.Event()
        telemetry_on = telemetry.enabled()

        def finish_shard(shard: _Shard,
                         shard_results: List[SimulationResult],
                         delta, address: str) -> None:
            with lock:
                for index, result in zip(shard.indices, shard_results):
                    results[index] = result
                if telemetry_on and delta is not None:
                    telemetry.merge(delta)
                report.worker_shards[address] = (
                    report.worker_shards.get(address, 0) + 1)
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    done.set()
            if self._on_shard_done is not None:
                self._on_shard_done(shard)

        def fail(exc: Exception) -> None:
            with lock:
                if state["failure"] is None:
                    state["failure"] = exc
                done.set()

        def worker_loop(host: str, port: int) -> None:
            address = f"{host}:{port}"
            fh = None
            conn = None
            shard: Optional[_Shard] = None
            inflight: Deque[_Shard] = deque()
            try:
                conn = socket.create_connection((host, port),
                                                timeout=CONNECT_TIMEOUT)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(SHARD_TIMEOUT)
                fh = conn.makefile("rwb")
                hello = wire.recv_frame(fh)
                if hello is None:
                    raise FabricError(f"worker {address} closed during hello")
                _check_hello(hello, f"worker {address}")
                wire.send_frame(fh, _hello_payload())
                with lock:
                    state["live_workers"] += 1
                # Pipelined dispatch: keep up to PIPELINE_DEPTH shards
                # in flight so the worker's next shard is already in
                # its socket buffer while the coordinator decodes the
                # previous reply.  The worker answers frames in FIFO
                # order, so replies match ``inflight`` front to back.
                while not done.is_set():
                    while len(inflight) < PIPELINE_DEPTH:
                        try:
                            nxt = (shards.get_nowait() if inflight
                                   else shards.get(timeout=0.05))
                        except queue.Empty:
                            break
                        nxt.attempts += 1
                        # In flight before the send: a send to a worker
                        # that just died raises, and the loss handler
                        # below must put this shard back on the queue.
                        inflight.append(nxt)
                        wire.send_frame(fh, {
                            "kind": "shard", "id": nxt.shard_id,
                            "cells": wire.cells_to_wire(nxt.cells),
                        })
                    if not inflight:
                        continue
                    reply = wire.recv_frame(fh)
                    shard = inflight.popleft()
                    if reply is None:
                        raise FabricError(
                            f"worker {address} vanished mid-shard")
                    kind = reply.get("kind")
                    if kind == "result":
                        shard_results = wire.results_from_wire(
                            reply["results"])
                        if len(shard_results) != len(shard.indices):
                            raise FabricError(
                                f"worker {address} returned "
                                f"{len(shard_results)} results for a "
                                f"{len(shard.indices)}-cell shard")
                        finished, shard = shard, None
                        finish_shard(finished, shard_results,
                                     reply.get("telemetry"), address)
                    elif kind == "error":
                        message = reply.get("message", "unknown error")
                        fail(CellExecutionError(
                            f"fabric shard failed on worker {address}: "
                            f"{message}"))
                        return
                    else:
                        raise FabricError(
                            f"worker {address} sent unexpected "
                            f"{kind!r} reply")
            except (OSError, WireError, FabricError):
                # Transport-level loss: unanswered shards (popped and
                # still-queued alike) go back on the queue for the
                # survivors.  Execution errors were handled above and
                # never land here.
                with lock:
                    report.lost_workers += 1
                    if telemetry_on:
                        telemetry.counter("fabric.worker_lost").inc()
                    orphans = ([shard] if shard is not None else [])
                    orphans.extend(inflight)
                    inflight.clear()
                    shard = None
                    for orphan in orphans:
                        report.reassigned += 1
                        if telemetry_on:
                            telemetry.counter("fabric.reassigned").inc()
                        shards.put(orphan)
            finally:
                with lock:
                    if state["live_workers"] > 0:
                        state["live_workers"] -= 1
                for closable in (fh, conn):
                    if closable is not None:
                        try:
                            closable.close()
                        except OSError:
                            pass

        threads = [
            threading.Thread(target=worker_loop, args=(host, port),
                             daemon=True)
            for host, port in self._addresses
        ]
        for thread in threads:
            thread.start()

        # Wait for completion, a fatal failure, or total worker loss.
        while not done.is_set():
            if all(not thread.is_alive() for thread in threads):
                break
            done.wait(timeout=0.05)
        for thread in threads:
            thread.join(timeout=CONNECT_TIMEOUT)

        if state["failure"] is not None:
            raise state["failure"]

        if state["remaining"] > 0:
            # Every worker is gone with shards outstanding.
            leftovers: List[_Shard] = []
            while True:
                try:
                    item = shards.get_nowait()
                except queue.Empty:
                    break
                if item is not None:
                    leftovers.append(item)
            missing = sum(len(s.indices) for s in leftovers)
            if not self._allow_local_fallback:
                raise FabricError(
                    f"all {len(self._addresses)} fabric workers lost with "
                    f"{state['remaining']} shards outstanding")
            for shard in leftovers:
                for index, cell in zip(shard.indices, shard.cells):
                    results[index] = _run_cell(cell)
                with lock:
                    state["remaining"] -= 1
            report.local_cells += missing
            if telemetry_on:
                telemetry.counter("fabric.local_cells").inc(missing)

        holes = [i for i, result in enumerate(results) if result is None]
        if holes:
            raise FabricError(
                f"fabric dispatch lost {len(holes)} cells "
                f"(first missing index {holes[0]}); this is a bug")
        if telemetry_on:
            m = telemetry.metrics()
            m.counter("fabric.dispatches").inc()
            m.counter("fabric.shards").inc(report.shards)
            m.counter("fabric.cells").inc(report.cells)
        return results  # type: ignore[return-value]


# -- the socket backend --------------------------------------------------------


def worker_addresses_from_env() -> List[Tuple[str, int]]:
    """The ``REPRO_FABRIC_WORKERS`` addresses, or a clear error."""
    spec = os.environ.get("REPRO_FABRIC_WORKERS", "").strip()
    if not spec:
        raise FabricError(
            "the socket backend needs REPRO_FABRIC_WORKERS="
            "host:port[,host:port...] pointing at running "
            "`python -m repro worker` processes"
        )
    return parse_worker_addresses(spec)


class SocketBackend(DispatchBackend):
    """Dispatch over the TCP fabric to ``python -m repro worker`` peers."""

    name = "socket"
    description = ("TCP fabric to `python -m repro worker` peers "
                   "(REPRO_FABRIC_WORKERS)")
    capabilities = BackendCapabilities(remote=True)

    def __init__(self) -> None:
        self._dispatches = 0
        self._cells = 0
        self._reassigned = 0
        self._lost_workers = 0
        self._last_report: Optional[FabricReport] = None

    def submit(self, cells, workers=None, reuse_pool=None, trace_plane=None):
        addresses = worker_addresses_from_env()
        if workers is not None:
            addresses = addresses[:max(1, workers)]
        coordinator = FabricCoordinator(addresses)
        started = time.perf_counter()
        results = coordinator.run(cells)
        self._dispatches += 1
        self._cells += len(cells)
        self._reassigned += coordinator.report.reassigned
        self._lost_workers += coordinator.report.lost_workers
        self._last_report = coordinator.report
        if telemetry.enabled():
            telemetry.histogram("fabric.dispatch_seconds").observe(
                time.perf_counter() - started)
        return results

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "dispatches": self._dispatches,
            "cells": self._cells,
            "reassigned": self._reassigned,
            "lost_workers": self._lost_workers,
            "workers_env": os.environ.get("REPRO_FABRIC_WORKERS", ""),
        }
        if self._last_report is not None:
            stats["last_shards"] = self._last_report.shards
            stats["last_workers"] = self._last_report.workers
        return stats


register_backend(SocketBackend())
