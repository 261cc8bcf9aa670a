"""Helpers shared by several test modules."""

from __future__ import annotations

import contextlib
import os
from dataclasses import replace
from unittest import mock

from repro.sim.simulator import clear_caches
from repro.workloads.patterns import Strided


@contextlib.contextmanager
def compiler_hidden():
    """Run the block on the no-compiler path, as on a host without ``cc``.

    ``REPRO_CC`` naming no compiler is the forced-fallback hook: the
    kernel gate, ``ckernel.kernel_or_cause``, asks the compiler probe
    (memoized per ``REPRO_CC`` value) on every call, before it hands
    out the kernel, so a kernel this process already loaded stays
    loaded but unused.  Streams keep the kernel each replay machine
    bound, so the in-memory caches are dropped on entry.
    """
    with mock.patch.dict(os.environ, {"REPRO_CC": "no-such-compiler-xyz"}):
        clear_caches()
        yield


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` with a call counter; returns the call list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@contextlib.contextmanager
def selects(store):
    """The ``SELECT`` statements the store's connection runs in the block.

    The list fills as statements run; the connection is the one every
    store in the process shares, so the trace ends with the block.
    """
    conn = store._connect(create=False)
    statements = []

    def record(sql):
        if sql.startswith("SELECT"):
            statements.append(sql)

    conn.set_trace_callback(record)
    try:
        yield statements
    finally:
        conn.set_trace_callback(None)


def readdressed(workload):
    """``workload`` with its streams 256 KB apart, colliding in 8 KB.

    Same name, kernel and compile hints, other addresses: the copy
    shares the original's compiled body but never its trace.
    """
    return replace(workload, patterns={
        stream: Strided(base=0x1000000 + stream * 0x40000, stride=8,
                        region=pattern.region)
        for stream, pattern in workload.patterns.items()
    })
