"""Helpers shared by several test modules."""

from __future__ import annotations

import contextlib
import os
from unittest import mock

from repro.sim.simulator import clear_caches


@contextlib.contextmanager
def compiler_hidden():
    """Run the block on the no-compiler path, as on a host without ``cc``.

    ``REPRO_CC`` naming no compiler is the forced-fallback hook: every
    C lane asks the compiler probe (memoized per ``REPRO_CC`` value)
    before it touches the kernel, so a kernel this process already
    loaded stays loaded but unused.  Streams keep the C kernels they
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
