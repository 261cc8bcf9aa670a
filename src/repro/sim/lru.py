"""A tiny bounded mapping with least-recently-used eviction.

Shared by the simulator's compile/trace caches and the event-stream
caches (:mod:`repro.sim.stream`); it lives in its own module so the
two can use one implementation without importing each other.  Each
cache counts its own hits and misses, whether telemetry is on or not;
the simulator's telemetry collector reads the counts' growth.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigurationError


class LRUCache:
    """Bounded key-value cache; ``put`` evicts the least recently used."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict" = OrderedDict()
        #: Lookups that found / missed an entry, never reset (``clear``
        #: keeps them).
        self.hits = 0
        self.misses = 0

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def put(self, key, value) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
