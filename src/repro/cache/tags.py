"""Tag stores: the presence/replacement state of a cache.

The timing study never needs data values, only whether a block is
present; the tag store is therefore the whole cache.  Two
implementations are provided:

* :class:`DirectMappedTags` -- one tag per set, O(1) probe/install.
  This is the baseline configuration and the hot path, so it is kept
  branch-light.
* :class:`SetAssociativeTags` -- per-set way lists with true-LRU
  replacement; covers set-associative and (with one set) fully
  associative caches such as the Figure 10 configuration.

Both share the :class:`TagStore` interface used by the miss handler
(:mod:`repro.core.handler`) and the functional classification of the
stream pass (:mod:`repro.sim.stream`).  The replay kernels keep their
own tag arrays with the same semantics, checked against these stores
through the reference loops.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.geometry import CacheGeometry


class TagStore:
    """Interface for cache tag state keyed on block addresses."""

    geometry: CacheGeometry

    def probe(self, block: int) -> bool:
        """Return True if ``block`` is present (no LRU update)."""
        raise NotImplementedError

    def access(self, block: int) -> bool:
        """Probe and update replacement state; True on hit."""
        raise NotImplementedError

    def install(self, block: int) -> Optional[int]:
        """Install ``block``, returning the evicted block or ``None``.

        Installing a block that is already present refreshes its
        replacement state and evicts nothing.
        """
        raise NotImplementedError

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` if present; True if it was present."""
        raise NotImplementedError

    def flush(self) -> None:
        """Empty the cache."""
        raise NotImplementedError

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        raise NotImplementedError


class DirectMappedTags(TagStore):
    """Direct-mapped tag array: one block per set.

    Stored as a flat list indexed by set, holding the resident block
    address or ``None``.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        if not geometry.is_direct_mapped:
            raise ValueError("DirectMappedTags requires associativity == 1")
        self.geometry = geometry
        self._mask = geometry.num_sets - 1
        self._tags: List[Optional[int]] = [None] * geometry.num_sets

    def probe(self, block: int) -> bool:
        return self._tags[block & self._mask] == block

    # With one way per set, access and probe coincide.
    access = probe

    def install(self, block: int) -> Optional[int]:
        idx = block & self._mask
        old = self._tags[idx]
        self._tags[idx] = block
        if old == block:
            return None
        return old

    def invalidate(self, block: int) -> bool:
        idx = block & self._mask
        if self._tags[idx] == block:
            self._tags[idx] = None
            return True
        return False

    def flush(self) -> None:
        self._tags = [None] * self.geometry.num_sets

    def occupancy(self) -> int:
        return sum(1 for t in self._tags if t is not None)


class SetAssociativeTags(TagStore):
    """Set-associative tags with true-LRU replacement.

    Each set is a list of block addresses ordered most- to
    least-recently used.  Sets are small (the ways count), so list
    operations are cheap.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._ways = geometry.ways
        self._num_sets = geometry.num_sets
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]

    def _set_for(self, block: int) -> List[int]:
        return self._sets[block & (self._num_sets - 1)]

    def probe(self, block: int) -> bool:
        return block in self._set_for(block)

    def access(self, block: int) -> bool:
        ways = self._set_for(block)
        try:
            ways.remove(block)
        except ValueError:
            return False
        ways.insert(0, block)
        return True

    def install(self, block: int) -> Optional[int]:
        ways = self._set_for(block)
        if block in ways:
            ways.remove(block)
            ways.insert(0, block)
            return None
        ways.insert(0, block)
        if len(ways) > self._ways:
            return ways.pop()
        return None

    def invalidate(self, block: int) -> bool:
        ways = self._set_for(block)
        try:
            ways.remove(block)
        except ValueError:
            return False
        return True

    def flush(self) -> None:
        self._sets = [[] for _ in range(self._num_sets)]

    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)


def make_tag_store(geometry: CacheGeometry) -> TagStore:
    """Build the appropriate tag store for ``geometry``."""
    if geometry.is_direct_mapped:
        return DirectMappedTags(geometry)
    return SetAssociativeTags(geometry)
