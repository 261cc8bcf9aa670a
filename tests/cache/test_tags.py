"""Unit and property tests for the tag stores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import FULLY_ASSOCIATIVE, CacheGeometry
from repro.cache.tags import (
    DirectMappedTags,
    SetAssociativeTags,
    make_tag_store,
)


@pytest.fixture
def dm():
    return DirectMappedTags(CacheGeometry(1024, 32, 1))  # 32 sets


@pytest.fixture
def fa():
    return SetAssociativeTags(CacheGeometry(128, 32, FULLY_ASSOCIATIVE))  # 4 lines


class TestDirectMapped:
    def test_empty_probe_misses(self, dm):
        assert not dm.probe(0)

    def test_install_then_probe_hits(self, dm):
        assert dm.install(5) is None
        assert dm.probe(5)

    def test_conflicting_block_evicts(self, dm):
        dm.install(1)
        evicted = dm.install(1 + 32)  # 32 sets apart: same set
        assert evicted == 1
        assert not dm.probe(1)
        assert dm.probe(33)

    def test_reinstall_same_block_evicts_nothing(self, dm):
        dm.install(7)
        assert dm.install(7) is None

    def test_different_sets_coexist(self, dm):
        dm.install(0)
        dm.install(1)
        assert dm.probe(0) and dm.probe(1)

    def test_invalidate(self, dm):
        dm.install(3)
        assert dm.invalidate(3)
        assert not dm.probe(3)
        assert not dm.invalidate(3)

    def test_invalidate_wrong_tag_is_noop(self, dm):
        dm.install(3)
        assert not dm.invalidate(3 + 32)
        assert dm.probe(3)

    def test_flush(self, dm):
        for block in range(10):
            dm.install(block)
        dm.flush()
        assert dm.occupancy() == 0

    def test_occupancy(self, dm):
        assert dm.occupancy() == 0
        dm.install(0)
        dm.install(1)
        dm.install(32)  # evicts block 0
        assert dm.occupancy() == 2

    def test_requires_direct_mapped_geometry(self):
        with pytest.raises(ValueError):
            DirectMappedTags(CacheGeometry(1024, 32, 2))


class TestFullyAssociativeLRU:
    def test_fills_to_capacity(self, fa):
        for block in range(4):
            assert fa.install(block) is None
        assert fa.occupancy() == 4

    def test_lru_eviction_order(self, fa):
        for block in range(4):
            fa.install(block)
        evicted = fa.install(99)
        assert evicted == 0  # least recently used

    def test_access_refreshes_lru(self, fa):
        for block in range(4):
            fa.install(block)
        assert fa.access(0)  # 0 becomes MRU
        evicted = fa.install(99)
        assert evicted == 1

    def test_access_miss_returns_false(self, fa):
        assert not fa.access(42)

    def test_install_existing_refreshes(self, fa):
        for block in range(4):
            fa.install(block)
        assert fa.install(0) is None  # refresh, no eviction
        assert fa.install(99) == 1

    def test_invalidate(self, fa):
        fa.install(1)
        assert fa.invalidate(1)
        assert not fa.probe(1)

    def test_flush(self, fa):
        for block in range(4):
            fa.install(block)
        fa.flush()
        assert fa.occupancy() == 0


class TestSetAssociative:
    def test_two_way_holds_two_conflicting(self):
        tags = SetAssociativeTags(CacheGeometry(1024, 32, 2))  # 16 sets
        tags.install(0)
        tags.install(16)  # same set, second way
        assert tags.probe(0) and tags.probe(16)
        evicted = tags.install(32)  # third conflicting block
        assert evicted == 0

    def test_probe_leaves_lru_untouched(self):
        tags = SetAssociativeTags(CacheGeometry(1024, 32, 2))  # 16 sets
        tags.install(0)
        tags.install(16)  # 0 is now the LRU way of its set
        assert tags.probe(0)
        assert tags.install(32) == 0

    def test_make_tag_store_dispatch(self):
        assert isinstance(
            make_tag_store(CacheGeometry(1024, 32, 1)), DirectMappedTags
        )
        assert isinstance(
            make_tag_store(CacheGeometry(1024, 32, 2)), SetAssociativeTags
        )
        assert isinstance(
            make_tag_store(CacheGeometry(1024, 32, FULLY_ASSOCIATIVE)),
            SetAssociativeTags,
        )


class _ModelLRU:
    """Reference model: fully associative LRU as an ordered list."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.blocks = []  # MRU first

    def access(self, block: int) -> bool:
        if block in self.blocks:
            self.blocks.remove(block)
            self.blocks.insert(0, block)
            return True
        return False

    def install(self, block: int):
        if block in self.blocks:
            self.blocks.remove(block)
            self.blocks.insert(0, block)
            return None
        self.blocks.insert(0, block)
        if len(self.blocks) > self.capacity:
            return self.blocks.pop()
        return None

    def invalidate(self, block: int) -> bool:
        if block in self.blocks:
            self.blocks.remove(block)
            return True
        return False


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["access", "install", "probe"]),
                  st.integers(min_value=0, max_value=12)),
        max_size=120,
    )
)
def test_fa_lru_matches_reference_model(ops):
    """SetAssociativeTags (one set) behaves exactly like textbook LRU."""
    geometry = CacheGeometry(128, 32, FULLY_ASSOCIATIVE)  # 4 lines
    real = SetAssociativeTags(geometry)
    model = _ModelLRU(4)
    for op, block in ops:
        if op == "access":
            assert real.access(block) == model.access(block)
        elif op == "install":
            assert real.install(block) == model.install(block)
        else:
            assert real.probe(block) == (block in model.blocks)
    assert real.occupancy() == len(model.blocks)


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.integers(min_value=0, max_value=500), max_size=120))
def test_direct_mapped_holds_last_block_per_set(blocks):
    """A DM cache always holds exactly the most recent block per set."""
    geometry = CacheGeometry(1024, 32, 1)  # 32 sets
    tags = DirectMappedTags(geometry)
    last_per_set = {}
    for block in blocks:
        tags.install(block)
        last_per_set[geometry.set_of_block(block)] = block
    for block in blocks:
        expected = last_per_set[geometry.set_of_block(block)] == block
        assert tags.probe(block) == expected
    assert tags.occupancy() == len(last_per_set)


#: Random tag traffic: every operation of the interface, flush included.
_TRAFFIC = st.lists(
    st.tuples(st.sampled_from(["access", "install", "probe", "invalidate",
                               "flush"]),
              st.integers(min_value=0, max_value=40)),
    max_size=150,
)


@pytest.mark.parametrize("ways", [2, 4, FULLY_ASSOCIATIVE],
                         ids=["2way", "4way", "full"])
@settings(max_examples=60, deadline=None)
@given(ops=_TRAFFIC)
def test_set_associative_matches_per_set_model(ways, ops):
    """Each set of a multi-set store is an independent textbook LRU."""
    geometry = CacheGeometry(256, 32, ways)  # 8 lines
    real = SetAssociativeTags(geometry)
    models = {}

    def model(block):
        index = geometry.set_of_block(block)
        return models.setdefault(index, _ModelLRU(geometry.ways))

    for op, block in ops:
        if op == "access":
            assert real.access(block) == model(block).access(block)
        elif op == "install":
            assert real.install(block) == model(block).install(block)
        elif op == "invalidate":
            assert real.invalidate(block) == model(block).invalidate(block)
        elif op == "flush":
            real.flush()
            models.clear()
        else:
            assert real.probe(block) == (block in model(block).blocks)
    assert real.occupancy() == sum(len(m.blocks) for m in models.values())


@settings(max_examples=60, deadline=None)
@given(ops=_TRAFFIC)
def test_direct_mapped_matches_model_under_invalidate_and_flush(ops):
    """A DM store holds the last block installed per set, until removed."""
    geometry = CacheGeometry(256, 32, 1)  # 8 sets
    tags = DirectMappedTags(geometry)
    held = {}
    for op, block in ops:
        index = geometry.set_of_block(block)
        if op == "install":
            evicted = held.get(index)
            expected = None if evicted == block else evicted
            assert tags.install(block) == expected
            held[index] = block
        elif op == "invalidate":
            present = held.get(index) == block
            assert tags.invalidate(block) == present
            if present:
                del held[index]
        elif op == "flush":
            tags.flush()
            held.clear()
        else:  # access and probe agree on a direct-mapped store
            assert tags.probe(block) == (held.get(index) == block)
            assert tags.access(block) == (held.get(index) == block)
    assert tags.occupancy() == len(held)
