"""Functional classification: the C entry against the Python fallback.

``functional_summary`` classifies a stream on an immediate-install
cache in the C kernel (``repro_classify``) and falls back to
``_lru_functional`` without a compiler.  The two must agree on every
aggregate for every geometry and store policy; the fusion equivalence
suite checks the closed form built on them against the reference
loops.
"""

from __future__ import annotations

import gc
import random
import weakref
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.policies import mc
from repro.cpu import ckernel
from repro.cpu.replay_cnative import classify_cnative, run_cnative
from repro.errors import SimulationError
from repro.sim.config import baseline_config
from repro.sim.stream import EventStream, SlotSpec, _lru_functional
from repro.sim.trace import P_LOAD, P_STORE

needs_cc = pytest.mark.skipif(
    not ckernel.kernels_available(), reason="no C compiler available",
)

LINE = 32


def _geometry(sets: int, ways: int) -> CacheGeometry:
    """``sets`` x ``ways`` lines; one set of ``ways`` is fully associative."""
    return CacheGeometry(size=sets * ways * LINE, line_size=LINE,
                         associativity=0 if sets == 1 else ways)


#: Direct-mapped, 2-way, 4-way and fully associative, a few set counts
#: each, all small enough that drawn blocks conflict; and 16, 64 and
#: 256 ways, where a set's LRU order is a long chain.
GEOMETRIES = [
    _geometry(sets, ways)
    for sets, ways in ((1, 1), (4, 1), (16, 1), (1, 2), (4, 2), (2, 4),
                       (8, 4), (1, 4), (1, 8), (1, 16), (2, 16), (1, 64),
                       (4, 64), (1, 256))
]

#: ``(stride, base)`` of drawn block numbers ``base + stride * k``:
#: dense, sparse (multiples of 2^12 and 2^20, each in one set of every
#: geometry above) and around 2^40.
BLOCK_SPACINGS = [(1, 0), (1 << 12, 0), (1 << 20, 0), (1, (1 << 40) - 12)]


def _stream(columns, loads) -> EventStream:
    """A stream whose slot ``k`` touches ``columns[k][it]`` each execution."""
    slots = []
    n_loads = 0
    for k, load in enumerate(loads):
        slots.append(SlotSpec(kind=P_LOAD if load else P_STORE,
                              body_index=k,
                              lr_index=n_loads if load else -1,
                              pregap=0, terms=()))
        n_loads += load
    return EventStream(
        workload_name="drawn", line_size=LINE, body_len=len(loads),
        executions=len(columns[0]), n_loads=n_loads,
        n_stores=len(loads) - n_loads, slots=tuple(slots), tail_gap=0,
        tail_terms=(), lines=[array("q", column) for column in columns],
    )


@st.composite
def block_streams(draw):
    loads = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    executions = draw(st.integers(min_value=1, max_value=40))
    stride, base = draw(st.sampled_from(BLOCK_SPACINGS))
    blocks = st.lists(st.integers(min_value=0, max_value=23).map(
                          lambda k: base + stride * k),
                      min_size=executions, max_size=executions)
    return _stream([draw(blocks) for _ in loads], loads)


@needs_cc
@settings(max_examples=300, deadline=None)
@given(stream=block_streams(), geometry=st.sampled_from(GEOMETRIES),
       write_allocate=st.booleans())
def test_c_classification_equals_python(stream, geometry, write_allocate):
    assert classify_cnative(stream, geometry, write_allocate) == \
        _lru_functional(stream, geometry, write_allocate)


@needs_cc
@pytest.mark.parametrize("write_allocate", [False, True])
def test_c_classification_equals_python_under_churn(write_allocate):
    # 256 ways under 600 sparse blocks: about half the references
    # miss, and thousands of evictions rewrite the set's LRU chain and
    # delete from the block hash throughout.
    rng = random.Random(1994)
    pool = [k << 12 for k in range(600)]
    columns = [[rng.choice(pool) for _ in range(7000)] for _ in range(3)]
    stream = _stream(columns, [True, False, True])
    geometry = _geometry(1, 256)
    counts = classify_cnative(stream, geometry, write_allocate)
    assert counts == _lru_functional(stream, geometry, write_allocate)
    assert counts[4] > 5000


@needs_cc
def test_c_classification_refuses_short_line_columns():
    # The kernel reads one line per slot per execution; a column that
    # ends early must be refused before a pointer reaches C.
    stream = _stream([[0, 1, 2]], [True])
    stream.executions = 4
    with pytest.raises(SimulationError, match="do not cover"):
        classify_cnative(stream, _geometry(4, 1), False)


@needs_cc
def test_c_replay_refuses_short_line_columns():
    # The replay reads the same columns as the classification.
    stream = _stream([[0, 1, 2]], [True])
    stream.executions = 4
    config = replace(baseline_config(mc(1)), geometry=_geometry(4, 1))
    with pytest.raises(SimulationError, match="do not cover"):
        run_cnative(stream, None, config)


@needs_cc
def test_c_lanes_leave_the_stream_free_by_reference_count():
    # The stream cache frees an evicted stream by reference count.  A
    # cache entry of the C lanes that referred back to the stream
    # would hold its line columns until a cyclic collection.
    stream = _stream([[0, 1, 2], [2, 3, 4]], [True, False])
    config = replace(baseline_config(mc(1)), geometry=_geometry(2, 2))
    assert run_cnative(stream, None, config) is not None
    assert classify_cnative(stream, config.geometry, False) is not None
    freed = weakref.ref(stream)
    gc.disable()
    try:
        del stream
        assert freed() is None
    finally:
        gc.enable()


CLASSIFIERS = [
    pytest.param(classify_cnative, id="c", marks=needs_cc),
    pytest.param(_lru_functional, id="python"),
]


@pytest.mark.parametrize("classify", CLASSIFIERS)
class TestCorners:
    """Aggregates are ``(load hits, load misses, store hits, store
    misses, evictions)``."""

    @pytest.mark.parametrize("sets,ways", [(4, 1), (2, 2), (1, 4)])
    def test_first_installs_into_empty_sets_evict_nothing(
            self, classify, sets, ways):
        # Four distinct blocks fill the four lines; only a fifth block
        # in an occupied set evicts.
        stream = _stream([[0, 2, 1, 3, 4]], [True])
        geometry = _geometry(sets, ways)
        assert classify(stream, geometry, False) == (0, 5, 0, 0, 1)

    @pytest.mark.parametrize("sets,ways", [(4, 1), (2, 2), (1, 4)])
    def test_write_around_store_miss_leaves_the_line_absent(
            self, classify, sets, ways):
        # Store then load of one line: the load misses too.
        stream = _stream([[5], [5]], [False, True])
        assert classify(stream, _geometry(sets, ways), False) == \
            (0, 1, 0, 1, 0)

    @pytest.mark.parametrize("sets,ways", [(4, 1), (2, 2), (1, 4)])
    def test_write_allocate_store_miss_installs_the_line(
            self, classify, sets, ways):
        # The same pair under write-miss allocate: the load hits.
        stream = _stream([[5], [5]], [False, True])
        assert classify(stream, _geometry(sets, ways), True) == \
            (1, 0, 0, 1, 0)

    def test_hit_refreshes_lru_recency(self, classify):
        # 2-way set: 0, 1, hit 0, then 2 evicts 1 (the LRU), so 0
        # still hits and 1 misses.
        stream = _stream([[0, 1, 0, 2, 0, 1]], [True])
        assert classify(stream, _geometry(1, 2), False) == (2, 4, 0, 0, 2)
