"""Tests for the content-addressed on-disk result store."""

import dataclasses
import hashlib
import json
import multiprocessing
import shutil
import sqlite3
import sys
from contextlib import closing
from dataclasses import replace

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.policies import explicit, fc, mc, no_restrict
from repro.core.stats import MissStats
from repro.sim import simulator
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.planner import compile_facts, run_plan
from repro.sim.resultstore import (
    MISS_FIELDS,
    READ_CHUNK,
    RESULT_FIELDS,
    STORE_SCHEMA,
    ResultStore,
    cell_fingerprint,
    compile_fingerprint,
    compile_key,
    config_key,
    group_key,
    result_from_row,
    result_to_row,
    workload_key,
)
from repro.sim.simulator import simulate
from repro.sim.stats import SimulationResult
from repro.workloads.patterns import stack_pattern
from repro.workloads.spec92 import BENCHMARK_ORDER, get_benchmark
from repro.workloads.workload import Workload
from tests.helpers import count_calls, readdressed, selects


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def _cell():
    return get_benchmark("ora"), baseline_config(mc(1)), 10, 0.05


def _result():
    workload, config, latency, scale = _cell()
    return simulate(workload, config, load_latency=latency, scale=scale)


def _edit(store, sql, *params):
    """Run one statement on the store's database over a second connection."""
    with closing(sqlite3.connect(store.path, isolation_level=None)) as conn:
        conn.execute(sql, params)


def _open_fresh_store(root, barrier):
    """Forked-process body: open a new store the instant the peer does."""
    barrier.wait()
    conn = ResultStore(root)._connect(create=True)
    mode = conn.execute("PRAGMA journal_mode").fetchall() if conn else None
    sys.exit(0 if mode == [("wal",)] else 1)


class TestFingerprint:
    def test_stable_across_equal_instances(self):
        w1 = get_benchmark("ora")
        w2 = replace(w1, description="renamed copy")
        config = baseline_config(mc(1))
        assert cell_fingerprint(w1, config, 10, 0.05) == \
            cell_fingerprint(w2, config, 10, 0.05)

    def test_workload_key_equal_for_replace_copies(self):
        """replicate()-style seed copies share a key only at equal seeds."""
        w = get_benchmark("tomcatv")
        assert workload_key(replace(w, seed=7)) == \
            workload_key(replace(w, seed=7))
        assert workload_key(replace(w, seed=7)) != \
            workload_key(replace(w, seed=8))

    @pytest.mark.parametrize("mutate", [
        lambda w, c, lat, s: (replace(w, seed=w.seed + 1), c, lat, s),
        lambda w, c, lat, s: (replace(w, iterations=w.iterations + 1),
                              c, lat, s),
        lambda w, c, lat, s: (w, c.with_policy(fc(2)), lat, s),
        lambda w, c, lat, s: (w, replace(c, miss_penalty=32), lat, s),
        lambda w, c, lat, s: (w, replace(c, issue_width=2), lat, s),
        lambda w, c, lat, s: (w, c, lat + 1, s),
        lambda w, c, lat, s: (w, c, lat, s * 2),
    ])
    def test_any_input_change_changes_fingerprint(self, mutate):
        cell = _cell()
        assert cell_fingerprint(*cell) != cell_fingerprint(*mutate(*cell))

    def test_engine_version_bump_changes_fingerprint(self, monkeypatch):
        cell = _cell()
        before = cell_fingerprint(*cell)
        monkeypatch.setattr(simulator, "ENGINE_VERSION", "engine-next")
        assert cell_fingerprint(*cell) != before

    def test_memoized_digest_equals_tuple_repr(self):
        """The memoized reprs spell out ``sha256(repr(key))`` bit for bit."""
        ora = get_benchmark("ora")
        base = baseline_config(mc(1))
        penalty_16 = replace(base, miss_penalty=16)
        penalty_16f = replace(base, miss_penalty=16.0)
        assert penalty_16 == penalty_16f
        cells = [
            (ora, base, 10, 0.05),
            (ora, base, 10, 1),
            (replace(ora, description="copy"), base, 10, 0.05),
            (replace(ora, seed=ora.seed + 1), base.with_policy(fc(2)), 6,
             0.5),
            (get_benchmark("tomcatv"), replace(base, issue_width=2), 1, 2.0),
            (ora, penalty_16, 10, 0.05),
            (ora, penalty_16f, 10, 0.05),
        ]
        for w, c, latency, scale in cells:
            key = (STORE_SCHEMA, simulator.ENGINE_VERSION, workload_key(w),
                   config_key(c), int(latency), repr(float(scale)))
            expected = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
            for _ in range(2):  # cold, then from the instance memo
                assert cell_fingerprint(w, c, latency, scale) == expected
        # Equal configs whose reprs differ never share a digest.
        assert cell_fingerprint(ora, penalty_16, 10, 0.05) != \
            cell_fingerprint(ora, penalty_16f, 10, 0.05)

    def test_member_memos_are_per_instance(self):
        """A config's text joins its members' memos, each per instance.

        ``with_policy`` copies reuse the policy's and the geometry's
        memoized texts; equal members whose reprs differ keep their
        own, so their configs never share a digest.
        """
        ora = get_benchmark("ora")
        base = baseline_config()
        one, one_f = mc(1), replace(mc(1), max_misses=1.0)
        assert one == one_f
        copies = [base.with_policy(policy)
                  for policy in (one, one_f, one, one_f)]
        digests = []
        for config in copies:
            key = (STORE_SCHEMA, simulator.ENGINE_VERSION, workload_key(ora),
                   config_key(config), 10, repr(0.05))
            digests.append(cell_fingerprint(ora, config, 10, 0.05))
            assert digests[-1] == hashlib.sha256(
                repr(key).encode("utf-8")).hexdigest()
        assert digests[0] == digests[2] != digests[1] == digests[3]
        # The geometry and the policy were spelled once, then reused.
        assert "_frozen_repr" in base.geometry.__dict__
        assert "_frozen_repr" in one.__dict__ and "_frozen_repr" in \
            one.layout.__dict__

    @pytest.mark.parametrize("name, config, latency, scale, digest", [
        ("tomcatv", baseline_config(), 10, 1.0,
         "368e6e057c7ff1acd022a7ef17f2dcc13c525625b47162f1156ccf6941ff9eea"),
        ("su2cor", MachineConfig(
            geometry=CacheGeometry(size=64 * 1024, line_size=64),
            miss_penalty=None), 6, 1.0,
         "cf2f73766e4f74bfd251ab2946426656199db8ccd71c64cc0849c43ef38fb35e"),
        ("xlisp", baseline_config(explicit(4)), 1, 0.5,
         "f5dadf30d03ac77ad6fa62c7af01cdea06b355b14228adde6fc0578e21db7353"),
        ("doduc", replace(baseline_config(mc(1)), write_buffer_depth=4,
                          write_buffer_retire_cycles=2), 20, 1.0,
         "4cc78a4c89ac0c6af7c63ffb5ddc3588c00386cbbca080cfb6961b663fbac08b"),
        ("compress", replace(baseline_config(fc(2)), issue_width=2), 3, 0.25,
         "c3587949c9c39174a82bb806afe650c8854068e97c7367ddb9a23eae683290ca"),
    ])
    def test_spelled_digests_stay_put(self, name, config, latency, scale,
                                      digest):
        """Literal digests: a silent key change would orphan every row.

        The workload is a fresh copy, so nothing comes from a memo.
        """
        workload = replace(get_benchmark(name))
        assert cell_fingerprint(workload, config, latency, scale) == digest


#: One change per ``Workload`` field of tomcatv, by the field's name.
_FIELD_CHANGES = {
    "name": lambda w: replace(w, name="tomcatv-copy"),
    "kernel": lambda w: replace(w, kernel=get_benchmark("doduc").kernel),
    "patterns": readdressed,
    "iterations": lambda w: replace(w, iterations=w.iterations + 1),
    "max_unroll": lambda w: replace(w, max_unroll=w.max_unroll - 1),
    "software_pipeline": lambda w: replace(
        w, software_pipeline=not w.software_pipeline),
    "is_fp": lambda w: replace(w, is_fp=not w.is_fp),
    "description": lambda w: replace(w, description="a copy"),
    "seed": lambda w: replace(w, seed=w.seed + 1),
    "spill_pattern": lambda w: replace(
        w, spill_pattern=stack_pattern(frame=1024)),
}


class TestCacheIdentities:
    """The group and compile identities every in-process cache keys on."""

    def test_every_workload_field_is_classified(self):
        assert set(_FIELD_CHANGES) == {
            f.name for f in dataclasses.fields(Workload)}

    @pytest.mark.parametrize("field", sorted(_FIELD_CHANGES))
    def test_group_key_follows_what_expansion_reads(self, field):
        workload = get_benchmark("tomcatv")
        changed = _FIELD_CHANGES[field](workload)
        cosmetic = field in ("description", "is_fp")
        assert (group_key(changed, 10, 0.05) ==
                group_key(workload, 10, 0.05)) == cosmetic
        # The group key changes exactly when the stored cell does.
        config = baseline_config()
        assert (cell_fingerprint(changed, config, 10, 0.05) ==
                cell_fingerprint(workload, config, 10, 0.05)) == cosmetic

    @pytest.mark.parametrize("field", sorted(_FIELD_CHANGES))
    def test_compile_key_follows_what_the_schedule_reads(self, field):
        workload = get_benchmark("tomcatv")
        changed = _FIELD_CHANGES[field](workload)
        shapes_schedule = field in ("name", "kernel", "max_unroll",
                                    "software_pipeline")
        assert (compile_key(changed, 10) !=
                compile_key(workload, 10)) == shapes_schedule
        assert (compile_fingerprint(changed, 10) !=
                compile_fingerprint(workload, 10)) == shapes_schedule

    def test_latency_and_scale(self):
        workload = get_benchmark("tomcatv")
        assert group_key(workload, 10, 0.05) != group_key(workload, 6, 0.05)
        assert group_key(workload, 10, 0.05) != group_key(workload, 10, 0.1)
        assert compile_key(workload, 10) != compile_key(workload, 6)

    def test_equal_content_shares_both_keys(self):
        workload = get_benchmark("tomcatv")
        twin = replace(workload)
        assert twin is not workload
        assert group_key(twin, 10, 0.05) == group_key(workload, 10, 0.05)
        assert compile_key(twin, 10) == compile_key(workload, 10)


#: The row layout each store schema reads: :class:`SimulationResult`'s
#: field names, then :class:`MissStats`'s.  A row is positional, so a
#: field added, removed or reordered under the same schema would be
#: read into the wrong fields.
ROW_LAYOUTS = {
    3: (
        ("workload", "policy", "load_latency", "instructions", "cycles",
         "truedep_stall_cycles", "miss", "issue_width", "unroll_factor",
         "spill_count"),
        ("loads", "load_hits", "primary_misses", "secondary_misses",
         "structural_misses", "blocking_misses", "structural_causes",
         "stores", "store_hits", "store_misses", "structural_stall_cycles",
         "blocking_stall_cycles", "write_allocate_stall_cycles",
         "write_buffer_stall_cycles", "fetches_launched", "evictions",
         "miss_inflight_hist", "fetch_inflight_hist", "max_misses_inflight",
         "max_fetches_inflight", "observed_cycles"),
    ),
}


class TestSerialization:
    def test_row_layout_is_pinned_to_the_schema(self):
        layout = (tuple(f.name for f in dataclasses.fields(SimulationResult)),
                  tuple(f.name for f in dataclasses.fields(MissStats)))
        assert STORE_SCHEMA in ROW_LAYOUTS, (
            f"pin the row layout of STORE_SCHEMA {STORE_SCHEMA} in "
            "ROW_LAYOUTS")
        assert layout == ROW_LAYOUTS[STORE_SCHEMA], (
            "a SimulationResult or MissStats field was added, removed or "
            "reordered: bump STORE_SCHEMA and pin the new layout")
        assert (RESULT_FIELDS, MISS_FIELDS) == layout

    def test_round_trip_is_bit_identical(self):
        result = _result()
        assert result_from_row(
            json.loads(json.dumps(result_to_row(result)))) == result

    def test_round_trip_preserves_histograms_and_causes(self):
        # tomcatv under a tight policy exercises structural causes.
        workload = get_benchmark("tomcatv")
        result = simulate(workload, baseline_config(mc(1)),
                          load_latency=10, scale=0.05)
        assert result.miss.structural_causes
        rebuilt = result_from_row(json.loads(json.dumps(
            result_to_row(result))))
        assert rebuilt == result
        assert rebuilt.miss.structural_causes == result.miss.structural_causes
        assert list(rebuilt.miss.structural_causes) == \
            list(result.miss.structural_causes)
        assert rebuilt.miss.miss_inflight_hist == result.miss.miss_inflight_hist
        assert rebuilt.miss.fetch_inflight_hist == \
            result.miss.fetch_inflight_hist

    def test_row_is_positional(self):
        result = _result()
        row = result_to_row(result)
        assert len(row) == len(RESULT_FIELDS)
        assert row[:3] == [result.workload, result.policy,
                           result.load_latency]
        miss = row[RESULT_FIELDS.index("miss")]
        assert len(miss) == len(MISS_FIELDS)
        assert all(type(pair) is list and len(pair) == 2
                   for pair in miss[MISS_FIELDS.index("structural_causes")])


class TestStore:
    def test_round_trip(self, store):
        result = _result()
        fp = cell_fingerprint(*_cell())
        assert store.store(fp, result)
        assert store.load(fp) == result

    def test_rows_are_written_compact_and_read_either_way(self, store):
        # Rows carry no separator spaces; a row written with json's
        # default ", " / ": " separators still loads.
        result = _result()
        fp = cell_fingerprint(*_cell())
        store.store(fp, result)
        with closing(sqlite3.connect(store.path)) as conn:
            (text,), = conn.execute("SELECT payload FROM entries")
        assert text == json.dumps(json.loads(text), separators=(",", ":"))
        _edit(store, "UPDATE entries SET payload = ?",
              json.dumps(json.loads(text)))
        assert store.load(fp) == result
        assert store.stats().corrupt == 0

    def test_missing_entry_is_none(self, store):
        assert store.load("0" * 64) is None

    def test_corrupted_entry_falls_back_to_miss(self, store):
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        _edit(store, "UPDATE entries SET payload = ? WHERE fingerprint = ?",
              "{not json at all", fp)
        assert store.load(fp) is None
        # The broken row was deleted and counted; a fresh store works.
        assert store.stats().entries == 0
        assert store.stats().corrupt == 1
        assert store.store(fp, _result())
        assert store.load(fp) == _result()

    def test_truncated_entry_falls_back_to_miss(self, store):
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        _edit(store, "UPDATE entries SET payload = substr(payload, 1, 40)")
        assert store.load(fp) is None
        assert store.stats().corrupt == 1

    def test_foreign_schema_entry_is_a_miss(self, store):
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        with closing(sqlite3.connect(store.path)) as conn:
            (text,), = conn.execute("SELECT payload FROM entries")
        payload = json.loads(text)
        payload["schema"] = STORE_SCHEMA - 1
        _edit(store, "UPDATE entries SET payload = ?", json.dumps(payload))
        assert store.load(fp) is None
        assert store.stats().corrupt == 1

    @pytest.mark.parametrize("reshape", [
        lambda row: row[:-1],
        lambda row: row + [0],
        lambda row: row[:6] + [row[6][:-1]] + row[7:],
        lambda row: row[:6] + [row[6] + [0]] + row[7:],
        lambda row: dict(zip(RESULT_FIELDS, row)),
    ])
    def test_row_of_the_wrong_shape_is_reaped(self, store, reshape):
        """A short row would fill the defaulted fields silently."""
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        with closing(sqlite3.connect(store.path)) as conn:
            (text,), = conn.execute("SELECT payload FROM entries")
        payload = json.loads(text)
        payload["result"] = reshape(payload["result"])
        _edit(store, "UPDATE entries SET payload = ?", json.dumps(payload))
        assert store.load(fp) is None
        assert store.stats().entries == 0
        assert store.stats().corrupt == 1

    def test_fingerprint_mismatch_is_a_miss(self, store):
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        other = "f" * 64
        _edit(store, "UPDATE entries SET fingerprint = ?", other)
        assert store.load(other) is None
        assert store.stats().entries == 0
        assert store.stats().corrupt == 1

    def test_garbage_database_is_a_miss_then_recreated(self, store):
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        shutil.rmtree(store.path.parent)
        store.path.parent.mkdir()
        store.path.write_bytes(b"not a database, " * 512)
        assert store.load(fp) is None
        assert store.stats().corrupt == 1
        assert store.store(fp, _result())
        assert store.load(fp) == _result()
        assert store.stats().entries == 1

    def test_engine_version_bump_invalidates(self, store, monkeypatch):
        cell = _cell()
        result = _result()
        store.store(cell_fingerprint(*cell), result)
        monkeypatch.setattr(simulator, "ENGINE_VERSION", "engine-next")
        assert store.load(cell_fingerprint(*cell)) is None

    def test_disabled_store_never_hits(self, store):
        disabled = ResultStore(store.root, enabled=False)
        fp = cell_fingerprint(*_cell())
        assert not disabled.store(fp, _result())
        assert disabled.load(fp) is None
        # Nothing was written at all.
        assert not disabled.root.exists()

    def test_from_env_honors_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ResultStore.from_env().root == tmp_path / "elsewhere"
        assert ResultStore.from_env().enabled
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not ResultStore.from_env().enabled


class TestBatchedRead:
    """A plan reads all its rows at once, one ``SELECT`` per chunk."""

    def test_three_chunks_and_one_return_every_row(self, store):
        result = _result()
        stored = [f"{i:064x}" for i in range(3 * READ_CHUNK + 1)]
        with store.transaction():
            for fingerprint in stored:
                store.store(fingerprint, result)
        with selects(store) as statements:
            found = store.load_many(stored)
            assert len(statements) == 4
        assert sorted(found) == stored
        assert all(found[fingerprint] == result for fingerprint in stored)
        assert store.load_many(["f" * 64] + stored[:2]).keys() == \
            set(stored[:2])

    def test_malformed_rows_reaped_in_one_transaction(self, store,
                                                      monkeypatch):
        result = _result()
        fingerprints = [f"{i:064x}" for i in range(5)]
        for fingerprint in fingerprints:
            store.store(fingerprint, result)
        bad = fingerprints[1], fingerprints[3]
        for fingerprint in bad:
            _edit(store, "UPDATE entries SET payload = '[1, 2' "
                  "WHERE fingerprint = ?", fingerprint)
        transactions = count_calls(monkeypatch, ResultStore, "_begin")
        found = store.load_many(fingerprints)
        assert sorted(found) == sorted(set(fingerprints) - set(bad))
        assert len(transactions) == 1
        stats = store.stats()
        assert (stats.entries, stats.corrupt) == (3, 2)

    def test_facts_read_in_one_select(self, store):
        pairs = [(get_benchmark("doduc"), latency) for latency in (1, 10, 20)]
        expected = compile_facts(pairs, store=store)
        with selects(store) as statements:
            found = store.load_facts_many(
                [compile_fingerprint(*pair) for pair in pairs])
            assert len(statements) == 1
        assert [found[compile_fingerprint(*pair)] for pair in pairs] == \
            expected


class TestMaintenance:
    def test_stats_counts_entries_and_counters(self, store):
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        store.add_counters(hits=3, misses=1, stores=1)
        stats = store.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert stats.hits == 3 and stats.misses == 1 and stats.stores == 1
        assert stats.hit_rate == pytest.approx(0.75)

    def test_clear_removes_everything(self, store):
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        assert store.clear() == 1
        assert store.stats().entries == 0
        assert store.load(fp) is None

    def test_gc_by_size_evicts_oldest_first(self, store):
        result = _result()
        fps = []
        for latency in (1, 2, 3):
            cell = _cell()[0], _cell()[1], latency, 0.05
            fp = cell_fingerprint(*cell)
            fps.append(fp)
            store.store(fp, result)
            # Written in reverse of insertion: the last row is the oldest.
            _edit(store, "UPDATE entries SET written = ? "
                  "WHERE fingerprint = ?", 1000.0 * (4 - latency), fp)
        # One byte over budget: evicting the oldest entry is enough.
        removed = store.gc(max_bytes=store.stats().total_bytes - 1)
        assert removed == 1
        assert store.load(fps[2]) is None  # the oldest went
        assert store.load(fps[0]) is not None
        assert store.load(fps[1]) is not None
        assert store.stats().gc_removed == 1

    def test_gc_by_age(self, store):
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        _edit(store, "UPDATE entries SET written = 0")  # 1970: ancient
        assert store.gc(max_age_days=1) == 1
        assert store.load(fp) is None

    def test_gc_reaps_foreign_schema_dirs(self, store):
        fp = cell_fingerprint(*_cell())
        store.store(fp, _result())
        stale = store.root / "v0" / "ab"
        stale.mkdir(parents=True)
        (stale / "deadbeef.json").write_text("{}")
        # The schema-1 JSON layout's counters file goes too.
        (store.root / "counters.json").write_text("{}")
        assert store.gc() == 2
        assert not (store.root / "v0").exists()
        assert not (store.root / "counters.json").exists()
        assert store.load(fp) is not None
        assert store.stats().gc_removed == 2

    def test_schema_2_store_is_ignored_then_reaped(self, store):
        """The keyed-JSON layout's database: never read, reaped by gc."""
        cell = _cell()
        old = store.root / "v2" / "store.sqlite"
        old.parent.mkdir(parents=True)
        with closing(sqlite3.connect(old)) as conn, conn:
            conn.execute("CREATE TABLE entries (fingerprint TEXT PRIMARY "
                         "KEY, written REAL NOT NULL, payload TEXT NOT NULL)")
            conn.execute("INSERT INTO entries VALUES (?, 0, '{}')",
                         (cell_fingerprint(*cell),))
        _, report = run_plan([cell], store=store)
        assert report.simulated == 1
        assert store.stats().corrupt == 0
        assert store.gc() == 1
        assert not old.parent.exists()
        assert store.load(cell_fingerprint(*cell)) == _result()


class TestConcurrentOpen:
    def test_two_processes_create_one_store_at_once(self, tmp_path):
        """Neither of two processes creating one file runs without a store.

        Switching a file to WAL while another process creates it fails
        at once with "database is locked"; the open retries it.
        """
        ctx = multiprocessing.get_context("fork")
        for pair in range(50):
            barrier = ctx.Barrier(2)
            procs = [ctx.Process(target=_open_fresh_store,
                                 args=(str(tmp_path / f"root{pair}"), barrier))
                     for _ in range(2)]
            try:
                for proc in procs:
                    proc.start()
                for proc in procs:
                    proc.join(timeout=60)
            finally:
                for proc in procs:
                    if proc.is_alive():
                        proc.kill()
                        proc.join()
            assert [proc.exitcode for proc in procs] == [0, 0], pair


class TestCompileFacts:
    def test_stored_facts_equal_compiled_counts(self, store):
        """All 18 models at latencies 1-20, read back from their rows."""
        pairs = [(get_benchmark(name), latency)
                 for name in BENCHMARK_ORDER for latency in range(1, 21)]
        written = compile_facts(pairs, store=store)
        assert store.stats().entries == store.stats().stores == len(pairs)
        fingerprints = [compile_fingerprint(*pair) for pair in pairs]
        rows = store.load_facts_many(fingerprints)
        for (workload, latency), fingerprint, facts in zip(
                pairs, fingerprints, written):
            body = simulator.compile_workload(workload, latency)
            stored = rows[fingerprint]
            assert stored == facts == (
                body.num_instructions, body.num_loads, body.num_stores,
                body.unroll_factor, body.spill_count)
            u = body.unroll_factor
            assert stored.per_original_iteration() == (
                body.num_instructions / u, body.num_loads / u,
                body.num_stores / u)

    def test_warm_call_compiles_and_writes_nothing(self, store, monkeypatch):
        pairs = [(get_benchmark("doduc"), latency) for latency in (1, 10)]
        cold = compile_facts(pairs, store=store)
        simulator.clear_caches()
        compiles = count_calls(monkeypatch, simulator, "compile_kernel")
        assert compile_facts(pairs + pairs, store=store) == cold + cold
        assert compiles == []
        stats = store.stats()
        assert (stats.entries, stats.stores) == (2, 2)
        # Facts lookups are not planner lookups.
        assert stats.hits == stats.misses == 0

    def test_other_engine_version_misses(self, store, monkeypatch):
        pair = (get_benchmark("doduc"), 10)
        version = simulator.ENGINE_VERSION
        monkeypatch.setattr(simulator, "ENGINE_VERSION", "engine-next")
        compile_facts([pair], store=store)
        monkeypatch.setattr(simulator, "ENGINE_VERSION", version)
        assert store.stats().entries == 1
        assert store.load_facts_many([compile_fingerprint(*pair)]) == {}
        simulator.clear_caches()
        compiles = count_calls(monkeypatch, simulator, "compile_kernel")
        compile_facts([pair], store=store)
        assert len(compiles) == 1
        assert store.stats().entries == 2

    @pytest.mark.parametrize("corrupt", [
        lambda facts: "{not json at all",
        lambda facts: json.dumps({**facts, "schema": STORE_SCHEMA - 1}),
        lambda facts: json.dumps({k: v for k, v in facts.items()
                                  if k != "compile"}),
        lambda facts: json.dumps({**facts, "compile": {
            **facts["compile"], "loads": -1}}),
        lambda facts: json.dumps({**facts, "compile": {
            **facts["compile"], "unroll_factor": 0}}),
        lambda facts: json.dumps({**facts, "compile": {
            **facts["compile"], "stores": "6"}}),
        lambda facts: json.dumps({**facts, "compile": {
            **facts["compile"], "extra": 1}}),
        lambda facts: json.dumps({**facts, "compile": [1, 2, 3, 4, 5]}),
    ])
    def test_malformed_row_is_reaped_and_recompiled(self, store, corrupt):
        pair = (get_benchmark("doduc"), 10)
        fingerprint = compile_fingerprint(*pair)
        expected, = compile_facts([pair], store=store)
        with closing(sqlite3.connect(store.path)) as conn:
            (text,), = conn.execute("SELECT payload FROM entries")
        _edit(store, "UPDATE entries SET payload = ?",
              corrupt(json.loads(text)))
        assert store.load_facts_many([fingerprint]) == {}
        assert store.stats().entries == 0
        assert store.stats().corrupt == 1
        assert compile_facts([pair], store=store) == [expected]
        assert store.load_facts_many([fingerprint]) == {fingerprint: expected}

    def test_unusable_store_compiles_every_body(self, tmp_path, monkeypatch):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        pairs = [(get_benchmark("ora"), latency) for latency in (1, 10)]
        expected = [simulator.compile_workload(*pair).facts()
                    for pair in pairs]
        simulator.clear_caches()
        compiles = count_calls(monkeypatch, simulator, "compile_kernel")
        for store in (ResultStore(blocker / "store"),
                      ResultStore(tmp_path / "off", enabled=False)):
            assert compile_facts(pairs, store=store) == expected
        assert len(compiles) == 2  # the second store hit the compile cache
        assert not (tmp_path / "off").exists()

    def test_keys_cover_the_compile_cache_key(self):
        workload = get_benchmark("tomcatv")
        base = compile_fingerprint(workload, 10)
        assert compile_fingerprint(replace(workload, description="copy"),
                                   10) == base
        # Scale, seed and address patterns do not shape the schedule.
        assert compile_fingerprint(replace(workload, seed=7), 10) == base
        for other in (
            compile_fingerprint(workload, 6),
            compile_fingerprint(replace(workload, max_unroll=2), 10),
            compile_fingerprint(replace(
                workload, software_pipeline=not workload.software_pipeline),
                10),
            compile_fingerprint(get_benchmark("doduc"), 10),
        ):
            assert other != base
        # A facts key never takes a cell's value.
        assert base != cell_fingerprint(workload, baseline_config(), 10)

    def test_memoized_digest_equals_tuple_repr(self):
        for name, latency in (("ora", 10), ("tomcatv", 1), ("doduc", 20)):
            workload = get_benchmark(name)
            key = (STORE_SCHEMA, simulator.ENGINE_VERSION, "compile",
                   (workload.name, workload.kernel.fingerprint()), latency,
                   workload.max_unroll, 0, workload.software_pipeline)
            expected = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
            for _ in range(2):  # cold, then from the kernel's memo
                assert compile_fingerprint(workload, latency) == expected

    @pytest.mark.parametrize("name, latency, digest", [
        ("tomcatv", 10,
         "5f70fd3767a1b838c795f503bc7a75851eee390494b94489174eaaa0976d7137"),
        ("doduc", 1,
         "8b440cf3e7c64eb341f485e611c3b3b6ac85022e2e8f1a52658644f2d496406c"),
        ("xlisp", 20,
         "32eef62f9a57922a55e767b85b438dcbbed9866fca76b9ea5f7f651a9c0e1203"),
        ("su2cor", 6,
         "4b45a65ea5ccbcabac10c6beea24290b8cad35c6181040d6fc9115a0ebbb8371"),
    ])
    def test_spelled_digests_stay_put(self, name, latency, digest):
        """Literal digests: a silent key change would orphan every row."""
        assert compile_fingerprint(get_benchmark(name), latency) == digest
