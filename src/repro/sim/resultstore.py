"""Content-addressed, on-disk store of simulation results.

Every simulation in this study is fully deterministic: the result of a
sweep cell is a pure function of the workload (kernel content, address
patterns, seed, iteration count), the machine configuration, and the
compiler's scheduled load latency and run scale.  The paper burned 370
CPU-days re-simulating 3700 such cells; our figure experiments overlap
heavily cell-for-cell (the unrestricted baseline appears in nearly
every figure), so this module memoizes results *across* runs and
experiments.

A cell is keyed by a **fingerprint**: a SHA-256 digest over

* the store schema version (:data:`STORE_SCHEMA`),
* the execution-engine version tag
  (:data:`repro.sim.simulator.ENGINE_VERSION` -- bump it whenever the
  timing semantics change and every stale entry silently misses),
* the workload's content identity (name, kernel digest, per-stream
  address patterns, iterations, compile hints, seed),
* the full :class:`~repro.sim.config.MachineConfig` (geometry, policy,
  field layout, penalty, issue width, write buffer), and
* the scheduled load latency and run scale.

A result row is a JSON envelope, ``{"schema", "fingerprint",
"result"}``, whose ``result`` is a positional list in
:class:`~repro.sim.stats.SimulationResult` field order, its ``miss``
entry a list in :class:`~repro.core.stats.MissStats` field order with
the structural causes as ``[name, count]`` pairs
(:func:`result_to_row`).  A row of another length is malformed.

The same table keeps Figure 4's **compile facts**: the reference
counts, unroll factor and spill count of one compiled body, keyed by
:func:`compile_fingerprint` over the store schema, the engine version,
a ``"compile"`` tag and the compile identity (:func:`compile_key`:
name, kernel content, latency, unroll bound, pipelining).  Neither key
can take the other's value, so the two row kinds share one table.

The in-process caches key their work on the same content:
:func:`group_key` names one trace expansion, :func:`compile_key` one
compiled body.

Entries and the store's lifetime counters live in one SQLite
database, ``<root>/v<schema>/store.sqlite``, in WAL mode (SQLite's
write-ahead log) with ``synchronous=NORMAL``: every commit is atomic,
so a killed sweep never leaves a torn entry, and, as with an
un-fsynced rename, a power cut can lose only the last commits.
A planner run reads all its rows at once (:meth:`ResultStore.load_many`:
one ``SELECT ... WHERE fingerprint IN (...)`` per :data:`READ_CHUNK`
fingerprints) and writes its new rows and its counter update in one
:meth:`ResultStore.transaction`; :func:`repro.sim.planner.compile_facts`
does the same with facts rows.  Where SQLite cannot use WAL on a file
system, the database keeps its rollback journal.

Nothing here raises.  An entry that does not parse, carries another
schema or another cell's fingerprint is deleted and counted as
``corrupt`` (all of one read's bad rows in one transaction); so is a
file that is not a database, which the next write recreates.  An
unusable root (under a regular file, say) degrades to misses and
dropped writes.  Several processes may share a store: they take the
write lock in turn, waiting up to :data:`BUSY_TIMEOUT_S`.

Environment knobs:

* ``REPRO_CACHE=0`` disables the store entirely (every lookup misses,
  nothing is written);
* ``REPRO_CACHE_DIR`` relocates the store root (default
  ``.repro-cache/`` in the current directory).

The ``python -m repro cache {stats,clear,gc}`` subcommand fronts the
maintenance entry points.  See ``docs/caching.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import shutil
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro import telemetry
from repro.compiler.ir import Kernel
from repro.compiler.pipeline import CompileFacts
from repro.core.classify import StructuralCause
from repro.core.stats import MissStats
from repro.sim.config import MachineConfig
from repro.sim.stats import SimulationResult
from repro.workloads.workload import Workload

#: On-disk layout version.  Bump when the entry format changes; old
#: version directories are ignored by reads and reaped by ``gc``.
#: Schema 3 stores a result as a positional row (:func:`result_to_row`).
STORE_SCHEMA = 3

#: Default store location (relative to the current directory).
DEFAULT_ROOT = ".repro-cache"

#: How long a writer waits for another process's write lock, in seconds.
BUSY_TIMEOUT_S = 30.0

#: Fingerprints per ``SELECT ... IN (...)`` of one read: well under
#: SQLite's host-parameter limit, which older builds set at 999.
READ_CHUNK = 500

#: The lifetime counters, in column order.
COUNTERS = ("hits", "misses", "stores", "corrupt", "gc_removed")

#: SQLite's primary result codes for a lock another connection holds.
_SQLITE_BUSY, _SQLITE_LOCKED = 5, 6

#: The ``store.<counter>`` telemetry counters, each registered when
#: first incremented.
_METRICS = telemetry.MetricHandles(
    lambda m: telemetry.CounterFamily(m, "store."))

#: The schema-1 layout kept its lifetime counters at the root in a JSON
#: file with this stem; ``gc`` reaps it along with the ``v1/`` tree.
_V1_COUNTERS_STEM = "counters"

_TABLES = """
CREATE TABLE IF NOT EXISTS entries (
    fingerprint TEXT PRIMARY KEY,
    written REAL NOT NULL,
    payload TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    id INTEGER PRIMARY KEY CHECK (id = 0),
    hits INTEGER NOT NULL DEFAULT 0,
    misses INTEGER NOT NULL DEFAULT 0,
    stores INTEGER NOT NULL DEFAULT 0,
    corrupt INTEGER NOT NULL DEFAULT 0,
    gc_removed INTEGER NOT NULL DEFAULT 0
);
INSERT OR IGNORE INTO counters (id) VALUES (0);
"""


# -- content fingerprints ----------------------------------------------------


#: Types :func:`_freeze` returns as they are.
_ATOMS = frozenset((int, float, str, bool, type(None)))

#: Field names per type met by :func:`_freeze` (``None``: no dataclass).
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _freeze(value):
    """Recursively convert a value into a stable, hashable tuple form.

    Handles the frozen dataclasses the simulator's inputs are built
    from (configs, policies, address patterns), plus enums, dicts, and
    sequences.  The result round-trips through ``repr`` untouched, so
    it can feed a digest.
    """
    cls = type(value)
    if cls in _ATOMS:
        return value
    if isinstance(value, enum.Enum):
        return (cls.__name__, value.name)
    try:
        names = _FIELD_NAMES[cls]
    except KeyError:
        names = _FIELD_NAMES[cls] = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls) else None
        )
    if names is not None:
        return (cls.__name__,) + tuple([
            (name, _freeze(getattr(value, name))) for name in names
        ])
    if isinstance(value, dict):
        return tuple(
            (k, _freeze(v)) for k, v in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def workload_key(workload: Workload) -> Tuple:
    """The content identity of a workload: what the simulator consumes.

    Two distinct ``Workload`` instances with equal keys produce
    bit-identical simulations, so the key is both the store's workload
    component and the workload part of :func:`group_key`.  Cosmetic
    fields (``description``, ``is_fp``) are excluded.  Memoized on the
    instance: workloads are frozen dataclasses treated as immutable
    after construction.
    """
    cached = getattr(workload, "_content_key", None)
    if cached is None:
        cached = (
            "workload",
            workload.name,
            workload.kernel.fingerprint(),
            _freeze(dict(workload.patterns)),
            workload.iterations,
            workload.max_unroll,
            workload.software_pipeline,
            workload.seed,
            _freeze(workload.spill_pattern),
        )
        object.__setattr__(workload, "_content_key", cached)
    return cached


def config_key(config: MachineConfig) -> Tuple:
    """The content identity of a machine configuration."""
    return _freeze(config)


#: Per type met by :func:`_member_repr`: its field names and the text
#: of its frozen tuple with a ``%s`` per field (``None``: not a frozen
#: dataclass).
_FROZEN: Dict[type, Optional[Tuple[Tuple[str, ...], str]]] = {}


def _frozen_layout(cls: type) -> Optional[Tuple[Tuple[str, ...], str]]:
    """Field names and text template of a frozen dataclass type."""
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        return None
    names = tuple(f.name for f in dataclasses.fields(cls))
    if not names:
        return names, "(%r,)" % cls.__name__
    return names, "(%r, %s)" % (
        cls.__name__, ", ".join(["(%r, %%s)" % name for name in names]))


def _member_repr(value) -> str:
    """``repr(_freeze(value))``, memoized on every frozen dataclass in it.

    A frozen dataclass's text is joined from its members' texts, each
    memoized on its own instance, so a fresh ``with_policy`` copy of a
    config costs one join over its geometry's and policy's memos.
    Memoized per instance, never by equality: ``16 == 16.0`` but their
    reprs, and so the digests, differ.
    """
    cls = type(value)
    if cls in _ATOMS:
        return repr(value)
    try:
        layout = _FROZEN[cls]
    except KeyError:
        layout = _FROZEN[cls] = _frozen_layout(cls)
    if layout is None:
        return repr(_freeze(value))
    text = value.__dict__.get("_frozen_repr")
    if text is None:
        names, template = layout
        members = []
        for name in names:
            member = getattr(value, name)
            members.append(repr(member) if type(member) in _ATOMS
                           else _member_repr(member))
        text = template % tuple(members)
        object.__setattr__(value, "_frozen_repr", text)
    return text


def _key_repr(value, key) -> str:
    """``repr(key(value))``, memoized on the instance.

    Memoized per instance, never by equality: ``16 == 16.0`` but their
    reprs, and so the digests, differ.
    """
    text = getattr(value, "_content_repr", None)
    if text is None:
        text = repr(key(value))
        object.__setattr__(value, "_content_repr", text)
    return text


def group_key(workload: Workload, load_latency: int, scale: float) -> Tuple:
    """The group identity: everything expanding a workload's trace reads.

    Workload content (:func:`workload_key`), scheduled load latency and
    run scale.  It keys the trace cache, the stream cache (with the
    line size), the summary cache (with geometry and store policy),
    the bounds caches, pool grouping and dispatch order.  The workload part is the memoized repr that
    :func:`cell_fingerprint` hashes, so a lookup hashes one string whose
    hash Python caches, not the kernel's op tuple.
    """
    return (_key_repr(workload, workload_key), load_latency, scale)


def compile_key(workload: Workload, load_latency: int) -> Tuple:
    """The compile identity: everything the schedule reads.

    ``(name, kernel content, load latency, max_unroll,
    software_pipeline)``, with the kernel as the memoized repr of
    :meth:`~repro.compiler.ir.Kernel.fingerprint`.  Address patterns,
    seed, iteration count and scale do not shape the schedule, so seed
    replicas (:func:`repro.sim.confidence.replicate`) share one compile.
    It keys the compile cache and :func:`compile_fingerprint`.
    """
    return (workload.name, _key_repr(workload.kernel, Kernel.fingerprint),
            load_latency, workload.max_unroll, workload.software_pipeline)


def cell_fingerprint(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float = 1.0,
) -> str:
    """SHA-256 fingerprint of one sweep cell (hex digest).

    Includes the store schema and the engine version tag, so bumping
    either invalidates every existing entry without touching the disk.
    The digest is over ``repr`` of the tuple ``(STORE_SCHEMA,
    ENGINE_VERSION, workload_key(workload), config_key(config),
    int(load_latency), repr(float(scale)))``, spelled out here from the
    memoized reprs of its two large members.  The config's text is
    joined from the memoized texts of its frozen members (policy,
    geometry, field layout), so a fresh copy costs no walk.
    """
    from repro.sim import simulator

    text = "(%r, %r, %s, %s, %r, %r)" % (
        STORE_SCHEMA,
        simulator.ENGINE_VERSION,
        _key_repr(workload, workload_key),
        _member_repr(config),
        int(load_latency),
        repr(float(scale)),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compile_fingerprint(workload: Workload, load_latency: int) -> str:
    """SHA-256 fingerprint of one compiled body's facts row (hex digest).

    The digest is over ``repr`` of the tuple ``(STORE_SCHEMA,
    ENGINE_VERSION, "compile", (workload.name, kernel.fingerprint()),
    int(load_latency), workload.max_unroll, 0,
    workload.software_pipeline)``, spelled out from
    :func:`compile_key`; the ``0`` is kept from a retired unroll
    override, so every stored row keeps its key.
    """
    from repro.sim import simulator

    name, kernel, latency, max_unroll, pipeline = compile_key(
        workload, load_latency)
    text = "(%r, %r, 'compile', (%r, %s), %r, %r, 0, %r)" % (
        STORE_SCHEMA,
        simulator.ENGINE_VERSION,
        name,
        kernel,
        int(latency),
        max_unroll,
        pipeline,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- row (de)serialization ----------------------------------------------------


#: A result row's positions: :class:`SimulationResult`'s fields, and
#: inside its ``miss`` entry :class:`MissStats`'s, in dataclass order.
#: Changing either tuple changes what a position means, so it needs a
#: :data:`STORE_SCHEMA` bump (a tier-1 test pins them together).
RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(SimulationResult))
MISS_FIELDS = tuple(f.name for f in dataclasses.fields(MissStats))

_MISS_AT = RESULT_FIELDS.index("miss")
_CAUSES_AT = MISS_FIELDS.index("structural_causes")


def result_to_row(result: SimulationResult) -> list:
    """A result as a positional JSON list, in :data:`RESULT_FIELDS` order.

    Its ``miss`` entry is a list in :data:`MISS_FIELDS` order, with the
    structural causes as ``[name, count]`` pairs.
    """
    miss = [getattr(result.miss, name) for name in MISS_FIELDS]
    miss[_CAUSES_AT] = [[cause.name, int(count)]
                        for cause, count in miss[_CAUSES_AT].items()]
    row = [getattr(result, name) for name in RESULT_FIELDS]
    row[_MISS_AT] = miss
    return row


def result_from_row(row: list) -> SimulationResult:
    """Rebuild a result; raises on any shape mismatch (caller catches).

    A row or ``miss`` list of the wrong length raises ``ValueError``,
    an unknown cause ``KeyError``, which the store treats as a cache
    miss: every field has a position, and a short row would otherwise
    fill the defaulted fields silently.
    """
    if type(row) is not list or len(row) != len(RESULT_FIELDS):
        raise ValueError("malformed result row")
    miss = row[_MISS_AT]
    if type(miss) is not list or len(miss) != len(MISS_FIELDS):
        raise ValueError("malformed miss statistics")
    miss = miss.copy()
    miss[_CAUSES_AT] = {StructuralCause[name]: int(count)
                        for name, count in miss[_CAUSES_AT]}
    row = row.copy()
    row[_MISS_AT] = MissStats(*miss)
    return SimulationResult(*row)


def facts_from_dict(data: Dict) -> CompileFacts:
    """Rebuild compile facts; raises on any shape mismatch (caller catches)."""
    facts = CompileFacts(**data)
    if any(type(v) is not int or v < 0 for v in facts) or \
            facts.unroll_factor < 1:
        raise ValueError("malformed compile facts")
    return facts


# -- the store ----------------------------------------------------------------


@dataclass(frozen=True)
class StoreStats:
    """A snapshot of the store's contents and lifetime counters."""

    root: str
    enabled: bool
    schema: int
    entries: int
    total_bytes: int
    #: Lifetime counters (survive across processes): planner store hits,
    #: cells actually simulated, entries written (result and compile
    #: facts rows), corrupt entries or database files reaped on read,
    #: entries and files removed by ``gc``.
    hits: int
    misses: int
    stores: int
    corrupt: int = 0
    gc_removed: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of planner lookups served from the store."""
        looked_up = self.hits + self.misses
        if not looked_up:
            return 0.0
        return self.hits / looked_up

    def to_dict(self) -> Dict:
        return {
            "root": self.root,
            "enabled": self.enabled,
            "schema": self.schema,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "gc_removed": self.gc_removed,
            "hit_rate": self.hit_rate,
        }

    def describe(self) -> str:
        state = "enabled" if self.enabled else "DISABLED (REPRO_CACHE=0)"
        return (
            f"result store at {self.root} [{state}]\n"
            f"  schema v{self.schema}: {self.entries} entries, "
            f"{self.total_bytes / 1024:.1f} KiB\n"
            f"  lifetime: {self.hits} hits, {self.misses} misses "
            f"({100 * self.hit_rate:.1f}% hit rate), "
            f"{self.stores} entries written, "
            f"{self.corrupt} corrupt reaped, {self.gc_removed} gc'd"
        )


#: The connection every store in this process shares, as ``(pid, path,
#: (st_dev, st_ino), connection)``.  One slot, not a dict by path:
#: tests create hundreds of stores, and each connection holds file
#: descriptors.
_slot: Optional[Tuple] = None

#: Connections inherited across ``fork``.  The parent still owns them:
#: they stay referenced so that no finalizer in the child closes them.
_inherited: list = []


def _release_slot(path: Optional[str] = None) -> None:
    """Empty the slot (if it holds ``path``, when one is given)."""
    global _slot
    if _slot is None or (path is not None and _slot[1] != path):
        return
    pid, _, _, conn = _slot
    _slot = None
    if pid == os.getpid():
        conn.close()
    else:
        _inherited.append(conn)


def _is_corrupt(exc: Exception) -> bool:
    """Whether SQLite found the file itself unreadable.

    ``SQLITE_NOTADB`` and ``SQLITE_CORRUPT`` are the codes the
    ``sqlite3`` module raises as a plain ``DatabaseError``; busy, I/O,
    permission and misuse errors have subclasses of their own.
    """
    return type(exc) is sqlite3.DatabaseError


def _is_busy(exc: sqlite3.Error) -> bool:
    """Whether SQLite refused because another connection holds a lock."""
    code = getattr(exc, "sqlite_errorcode", None)  # Python 3.11 and later
    if code is None:
        return "locked" in str(exc)
    return code & 0xFF in (_SQLITE_BUSY, _SQLITE_LOCKED)


def _initialize(conn: sqlite3.Connection) -> None:
    """Put a new connection in WAL mode and create the tables.

    Switching the journal mode of a file that another process is
    creating at the same moment fails at once with "database is
    locked": SQLite does not wait out the busy timeout for it.  Such
    answers are retried until :data:`BUSY_TIMEOUT_S`; without that, the
    second of two processes opening a fresh store would run without one.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            # Without WAL (a file system lacking shared memory) the
            # database keeps its rollback journal at full sync.
            if conn.execute("PRAGMA journal_mode=WAL").fetchall() == \
                    [("wal",)]:
                conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_TABLES)
            return
        except sqlite3.OperationalError as exc:
            if not _is_busy(exc) or time.monotonic() >= deadline:
                raise
        time.sleep(0.01)


class ResultStore:
    """A content-addressed result cache rooted at one directory.

    All operations are best-effort: I/O failures degrade to cache
    misses (reads) or dropped writes, never to exceptions -- a broken
    or read-only cache directory must not break a sweep.
    """

    def __init__(self, root, enabled: bool = True) -> None:
        self.root = Path(root)
        self.enabled = enabled
        #: :attr:`path` as a string, built once: ``_connect`` runs per
        #: read and per transaction.
        self._db = str(self.path)
        #: The connection of the open :meth:`transaction`, its depth.
        self._txn: Optional[sqlite3.Connection] = None
        self._depth = 0

    @classmethod
    def from_env(cls) -> "ResultStore":
        """The store the environment selects (see module docstring)."""
        enabled = os.environ.get("REPRO_CACHE", "1") != "0"
        root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_ROOT)
        return cls(root, enabled=enabled)

    @property
    def path(self) -> Path:
        """The database file."""
        return self.root / f"v{STORE_SCHEMA}" / "store.sqlite"

    # -- the connection ------------------------------------------------------

    def _connect(self, create: bool) -> Optional[sqlite3.Connection]:
        """This process's connection to the database, or ``None``.

        Reuses the slot while the pid, the path and the file's
        ``(st_dev, st_ino)`` all match, so a file deleted or replaced
        under a live process is reopened.  Creates the file only with
        ``create``.  Raises :class:`sqlite3.DatabaseError` when the file
        is not a database.
        """
        global _slot
        path = self._db
        try:
            st = os.stat(path)
            ident = (st.st_dev, st.st_ino)
        except FileNotFoundError:
            ident = None
        except OSError:  # the root is unusable, e.g. under a regular file
            return None
        if _slot is not None and _slot[:3] == (os.getpid(), path, ident):
            return _slot[3]
        _release_slot()
        if ident is None and not create:
            return None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_S,
                                   isolation_level=None)
        except (OSError, sqlite3.Error):
            return None
        try:
            _initialize(conn)
            st = os.stat(path)
        except (sqlite3.Error, OSError) as exc:
            conn.close()
            if _is_corrupt(exc):
                raise
            return None
        _slot = (os.getpid(), path, (st.st_dev, st.st_ino), conn)
        return conn

    def _discard(self) -> None:
        """Delete a database file SQLite cannot read; count it corrupt."""
        path = self._db
        _release_slot(path)
        for suffix in ("", "-wal", "-shm", "-journal"):
            with contextlib.suppress(OSError):
                os.unlink(path + suffix)
        self.add_counters(corrupt=1)

    @contextlib.contextmanager
    def transaction(self):
        """Commit every write made inside the block at once.

        ``BEGIN IMMEDIATE`` takes the write lock up front, waiting for
        another process's writer, so the block's rows and counter
        update land together or not at all.  Yields the connection, or
        ``None`` when the store is disabled or unusable (the block's
        writes are then dropped).  Nested blocks join the outer one.
        A file that is not a database is deleted, counted and created
        afresh.
        """
        if self._depth:
            self._depth += 1
            try:
                yield self._txn
            finally:
                self._depth -= 1
            return
        conn = self._begin() if self.enabled else None
        self._txn, self._depth = conn, 1
        committed = False
        try:
            yield conn
            committed = True
        finally:
            self._txn, self._depth = None, 0
            if conn is not None and conn.in_transaction:
                try:
                    conn.execute("COMMIT" if committed else "ROLLBACK")
                except sqlite3.Error:  # the block's writes are dropped
                    with contextlib.suppress(sqlite3.Error):
                        conn.execute("ROLLBACK")

    def _begin(self) -> Optional[sqlite3.Connection]:
        """A connection holding the write lock, or ``None``."""
        for attempt in range(2):
            try:
                conn = self._connect(create=True)
                if conn is not None:
                    conn.execute("BEGIN IMMEDIATE")
                return conn
            except sqlite3.Error as exc:
                if attempt or not _is_corrupt(exc):
                    return None
                self._discard()
        return None

    def _write(self, sql: str, params, many: bool = False) -> bool:
        """One write statement (run once per parameter tuple with
        ``many``), in the open :meth:`transaction` or its own; returns
        False if the write was dropped."""
        with self.transaction() as conn:
            if conn is None or not conn.in_transaction:
                return False
            try:
                if many:
                    conn.executemany(sql, params)
                else:
                    conn.execute(sql, params)
            except sqlite3.Error:
                return False
            return True

    # -- entry I/O -----------------------------------------------------------

    def load(self, fingerprint: str) -> Optional[SimulationResult]:
        """The stored result for a fingerprint, or ``None`` on any miss.

        Corrupted, truncated, or shape-mismatched entries are deleted
        and reported as misses: the caller falls back to simulation and
        stores a fresh entry.
        """
        return self._read((fingerprint,), "result",
                          result_from_row).get(fingerprint)

    def load_many(
        self, fingerprints: Sequence[str],
    ) -> Dict[str, SimulationResult]:
        """The stored results among ``fingerprints``, by fingerprint.

        One read for all of them; a missing or malformed row is absent
        from the answer, and malformed rows are reaped as by
        :meth:`load`.
        """
        return self._read(fingerprints, "result", result_from_row)

    def load_facts(self, fingerprint: str) -> Optional[CompileFacts]:
        """The compile facts stored under a :func:`compile_fingerprint`.

        ``None`` on any miss; malformed rows are reaped as by :meth:`load`.
        """
        return self._read((fingerprint,), "compile",
                          facts_from_dict).get(fingerprint)

    def load_facts_many(
        self, fingerprints: Sequence[str],
    ) -> Dict[str, CompileFacts]:
        """:meth:`load_facts` for many rows in one read, as :meth:`load_many`."""
        return self._read(fingerprints, "compile", facts_from_dict)

    def _read(self, fingerprints: Sequence[str], field: str, decode) -> Dict:
        """Decode ``payload[field]`` of every stored row among ``fingerprints``.

        One connection and one ``SELECT ... IN (...)`` per
        :data:`READ_CHUNK` fingerprints.  Rows that do not decode are
        deleted together, in one transaction, and counted ``corrupt``;
        like misses, they are absent from the answer.
        """
        if not self.enabled:
            return {}
        rows: list = []
        try:
            conn = self._connect(create=False)
            if conn is None:
                return {}
            for start in range(0, len(fingerprints), READ_CHUNK):
                chunk = fingerprints[start:start + READ_CHUNK]
                rows += conn.execute(
                    "SELECT fingerprint, payload FROM entries "
                    f"WHERE fingerprint IN ({', '.join('?' * len(chunk))})",
                    chunk,
                ).fetchall()
        except sqlite3.Error as exc:
            if _is_corrupt(exc):
                self._discard()
            return {}
        found: Dict = {}
        malformed = []
        for fingerprint, text in rows:
            try:
                payload = json.loads(text)
                if payload["schema"] != STORE_SCHEMA:
                    raise ValueError("schema mismatch")
                if payload["fingerprint"] != fingerprint:
                    raise ValueError("fingerprint mismatch")
                found[fingerprint] = decode(payload[field])
            except (ValueError, TypeError, KeyError, AttributeError):
                # Tolerate (and reap) anything malformed.
                malformed.append((fingerprint,))
        if malformed:
            with self.transaction():
                self._write("DELETE FROM entries WHERE fingerprint = ?",
                            malformed, many=True)
                self.add_counters(corrupt=len(malformed))
        return found

    def store(self, fingerprint: str, result: SimulationResult) -> bool:
        """Persist one result as a compact row (:func:`result_to_row`);
        returns False if the write was dropped.

        Inside :meth:`transaction` the row commits with the block;
        otherwise it is a transaction of its own.
        """
        if not self.enabled:
            return False
        return self._put(fingerprint, {"result": result_to_row(result)})

    def store_facts(self, fingerprint: str, facts: CompileFacts) -> bool:
        """Persist one body's compile facts, as :meth:`store` does a result."""
        if not self.enabled:
            return False
        return self._put(fingerprint, {"compile": facts._asdict()})

    def _put(self, fingerprint: str, fields: Dict) -> bool:
        """Write one row: the schema/fingerprint envelope plus ``fields``."""
        payload = json.dumps({
            "schema": STORE_SCHEMA,
            "fingerprint": fingerprint,
            **fields,
        })
        return self._write("INSERT OR REPLACE INTO entries VALUES (?, ?, ?)",
                           (fingerprint, time.time(), payload))

    # -- lifetime counters ---------------------------------------------------

    def add_counters(
        self, hits: int = 0, misses: int = 0, stores: int = 0,
        corrupt: int = 0, gc_removed: int = 0,
    ) -> None:
        """Accumulate store lifetime counters in the database.

        Inside :meth:`transaction` the update commits with the block's
        rows; otherwise it is a transaction of its own.  Concurrent
        sweeps add without losing updates.  The same increments feed
        the in-process telemetry registry (``store.*`` counters).
        """
        amounts = (hits, misses, stores, corrupt, gc_removed)
        if not self.enabled or not any(amounts):
            return
        if telemetry.enabled():
            counters = _METRICS.get()
            for name, amount in zip(COUNTERS, amounts):
                if amount:
                    counters[name].inc(amount)
        self._write("UPDATE counters SET hits = hits + ?, "
                    "misses = misses + ?, stores = stores + ?, "
                    "corrupt = corrupt + ?, gc_removed = gc_removed + ?",
                    amounts)

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> StoreStats:
        """Entry count, payload footprint, and lifetime counters."""
        entries = total = 0
        counters = dict.fromkeys(COUNTERS, 0)
        try:
            conn = self._connect(create=False)
            if conn is not None:
                (entries, total), = conn.execute(
                    "SELECT count(*), coalesce(sum(length(payload)), 0) "
                    "FROM entries").fetchall()
                row, = conn.execute(
                    f"SELECT {', '.join(COUNTERS)} FROM counters").fetchall()
                counters = dict(zip(COUNTERS, row))
        except sqlite3.Error:
            pass
        return StoreStats(
            root=str(self.root),
            enabled=self.enabled,
            schema=STORE_SCHEMA,
            entries=entries,
            total_bytes=total,
            **counters,
        )

    def clear(self) -> int:
        """Remove the whole store root (entries and counters); entry count."""
        removed = self.stats().entries
        _release_slot(self._db)
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)
        return removed

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_days: Optional[float] = None,
    ) -> int:
        """Prune the store; returns the number of entries removed.

        Always removes the trees of other schema versions and the
        schema-1 counters file, counting each file.  With
        ``max_age_days``, drops entries written before the cutoff; with
        ``max_bytes``, evicts oldest-written first until the payloads
        fit.  Then ``VACUUM`` returns the freed pages, so the file
        shrinks with its entries.
        """
        removed = 0
        if self.root.is_dir():
            for child in self.root.iterdir():
                if (child.is_dir() and child.name.startswith("v")
                        and child != self.path.parent):
                    removed += sum(1 for p in child.rglob("*") if p.is_file())
                    shutil.rmtree(child, ignore_errors=True)
        try:
            (self.root / _V1_COUNTERS_STEM).with_suffix(".json").unlink()
            removed += 1
        except OSError:
            pass
        try:
            conn = self._connect(create=False) if self.enabled else None
        except sqlite3.Error:  # not a database: the next write recreates it
            conn = None
        if conn is None:
            self.add_counters(gc_removed=removed)
            return removed
        with self.transaction() as txn:
            if txn is not None and max_age_days is not None:
                cutoff = time.time() - max_age_days * 86400.0
                removed += txn.execute("DELETE FROM entries WHERE written < ?",
                                       (cutoff,)).rowcount
            if txn is not None and max_bytes is not None:
                aged = txn.execute(
                    "SELECT fingerprint, length(payload) FROM entries "
                    "ORDER BY written, rowid").fetchall()
                total = sum(size for _, size in aged)
                doomed = []
                for fingerprint, size in aged:
                    if total <= max_bytes:
                        break
                    doomed.append((fingerprint,))
                    total -= size
                txn.executemany("DELETE FROM entries WHERE fingerprint = ?",
                                doomed)
                removed += len(doomed)
            self.add_counters(gc_removed=removed)
        try:
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            pass
        return removed
