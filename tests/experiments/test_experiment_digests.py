"""Pin every registered experiment's rows at scale 0.05.

A stored simulation result is keyed by ``ENGINE_VERSION``, not by the
code that produced it, so a change that moves one simulated number
without a version bump leaves the result store serving the old ones.
This test holds one SHA-256 digest per registered experiment over its
rows, computed cold from an empty result store, in
``experiment_digests.json`` with the ``ENGINE_VERSION`` it was
recorded under.  The rows are the same with and without a C compiler,
so the table holds on either path.

To re-record after an intended change (bump ``ENGINE_VERSION`` first)::

    PYTHONPATH=src python tests/experiments/test_experiment_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.experiments import all_experiments
from repro.sim.simulator import ENGINE_VERSION

TABLE = Path(__file__).with_name("experiment_digests.json")

SCALE = 0.05


def _plain(value):
    """Rows as ints, floats, strings and tuples, so ``repr`` is stable."""
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"no plain form for {type(value).__name__}")


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(_plain(rows)).encode("utf-8")).hexdigest()


def experiment_digests() -> dict:
    """``{experiment id: digest}``, each experiment run in turn."""
    return {exp.experiment_id: rows_digest(exp.run(scale=SCALE).rows)
            for exp in all_experiments()}


def test_table_matches_engine_version():
    table = json.loads(TABLE.read_text())
    assert table["engine_version"] == ENGINE_VERSION, (
        f"ENGINE_VERSION is {ENGINE_VERSION!r} but {TABLE.name} was "
        f"recorded under {table['engine_version']!r}: re-record it"
    )


def test_experiment_rows_match_recorded_digests():
    # The conftest points the result store at an empty directory, so
    # every cell is simulated here.
    recorded = json.loads(TABLE.read_text())["digests"]
    digests = experiment_digests()
    assert sorted(digests) == sorted(recorded)
    changed = sorted(name for name, digest in digests.items()
                     if recorded[name] != digest)
    assert not changed, (
        "experiment rows changed, so simulated results change: bump "
        f"ENGINE_VERSION and re-record ({', '.join(changed)})"
    )


def record() -> None:
    """Rewrite the table from a cold pass in a fresh cache directory."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
        text=True, cwd=TABLE.parent,
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        digests = experiment_digests()
    table = {
        "engine_version": ENGINE_VERSION,
        "commit": commit,
        "scale": SCALE,
        "digests": digests,
    }
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
