"""Pin the compiler's output for every SPEC92 model at latencies 1-20.

A stored simulation result is keyed by ``ENGINE_VERSION``, not by the
code that produced it, so a compiler change that moves one instruction
silently changes every simulated number while the result store keeps
serving the old ones.  This test holds one SHA-256 digest per
(model, scheduled latency) over everything a compiled body feeds the
simulator, recorded in ``compiled_digests.json`` with the
``ENGINE_VERSION`` it was recorded under.

To re-record after an intended change (bump ``ENGINE_VERSION`` first)::

    PYTHONPATH=src python tests/compiler/test_compiled_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.compiler.pipeline import CompiledBody, compile_kernel
from repro.sim.simulator import ENGINE_VERSION
from repro.workloads.spec92 import BENCHMARK_ORDER, get_benchmark

TABLE = Path(__file__).with_name("compiled_digests.json")

LATENCIES = range(1, 21)


def body_digest(body: CompiledBody) -> str:
    """SHA-256 over the parts of a compiled body the simulator reads."""
    payload = (
        tuple(
            (i.op.name, i.dst, i.srcs, i.stream, i.width)
            for i in body.instructions
        ),
        body.num_streams,
        body.spill_stream,
        body.spill_count,
        body.unroll_factor,
        body.rotated_loads,
        body.schedule.order,
        body.schedule.cycles,
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def compiled_digests() -> dict:
    """``{model: {latency: digest}}`` for the current compiler."""
    out = {}
    for name in BENCHMARK_ORDER:
        workload = get_benchmark(name)
        out[name] = {
            str(latency): body_digest(compile_kernel(
                workload.kernel,
                latency,
                max_unroll=workload.max_unroll,
                software_pipeline=workload.software_pipeline,
            ))
            for latency in LATENCIES
        }
    return out


def test_table_matches_engine_version():
    table = json.loads(TABLE.read_text())
    assert table["engine_version"] == ENGINE_VERSION, (
        f"ENGINE_VERSION is {ENGINE_VERSION!r} but {TABLE.name} was "
        f"recorded under {table['engine_version']!r}: re-record it"
    )


def test_compiled_bodies_match_recorded_digests():
    table = json.loads(TABLE.read_text())
    recorded = table["digests"]
    assert sorted(recorded) == sorted(BENCHMARK_ORDER)
    changed = [
        f"{name}@{latency}"
        for name, digests in compiled_digests().items()
        for latency, digest in digests.items()
        if recorded[name].get(latency) != digest
    ]
    assert not changed, (
        "compiler output changed, so simulated results change: bump "
        f"ENGINE_VERSION and re-record ({len(changed)} bodies differ: "
        f"{', '.join(changed[:8])})"
    )


def record() -> None:
    """Rewrite the table from the current compiler."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
        text=True, cwd=TABLE.parent,
    ).stdout.strip()
    table = {
        "engine_version": ENGINE_VERSION,
        "commit": commit,
        "digests": compiled_digests(),
    }
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
