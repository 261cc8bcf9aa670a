"""On-disk telemetry state: how short-lived CLI runs leave a trail.

Every entry point in this repository is a fresh process (``python -m
repro.experiments fig5``, ``python -m repro sweep``), so purely
process-local metrics would evaporate before ``python -m repro
telemetry summary`` could read them.  This module persists the
process's final snapshot into a small JSON state file:

* ``last_run`` -- the most recent process's full snapshot (what
  ``summary`` leads with: a warm sweep re-run shows store hits equal to
  its cells and zero simulations *for that run*);
* ``cumulative`` -- every flushed snapshot merged together (counters
  add), surviving until ``telemetry reset``.

The file lives at ``$REPRO_TELEMETRY_DIR/telemetry.json``, falling
back to the result store's root (``$REPRO_CACHE_DIR`` or
``.repro-cache``) so one directory holds all sweep-engine state.
Writes are read-modify-write with an atomic replace; a lost update
under concurrent runs skews only advisory statistics.  (The result
store's own lifetime counters live in its database and lose no
updates.)

Flushing is automatic: :mod:`repro.telemetry` registers an ``atexit``
hook in the process that first touches a metric.  Pool workers never
double-flush -- their deltas return to the parent over the result
channel, and multiprocessing children exit via ``os._exit`` without
running ``atexit`` hooks (the hook also pins the registering pid as a
belt-and-braces guard).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.telemetry.registry import (
    merge_snapshots,
    snapshot_diff,
    snapshot_is_empty,
)

#: State file schema; bump on layout changes and old files are ignored.
STATE_SCHEMA = 1

#: Environment override for the state file's directory.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"

_EMPTY: Dict = {"counters": {}, "gauges": {}, "histograms": {}}


def state_dir() -> Path:
    """The directory holding ``telemetry.json`` (see module docstring)."""
    for env in (TELEMETRY_DIR_ENV, "REPRO_CACHE_DIR"):
        override = os.environ.get(env)
        if override:
            return Path(override)
    return Path(".repro-cache")


def state_path() -> Path:
    return state_dir() / "telemetry.json"


def read_state(path: Optional[Path] = None) -> Dict:
    """The parsed state file, or an empty skeleton on any problem."""
    if path is None:
        path = state_path()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("schema") != STATE_SCHEMA:
            raise ValueError("schema mismatch")
        return data
    except Exception:
        return {
            "schema": STATE_SCHEMA,
            "updated": None,
            "last_run": {"snapshot": dict(_EMPTY)},
            "cumulative": dict(_EMPTY),
        }


def write_state(state: Dict, path: Optional[Path] = None) -> bool:
    """Atomically persist the state dict; best-effort, returns success."""
    if path is None:
        path = state_path()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-telemetry-",
                                   suffix=".json", dir=str(path.parent))
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(state, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True
    except OSError:
        return False


def flush_snapshot(run_snapshot: Dict, delta: Dict,
                   path: Optional[Path] = None) -> bool:
    """Fold one process's activity into the state file.

    ``run_snapshot`` becomes (or extends) ``last_run``; ``delta`` -- the
    activity since this process's previous flush -- adds into
    ``cumulative``.
    """
    if snapshot_is_empty(delta) and snapshot_is_empty(run_snapshot):
        return False
    state = read_state(path)
    state["updated"] = time.time()
    state["last_run"] = {"pid": os.getpid(), "snapshot": run_snapshot}
    state["cumulative"] = merge_snapshots(state["cumulative"], delta)
    return write_state(state, path)


def reset_state(path: Optional[Path] = None) -> bool:
    """Delete the state file; returns True when something was removed."""
    if path is None:
        path = state_path()
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


# -- summary rendering ---------------------------------------------------------


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{seconds * 1e3:.1f} ms"


def render_snapshot_summary(snapshot: Dict, indent: str = "  ") -> List[str]:
    """Human-readable lines for one snapshot: phases, then counters."""
    lines: List[str] = []
    spans = {
        name[len("span."):-len(".seconds")]: data
        for name, data in sorted(snapshot.get("histograms", {}).items())
        if name.startswith("span.") and name.endswith(".seconds")
    }
    if spans:
        lines.append(f"{indent}phases (wall time):")
        width = max(len(name) for name in spans)
        for name, data in spans.items():
            count = data["count"]
            total = data["sum"]
            mean = total / count if count else 0.0
            lines.append(
                f"{indent}  {name:<{width}}  {count:>6} x  "
                f"{_format_seconds(total):>10} total  "
                f"(avg {_format_seconds(mean)})"
            )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append(f"{indent}counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            value = counters[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"{indent}  {name:<{width}}  {shown}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append(f"{indent}gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"{indent}  {name:<{width}}  {gauges[name]:.3f}")
    other_hists = {
        name: data
        for name, data in sorted(snapshot.get("histograms", {}).items())
        if not (name.startswith("span.") and name.endswith(".seconds"))
    }
    if other_hists:
        lines.append(f"{indent}distributions:")
        width = max(len(name) for name in other_hists)
        for name, data in other_hists.items():
            count = data["count"]
            mean = data["sum"] / count if count else 0.0
            lines.append(
                f"{indent}  {name:<{width}}  n={count}  mean={mean:.4g}  "
                f"sum={data['sum']:.4g}"
            )
    if not lines:
        lines.append(f"{indent}(no recorded activity)")
    return lines


def render_summary(state: Dict, path: Optional[Path] = None) -> str:
    """The ``python -m repro telemetry summary`` text."""
    if path is None:
        path = state_path()
    lines = [f"telemetry state at {path}"]
    updated = state.get("updated")
    if updated:
        age = max(0.0, time.time() - updated)
        lines[0] += f" (updated {age:.0f}s ago)"
    lines.append("")
    lines.append("last run:")
    lines.extend(
        render_snapshot_summary(state.get("last_run", {}).get("snapshot",
                                                              _EMPTY))
    )
    lines.append("")
    lines.append("cumulative (since last reset):")
    lines.extend(render_snapshot_summary(state.get("cumulative", _EMPTY)))
    return "\n".join(lines)
