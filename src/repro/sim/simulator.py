"""Top-level simulation driver: compile, expand, execute, account.

``simulate(workload, config, load_latency)`` is the package's central
entry point.  It runs the compiler pipeline (cached per workload and
latency, since the paper sweeps many hardware configurations over each
schedule), expands the address streams, executes the trace on the
selected processor model, and returns a
:class:`repro.sim.stats.SimulationResult`.

Caching: compiled bodies and expanded traces are memoized in bounded
LRU caches keyed on *content*, never on ``id()`` -- object ids are
reused after garbage collection and would silently alias entries
during long sweeps.  Bodies are keyed on the compile identity
(:func:`repro.sim.resultstore.compile_key`), traces on the group
identity (:func:`repro.sim.resultstore.group_key`): the whole
workload's content, as the result store keys it, with the latency and
scale.  The bounds keep week-long sweeps from growing memory without
limit; sizes were chosen so a full paper-scale sweep (18 benchmarks x
6 latencies) still fits.

Each cell runs on the one lane its machine fixes
(:func:`repro.sim.engines.cell_lane`): closed form, replay or dual
issue, in the C kernel where one loads, or the reference loops of
:mod:`repro.cpu.reference` for the rare cells no fast lane models.
:func:`simulate_reference` runs any cell on those reference loops, the
oracle every lane is tested against.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from operator import attrgetter
from typing import List, Optional, Tuple

from repro import telemetry
from repro.compiler.pipeline import CompiledBody, compile_kernel
from repro.errors import ConfigurationError
from repro.cpu.pipeline import PerfectCacheHandler
from repro.cpu.reference import (
    run_dual_issue_reference,
    run_single_issue_reference,
)
from repro.cpu.replay_cnative import run_dual_issue
from repro.sim import engines as engines_mod
from repro.sim import stream as stream_mod
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.lru import LRUCache
from repro.sim.resultstore import compile_key, group_key
from repro.sim.stats import SimulationResult
from repro.sim.trace import ExpandedTrace, expand
from repro.telemetry import spans
from repro.workloads.workload import Workload

#: Version tag for the engine's *observable* semantics.  The on-disk
#: result store (:mod:`repro.sim.resultstore`) folds this into every
#: cell fingerprint, so bump it whenever a change alters any simulated
#: number (timing model, accounting, trace expansion) and every stale
#: cached result silently becomes a miss.  Pure speedups that keep
#: results bit-identical must NOT bump it.
ENGINE_VERSION = "engine-2"

#: Interp-lane loop; perfbench/layers.py wraps it by this name (``interp``).
run_single_issue = run_single_issue_reference

#: Compiled bodies are small; traces hold the full address buffers, so
#: their cache is kept tighter.
_COMPILE_CACHE = LRUCache(512)
_TRACE_CACHE = LRUCache(64)


def clear_caches() -> None:
    """Drop cached schedules, traces, and event streams (tests use this)."""
    from repro.sim.bounds import clear_bounds_caches

    _COMPILE_CACHE.clear()
    _TRACE_CACHE.clear()
    stream_mod.clear_stream_caches()
    clear_bounds_caches()


# -- per-cell telemetry --------------------------------------------------------

#: Records held before :func:`simulate` folds them itself.
PENDING_BOUND = 256

#: Records of cells not yet folded into the registry; ``result`` and
#: ``outcome`` are ``None`` for a cell that raised.
_PENDING: List[Tuple[float, Optional[SimulationResult], Optional[str]]] = []

#: The registry counters each cell outcome moves.  An outcome names the
#: lane that served the cell (``closed_form``, ``replay``, ``dual``, or
#: ``bypass`` for the reference loops) and, for a C lane, ``c`` or the
#: cause the C kernel was not used: ``policy`` (a finite write buffer,
#: which no C lane models), ``nocc`` (no compiler) or ``build``.
OUTCOME_COUNTERS = {
    "closed_form": ("fusion.closed_form",),
    "replay.c": ("fusion.replays", "engine.cnative.replays"),
    "replay.nocc": ("fusion.replays", "engine.cnative.fallbacks",
                    "engine.cnative.fallback.nocc"),
    "replay.build": ("fusion.replays", "engine.cnative.fallbacks",
                     "engine.cnative.fallback.build"),
    "dual.c": ("engine.cnative.dual_issue",),
    "bypass": ("fusion.bypasses",),
    "bypass.policy": ("fusion.bypasses", "engine.cnative.fallbacks",
                      "engine.cnative.fallback.policy"),
    "bypass.nocc": ("fusion.bypasses", "engine.cnative.fallbacks",
                    "engine.cnative.fallback.nocc"),
    "bypass.build": ("fusion.bypasses", "engine.cnative.fallbacks",
                     "engine.cnative.fallback.build"),
}

#: Registered in full, zeros included, once a fold sees a fallback.
_FALLBACK_COUNTERS = ("engine.cnative.fallbacks",
                      "engine.cnative.fallback.policy",
                      "engine.cnative.fallback.nocc",
                      "engine.cnative.fallback.build")

#: A completed cell's counters, summed over its result.
_RESULT_COUNTERS = tuple((name, attrgetter(field)) for name, field in (
    ("sim.instructions", "instructions"),
    ("sim.cycles", "cycles"),
    ("sim.stall.truedep_cycles", "truedep_stall_cycles"),
    ("sim.stall.structural_cycles", "miss.structural_stall_cycles"),
    ("sim.stall.blocking_cycles", "miss.blocking_stall_cycles"),
    ("sim.stall.write_allocate_cycles", "miss.write_allocate_stall_cycles"),
    ("sim.stall.write_buffer_cycles", "miss.write_buffer_stall_cycles"),
))

#: The counter prefixes of the caches :func:`_lookups` reads, in order.
_LOOKUP_PREFIXES = ("sim.compile_cache", "sim.trace_cache",
                    "sim.stream_cache")

#: Registered in full, zeros included, once the compile cache is used.
_CELL_COUNTERS = (
    "sim.compile_cache.hits", "sim.compile_cache.misses",
    "sim.trace_cache.hits", "sim.trace_cache.misses", "sim.cells",
    *(name for name, _ in _RESULT_COUNTERS),
    "fusion.closed_form", "fusion.replays", "engine.cnative.replays",
    "engine.cnative.dual_issue", "fusion.bypasses",
)
_CACHE_GAUGES = ("engine.cache.compiled", "engine.cache.traces",
                 "engine.cache.streams", "engine.cache.summaries")

_collect_lock = threading.Lock()


def _lookups() -> Tuple[int, ...]:
    """Hits and misses so far of the compile, trace and stream caches,
    then the streams built."""
    return (_COMPILE_CACHE.hits, _COMPILE_CACHE.misses,
            _TRACE_CACHE.hits, _TRACE_CACHE.misses,
            stream_mod._STREAM_CACHE.hits, stream_mod._STREAM_CACHE.misses,
            stream_mod._streams_built)


#: The counts the previous collection stopped at.
_lookups_seen = _lookups()


def _collect(registry) -> None:
    """Fold the pending cell records, cache lookups and stream builds
    into ``registry``.

    ``None`` drops them instead: lookups and builds made while
    telemetry is off never reach a counter.  The telemetry package
    calls this before every read (:func:`repro.telemetry.collect`).
    """
    global _lookups_seen
    if not _PENDING and _lookups() == _lookups_seen:
        return
    with _collect_lock:
        records = _PENDING[:]
        del _PENDING[:len(records)]
        lookups = _lookups()
        moved = [now - then for now, then in zip(lookups, _lookups_seen)]
        _lookups_seen = lookups
    if registry is None:
        return
    if moved[0] or moved[1]:
        for name in _CELL_COUNTERS:
            registry.counter(name)
        for name in _CACHE_GAUGES:
            registry.gauge(name)
    for prefix, hits, misses in zip(_LOOKUP_PREFIXES, moved[0:6:2],
                                    moved[1:6:2]):
        if hits:
            registry.counter(f"{prefix}.hits").inc(hits)
        if misses:
            registry.counter(f"{prefix}.misses").inc(misses)
    if moved[6]:
        registry.counter("fusion.streams_built").inc(moved[6])
    if not records:
        return
    registry.histogram(
        "span.simulate.seconds", help="wall time inside 'simulate' spans",
    ).observe_many([seconds for seconds, _, _ in records])
    results = [result for _, result, _ in records if result is not None]
    if not results:
        return
    registry.counter("sim.cells").inc(len(results))
    for name, field in _RESULT_COUNTERS:
        registry.counter(name).inc(sum(map(field, results)))
    outcomes = Counter(outcome for _, result, outcome in records
                       if result is not None)
    for outcome, cells in outcomes.items():
        names = OUTCOME_COUNTERS[outcome]
        if "engine.cnative.fallbacks" in names:
            for name in _FALLBACK_COUNTERS:
                registry.counter(name)
        for name in names:
            registry.counter(name).inc(cells)
    sizes = ((len(_COMPILE_CACHE), len(_TRACE_CACHE))
             + stream_mod.cache_sizes())
    for name, size in zip(_CACHE_GAUGES, sizes):
        registry.gauge(name).set(size)


telemetry.set_collector(_collect)


def compile_workload(workload: Workload, load_latency: int) -> CompiledBody:
    """Compile (with caching) a workload's kernel for ``load_latency``."""
    key = compile_key(workload, load_latency)
    body = _COMPILE_CACHE.get(key)
    if body is None:
        body = compile_kernel(
            workload.kernel,
            load_latency,
            max_unroll=workload.max_unroll,
            software_pipeline=workload.software_pipeline,
        )
        _COMPILE_CACHE.put(key, body)
    return body


def expand_workload(
    workload: Workload, load_latency: int, scale: float = 1.0
) -> Tuple[CompiledBody, ExpandedTrace]:
    """Compile and expand (with caching) a workload."""
    compiled = compile_workload(workload, load_latency)
    key = group_key(workload, load_latency, scale)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = expand(workload, compiled, scale=scale)
        _TRACE_CACHE.put(key, trace)
    return compiled, trace


def simulate(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    load_latency: int = 10,
    scale: float = 1.0,
    warmup: float = 0.0,
) -> SimulationResult:
    """Run ``workload`` on ``config`` with the given scheduled latency.

    ``scale`` shrinks or grows the run length (1.0 = the workload's
    default iteration count); the compiler sweep parameters follow the
    paper's Section 3.3 definitions.  ``warmup`` (a fraction of the
    run, 0..1) discards the cold-start prefix from every reported
    statistic -- single-issue only.

    The cell runs on the lane its machine fixes
    (:func:`repro.sim.engines.cell_lane`); a C lane without a kernel
    falls back per cell.  Every lane is bit-identical to
    :func:`simulate_reference`.

    When telemetry is enabled each call appends one record (its time,
    result and outcome) that feeds the ``span.simulate.seconds``
    histogram and the per-cell counters catalogued in
    ``docs/observability.md`` when telemetry is read, and writes one
    ``simulate`` trace event while a sink is active; the result itself
    is bit-identical either way.
    """
    if config is None:
        config = baseline_config()
    if not telemetry.enabled():
        return _simulate_impl(workload, config, load_latency, scale,
                              warmup)[0]
    sink = spans.active_sink()
    wall_start = time.time() if sink is not None else 0.0
    result = outcome = None
    start = time.perf_counter()
    try:
        result, outcome = _simulate_impl(workload, config, load_latency,
                                         scale, warmup)
    finally:
        seconds = time.perf_counter() - start
        _PENDING.append((seconds, result, outcome))
        if sink is not None:
            _write_cell_event(sink, wall_start, seconds, workload, config,
                              load_latency, scale)
        if len(_PENDING) >= PENDING_BOUND:
            telemetry.collect()
    return result


def _write_cell_event(sink, wall_start: float, seconds: float,
                      workload: Workload, config: MachineConfig,
                      load_latency: int, scale: float) -> None:
    """The cell's ``simulate`` trace event, as a span would write it."""
    args = {
        "workload": workload.name,
        "policy": "perfect" if config.perfect_cache else config.policy.name,
        "load_latency": load_latency,
        "scale": scale,
    }
    parent = spans.current_span()
    if parent is not None:
        args["_parent"] = parent
    spans.write_event(sink, "simulate", wall_start, seconds, args)


def simulate_reference(
    workload: Workload,
    config: Optional[MachineConfig] = None,
    load_latency: int = 10,
    scale: float = 1.0,
    warmup: float = 0.0,
) -> SimulationResult:
    """The same cell as :func:`simulate`, on the reference loops.

    The test oracle: every access goes through a fresh handler's
    ``load``/``store`` in :mod:`repro.cpu.reference`, which shares no
    code with the stream pass, the replay kernels or the C kernel.
    Compile, expansion and result assembly are :func:`simulate`'s;
    no telemetry is recorded.
    """
    if config is None:
        config = baseline_config()
    compiled, trace = _expand_cell(workload, config, load_latency, scale,
                                   warmup)
    out = _interpret(trace, config, warmup)
    return _result(workload, config, load_latency, compiled, out)


def _closed_form(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float,
) -> Tuple[Optional[Tuple], str]:
    """Run one ``closed_form`` cell from its functional summary.

    Returns ``(out, outcome)``: ``out`` is ``(stats, cycles,
    instructions, truedep)``, or ``None`` when the cell must fall back
    to full execution (a body without memory ops); ``outcome`` is its
    key in :data:`OUTCOME_COUNTERS`.
    """
    from repro.cpu.replay import run_blocking_summary

    summary = stream_mod.functional_summary(
        workload, load_latency, scale, config.geometry,
        config.policy.write_allocate_blocking,
    )
    if summary is None:
        return None, "bypass"
    handler = config.make_handler()
    out = run_blocking_summary(summary, handler)
    if out is None:  # pragma: no cover - the lane guarantees the guards
        return None, "bypass"
    return (handler.stats,) + out, "closed_form"


def _replay(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float,
    trace: ExpandedTrace,
) -> Tuple[Optional[Tuple], str]:
    """Run one ``replay`` cell over the group's event stream, as
    :func:`_closed_form` does: in the C kernel
    (:mod:`repro.cpu.replay_cnative`), or in the scalar replay kernel,
    under the cause, when no C kernel can be had."""
    from repro.cpu.replay import run_replay
    from repro.cpu.replay_cnative import bind_machine, run_cnative

    stream = stream_mod.event_stream(
        workload, load_latency, scale, config.geometry.line_size,
    )
    if stream is None:
        return None, "bypass"
    machine, cause = bind_machine(stream, config)
    if machine is None:
        return run_replay(stream, trace, config), "replay." + cause
    return run_cnative(stream, trace, config), "replay.c"


def _expand_cell(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float,
    warmup: float,
) -> Tuple[CompiledBody, ExpandedTrace]:
    """Validate a cell's warmup, then compile and expand its workload."""
    if not 0.0 <= warmup < 1.0:
        raise ConfigurationError(f"warmup must lie in [0, 1): {warmup}")
    if warmup and config.issue_width != 1:
        raise ConfigurationError(
            "warmup discard is implemented for the single-issue model"
        )
    return expand_workload(workload, load_latency, scale=scale)


def _interpret(trace: ExpandedTrace, config: MachineConfig,
               warmup: float) -> Tuple:
    """Execute the whole trace on a fresh handler, on the reference loops.

    Returns ``(stats, cycles, instructions, truedep)``.
    """
    if config.perfect_cache:
        handler = PerfectCacheHandler()
    else:
        handler = config.make_handler()
    if config.issue_width == 2:
        counts = run_dual_issue_reference(trace, handler)
    else:
        counts = run_single_issue(
            trace, handler, warmup_executions=int(trace.executions * warmup))
    return (handler.stats,) + counts


def _simulate_impl(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float,
    warmup: float,
) -> Tuple[SimulationResult, str]:
    """Run one cell; returns its result and its outcome (the key of
    :data:`OUTCOME_COUNTERS` naming the lane that served it)."""
    compiled, trace = _expand_cell(workload, config, load_latency, scale,
                                   warmup)
    lane = engines_mod.cell_lane(config, warmup)
    if lane == "closed_form":
        out, outcome = _closed_form(workload, config, load_latency, scale)
    elif lane == "replay":
        out, outcome = _replay(workload, config, load_latency, scale, trace)
    elif lane == "dual":
        out, cause = run_dual_issue(trace, config)
        outcome = "dual.c" if out is not None else "bypass." + cause
    else:
        out = None
        # The C lanes model only the ideal write buffer.
        outcome = ("bypass" if config.write_buffer_depth is None
                   else "bypass.policy")
    if out is None:
        out = _interpret(trace, config, warmup)
    return _result(workload, config, load_latency, compiled, out), outcome


def _result(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    compiled: CompiledBody,
    out: Tuple,
) -> SimulationResult:
    """Assemble a cell's result from ``(stats, cycles, instructions,
    truedep)`` and check its accounting identity."""
    stats, cycles, instructions, truedep = out
    policy_name = "perfect" if config.perfect_cache else config.policy.name
    result = SimulationResult(
        workload=workload.name,
        policy=policy_name,
        load_latency=load_latency,
        instructions=instructions,
        cycles=cycles,
        truedep_stall_cycles=truedep,
        miss=stats,
        issue_width=config.issue_width,
        unroll_factor=compiled.unroll_factor,
        spill_count=compiled.spill_count,
    )
    if config.issue_width == 1 and not config.perfect_cache:
        result.verify_accounting()
    return result
