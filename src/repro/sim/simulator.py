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

from types import SimpleNamespace
from typing import Optional, Tuple

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
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.lru import LRUCache
from repro.sim.resultstore import compile_key, group_key
from repro.sim.stats import SimulationResult
from repro.sim.trace import ExpandedTrace, expand
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
    from repro.sim.stream import clear_stream_caches

    _COMPILE_CACHE.clear()
    _TRACE_CACHE.clear()
    clear_stream_caches()
    clear_bounds_caches()


#: Cached metric objects for the per-cell emission sites below; a cell
#: emits over a dozen metrics, and the per-name registry lookups they
#: would otherwise pay are most of the telemetry overhead budget that
#: ``tools/perfbench.py --assert-overhead`` enforces.
_METRICS = telemetry.MetricHandles(lambda m: SimpleNamespace(
    compile_hits=m.counter("sim.compile_cache.hits"),
    compile_misses=m.counter("sim.compile_cache.misses"),
    trace_hits=m.counter("sim.trace_cache.hits"),
    trace_misses=m.counter("sim.trace_cache.misses"),
    cells=m.counter("sim.cells"),
    instructions=m.counter("sim.instructions"),
    cycles=m.counter("sim.cycles"),
    truedep=m.counter("sim.stall.truedep_cycles"),
    structural=m.counter("sim.stall.structural_cycles"),
    blocking=m.counter("sim.stall.blocking_cycles"),
    write_allocate=m.counter("sim.stall.write_allocate_cycles"),
    write_buffer=m.counter("sim.stall.write_buffer_cycles"),
    closed_form=m.counter("fusion.closed_form"),
    replays=m.counter("fusion.replays"),
    cnative_replays=m.counter("engine.cnative.replays"),
    cnative_dual=m.counter("engine.cnative.dual_issue"),
    bypasses=m.counter("fusion.bypasses"),
    cache_compiled=m.gauge("engine.cache.compiled"),
    cache_traces=m.gauge("engine.cache.traces"),
    cache_streams=m.gauge("engine.cache.streams"),
    cache_summaries=m.gauge("engine.cache.summaries"),
    gauge_sizes=[None],
))


def _update_cache_gauges() -> None:
    """Publish every in-memory LRU cache's size as a telemetry gauge.

    Skips the gauge writes when nothing changed since the previous
    cell -- the steady state of a warm sweep -- because this runs once
    per cell inside the telemetry overhead budget.  The last-published
    sizes live inside the handle bundle, so a registry reset (which
    rebuilds the bundle) republishes on the next cell.
    """
    from repro.sim.stream import cache_sizes

    streams, summaries = cache_sizes()
    sizes = (len(_COMPILE_CACHE), len(_TRACE_CACHE), streams, summaries)
    m = _METRICS.get()
    if m.gauge_sizes[0] == sizes:
        return
    m.gauge_sizes[0] = sizes
    m.cache_compiled.set(sizes[0])
    m.cache_traces.set(sizes[1])
    m.cache_streams.set(sizes[2])
    m.cache_summaries.set(sizes[3])


def compile_workload(workload: Workload, load_latency: int) -> CompiledBody:
    """Compile (with caching) a workload's kernel for ``load_latency``."""
    key = compile_key(workload, load_latency)
    body = _COMPILE_CACHE.get(key)
    if body is None:
        if telemetry.enabled():
            _METRICS.get().compile_misses.inc()
        body = compile_kernel(
            workload.kernel,
            load_latency,
            max_unroll=workload.max_unroll,
            software_pipeline=workload.software_pipeline,
        )
        _COMPILE_CACHE.put(key, body)
    elif telemetry.enabled():
        _METRICS.get().compile_hits.inc()
    return body


def trace_cached(
    workload: Workload, load_latency: int, scale: float = 1.0
) -> bool:
    """Whether this process already holds the workload's expanded trace.

    Pool workers consult this before attaching a shared-memory trace
    segment (:mod:`repro.sim.traceplane`): a persistent worker's warm
    cache makes the attach redundant.
    """
    key = group_key(workload, load_latency, scale)
    return _TRACE_CACHE.get(key) is not None


def install_trace(
    workload: Workload,
    load_latency: int,
    trace: ExpandedTrace,
    scale: float = 1.0,
) -> None:
    """Seed the trace cache with an externally built expansion.

    The trace plane uses this to hand workers zero-copy traces built
    over shared memory; the subsequent ``simulate`` call then hits the
    cache exactly as if the worker had expanded locally.  The caller
    guarantees the trace is bit-identical to what :func:`expand` would
    produce for the same key -- the parallel-equivalence tests enforce
    it end to end.
    """
    _TRACE_CACHE.put(group_key(workload, load_latency, scale), trace)


def expand_workload(
    workload: Workload, load_latency: int, scale: float = 1.0
) -> Tuple[CompiledBody, ExpandedTrace]:
    """Compile and expand (with caching) a workload."""
    compiled = compile_workload(workload, load_latency)
    key = group_key(workload, load_latency, scale)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        if telemetry.enabled():
            _METRICS.get().trace_misses.inc()
        trace = expand(workload, compiled, scale=scale)
        _TRACE_CACHE.put(key, trace)
    elif telemetry.enabled():
        _METRICS.get().trace_hits.inc()
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

    When telemetry is enabled each call contributes one ``simulate``
    span plus the per-cell counters catalogued in
    ``docs/observability.md``; the result itself is bit-identical
    either way (the instrumentation only reads the outcome).
    """
    if config is None:
        config = baseline_config()
    if not telemetry.enabled():
        return _simulate_impl(workload, config, load_latency, scale, warmup)
    policy_name = "perfect" if config.perfect_cache else config.policy.name
    with telemetry.span(
        "simulate", workload=workload.name, policy=policy_name,
        load_latency=load_latency, scale=scale,
    ):
        result = _simulate_impl(workload, config, load_latency, scale,
                                warmup)
    miss = result.miss
    m = _METRICS.get()
    m.cells.inc()
    m.instructions.inc(result.instructions)
    m.cycles.inc(result.cycles)
    m.truedep.inc(result.truedep_stall_cycles)
    m.structural.inc(miss.structural_stall_cycles)
    m.blocking.inc(miss.blocking_stall_cycles)
    m.write_allocate.inc(miss.write_allocate_stall_cycles)
    m.write_buffer.inc(miss.write_buffer_stall_cycles)
    _update_cache_gauges()
    return result


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


def _try_fused(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float,
    trace: ExpandedTrace,
):
    """Run one ``closed_form`` or ``replay`` cell over the stream pass.

    Returns ``(stats, cycles, instructions, truedep)`` or ``None``
    when the cell must fall back to full execution (no memory ops in
    the body, or a stream the builders decline).  Blocking policies
    collapse to the functional summary's closed form; non-blocking
    policies replay in the C kernel (:mod:`repro.cpu.replay_cnative`),
    or in the scalar replay kernel when no C kernel can be had.
    """
    from repro.cpu.replay import run_blocking_summary, run_replay
    from repro.cpu.replay_cnative import run_cnative
    from repro.sim import stream as stream_mod

    if config.policy.blocking:
        summary = stream_mod.functional_summary(
            workload, load_latency, scale, config.geometry,
            config.policy.write_allocate_blocking,
        )
        if summary is None:
            return None
        handler = config.make_handler()
        out = run_blocking_summary(summary, handler)
        if out is None:  # pragma: no cover - guards re-checked above
            return None
        cycles, instructions, truedep = out
        stats = handler.stats
        if telemetry.enabled():
            _METRICS.get().closed_form.inc()
    else:
        stream = stream_mod.event_stream(
            workload, load_latency, scale, config.geometry.line_size,
        )
        if stream is None:
            return None
        out = run_cnative(stream, trace, config)
        cnative_hit = out is not None
        if out is None:
            out = run_replay(stream, trace, config)
        if out is None:
            return None
        stats, cycles, instructions, truedep = out
        if telemetry.enabled():
            # ``fusion.replays`` counts every replayed cell regardless
            # of lane; ``engine.cnative.replays`` is the compiled-C
            # subset.
            _METRICS.get().replays.inc()
            if cnative_hit:
                _METRICS.get().cnative_replays.inc()
    return stats, cycles, instructions, truedep


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
) -> SimulationResult:
    compiled, trace = _expand_cell(workload, config, load_latency, scale,
                                   warmup)
    lane = engines_mod.cell_lane(config, warmup)
    out = None
    if lane == "dual":
        out = run_dual_issue(trace, config)
        if out is not None and telemetry.enabled():
            _METRICS.get().cnative_dual.inc()
    elif lane != "interp":
        out = _try_fused(workload, config, load_latency, scale, trace)
    elif config.write_buffer_depth is not None:
        # The C lanes model only the ideal write buffer.
        engines_mod.count_cnative_fallback("policy")
    if out is None:
        if telemetry.enabled():
            _METRICS.get().bypasses.inc()
        out = _interpret(trace, config, warmup)
    return _result(workload, config, load_latency, compiled, out)


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
