"""Top-level simulation driver: compile, expand, execute, account.

``simulate(workload, config, load_latency)`` is the package's central
entry point.  It runs the compiler pipeline (cached per workload and
latency, since the paper sweeps many hardware configurations over each
schedule), expands the address streams, executes the trace on the
selected processor model, and returns a
:class:`repro.sim.stats.SimulationResult`.

Caching: compiled bodies and expanded traces are memoized in bounded
LRU caches keyed on the *content* of the kernel (workload name plus
:meth:`repro.compiler.ir.Kernel.fingerprint`), never on ``id()`` --
object ids are reused after garbage collection and would silently
alias entries during long sweeps.  The bounds keep week-long sweeps
from growing memory without limit; sizes were chosen so a full
paper-scale sweep (18 benchmarks x 6 latencies) still fits.

Engine selection goes through the registry in
:mod:`repro.sim.engines`: four tiers (reference / fastpath / fused /
cnative), selectable per call (``engine=``), per process
(``REPRO_ENGINE``), or implicitly (``auto`` = fastest applicable per
cell).  All tiers produce bit-identical results.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Tuple

from repro import telemetry
from repro.compiler.pipeline import CompiledBody, compile_kernel
from repro.errors import ConfigurationError
from repro.cpu.pipeline import PerfectCacheHandler, run_single_issue
from repro.cpu.reference import (
    run_dual_issue_reference,
    run_single_issue_reference,
)
from repro.cpu.replay_cnative import run_dual_issue
from repro.sim import engines as engines_mod
from repro.sim.config import MachineConfig, baseline_config
from repro.sim.lru import LRUCache
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


def _kernel_identity(workload: Workload) -> Tuple:
    """Stable cache-key component for a workload's kernel."""
    return (workload.name, workload.kernel.fingerprint())


def fusion_default() -> bool:
    """Whether the resolved engine lets eligible cells run fused.

    Resolution goes through :func:`repro.sim.engines.resolve_engine`
    (``REPRO_ENGINE`` or ``auto``).  Results are bit-identical either
    way.
    """
    return engines_mod.resolve_engine().fusion


def compile_workload(
    workload: Workload, load_latency: int, unroll_override: int = 0
) -> CompiledBody:
    """Compile (with caching) a workload's kernel for ``load_latency``."""
    key = (_kernel_identity(workload), load_latency, workload.max_unroll,
           unroll_override, workload.software_pipeline)
    body = _COMPILE_CACHE.get(key)
    if body is None:
        if telemetry.enabled():
            _METRICS.get().compile_misses.inc()
        body = compile_kernel(
            workload.kernel,
            load_latency,
            max_unroll=workload.max_unroll,
            unroll_override=unroll_override,
            software_pipeline=workload.software_pipeline,
        )
        _COMPILE_CACHE.put(key, body)
    elif telemetry.enabled():
        _METRICS.get().compile_hits.inc()
    return body


def _trace_key(
    workload: Workload,
    load_latency: int,
    scale: float,
    unroll_override: int = 0,
) -> Tuple:
    """The trace cache key: everything expansion depends on."""
    return (
        _kernel_identity(workload),
        load_latency,
        workload.max_unroll,
        unroll_override,
        workload.software_pipeline,
        workload.iterations,
        workload.seed,
        scale,
    )


def trace_cached(
    workload: Workload,
    load_latency: int,
    scale: float = 1.0,
    unroll_override: int = 0,
) -> bool:
    """Whether this process already holds the workload's expanded trace.

    Pool workers consult this before attaching a shared-memory trace
    segment (:mod:`repro.sim.traceplane`): a persistent worker's warm
    cache makes the attach redundant.
    """
    key = _trace_key(workload, load_latency, scale, unroll_override)
    return _TRACE_CACHE.get(key) is not None


def install_trace(
    workload: Workload,
    load_latency: int,
    trace: ExpandedTrace,
    scale: float = 1.0,
    unroll_override: int = 0,
) -> None:
    """Seed the trace cache with an externally built expansion.

    The trace plane uses this to hand workers zero-copy traces built
    over shared memory; the subsequent ``simulate`` call then hits the
    cache exactly as if the worker had expanded locally.  The caller
    guarantees the trace is bit-identical to what :func:`expand` would
    produce for the same key -- the parallel-equivalence tests enforce
    it end to end.
    """
    key = _trace_key(workload, load_latency, scale, unroll_override)
    _TRACE_CACHE.put(key, trace)


def expand_workload(
    workload: Workload,
    load_latency: int,
    scale: float = 1.0,
    unroll_override: int = 0,
) -> Tuple[CompiledBody, ExpandedTrace]:
    """Compile and expand (with caching) a workload."""
    compiled = compile_workload(workload, load_latency, unroll_override)
    key = _trace_key(workload, load_latency, scale, unroll_override)
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
    unroll_override: int = 0,
    warmup: float = 0.0,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Run ``workload`` on ``config`` with the given scheduled latency.

    ``scale`` shrinks or grows the run length (1.0 = the workload's
    default iteration count); the compiler sweep parameters follow the
    paper's Section 3.3 definitions.  ``warmup`` (a fraction of the
    run, 0..1) discards the cold-start prefix from every reported
    statistic -- single-issue only.

    ``engine`` names an execution tier from the registry
    (:mod:`repro.sim.engines`); ``None`` resolves through
    ``REPRO_ENGINE`` / the ``auto`` default.  Every tier is
    bit-identical; cells a tier cannot execute fall back to the next
    one transparently.

    When telemetry is enabled each call contributes one ``simulate``
    span plus the per-cell counters catalogued in
    ``docs/observability.md``; the result itself is bit-identical
    either way (the instrumentation only reads the outcome).
    """
    if config is None:
        config = baseline_config()
    resolved = engines_mod.resolve_engine(engine)
    if not telemetry.enabled():
        return _simulate_impl(workload, config, load_latency, scale,
                              unroll_override, warmup, resolved)
    engines_mod.count_selection(resolved)
    policy_name = "perfect" if config.perfect_cache else config.policy.name
    with telemetry.span(
        "simulate", workload=workload.name, policy=policy_name,
        load_latency=load_latency, scale=scale,
    ):
        result = _simulate_impl(workload, config, load_latency, scale,
                                unroll_override, warmup, resolved)
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


def _try_fused(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float,
    unroll_override: int,
    trace: ExpandedTrace,
    cnative: bool = False,
):
    """Attempt the fused (stream-replay) execution of one cell.

    Returns ``(stats, cycles, instructions, truedep)`` or ``None``
    when the cell must fall back to full execution (no memory ops in
    the body, or a stream the builders decline).  The caller passes
    only ``closed_form`` and ``replay`` lanes
    (:func:`repro.sim.engines.cell_lane`).  Blocking policies collapse
    to the functional summary's closed form; non-blocking policies run a
    compiled replay kernel: the C kernel when ``cnative`` is set and a
    kernel can be built (:mod:`repro.cpu.replay_cnative`), the scalar
    kernel otherwise.
    """
    from repro.cpu.replay import run_blocking_summary, run_replay
    from repro.cpu.replay_cnative import run_cnative
    from repro.sim import stream as stream_mod

    if config.policy.blocking:
        summary = stream_mod.functional_summary(
            workload, load_latency, scale, config.geometry,
            config.policy.write_allocate_blocking, unroll_override,
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
            unroll_override,
        )
        if stream is None:
            return None
        out = run_cnative(stream, trace, config) if cnative else None
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


def _simulate_impl(
    workload: Workload,
    config: MachineConfig,
    load_latency: int,
    scale: float,
    unroll_override: int,
    warmup: float,
    engine: engines_mod.Engine,
) -> SimulationResult:
    compiled, trace = expand_workload(
        workload, load_latency, scale=scale, unroll_override=unroll_override
    )

    if not 0.0 <= warmup < 1.0:
        raise ConfigurationError(f"warmup must lie in [0, 1): {warmup}")
    if warmup and config.issue_width != 1:
        raise ConfigurationError(
            "warmup discard is implemented for the single-issue model"
        )

    lane = engines_mod.cell_lane(config, warmup)
    out = None
    if lane == "dual" and engine.cnative:
        out = run_dual_issue(trace, config)
        if out is not None and telemetry.enabled():
            _METRICS.get().cnative_dual.inc()
    elif lane in ("closed_form", "replay") and engine.fusion:
        out = _try_fused(workload, config, load_latency, scale,
                         unroll_override, trace, engine.cnative)
    elif config.write_buffer_depth is not None and engine.cnative:
        # The C lanes model only the ideal write buffer.
        engines_mod.count_cnative_fallback("policy")
    if out is None:
        if engine.fusion and telemetry.enabled():
            _METRICS.get().bypasses.inc()
        if config.perfect_cache:
            handler = PerfectCacheHandler()
        else:
            handler = config.make_handler()
        if config.issue_width == 2:
            counts = run_dual_issue_reference(trace, handler)
        else:
            run = (run_single_issue if engine.fast_path
                   else run_single_issue_reference)
            counts = run(trace, handler,
                         warmup_executions=int(trace.executions * warmup))
        out = (handler.stats,) + counts
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

