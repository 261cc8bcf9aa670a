"""Per-cell routing: the one lane each sweep cell runs on.

A cell's machine fixes its lane (:func:`cell_lane`):

``closed_form``
    Blocking single-issue caches collapse to the functional summary's
    closed form (:func:`repro.cpu.replay.run_blocking_summary`).  The
    summary's hit/miss counts come from one pass over the group's
    event stream, classified in the C kernel
    (:func:`repro.cpu.replay_cnative.classify_cnative`), or in Python
    when no kernel can be had; the cell itself runs no C.
``replay``
    Non-blocking single-issue caches replay their policy over the
    group's shared event stream (:mod:`repro.sim.stream`) in the C
    kernel (``repro/cpu/kernel.c``, driven by
    :mod:`repro.cpu.replay_cnative`), or in the scalar replay
    (:mod:`repro.cpu.replay`) when no kernel can be had.
``dual``
    Dual-issue machines with the ideal write buffer run in the C
    kernel's dual-issue driver, or in the reference dual-issue loop
    (:mod:`repro.cpu.reference`) when no kernel can be had.
``interp``
    A finite write buffer, a warmup discard or a single-issue perfect
    cache runs the reference loop (:mod:`repro.cpu.reference`), as
    does any cell the stream pass declines (a body without memory
    ops).

The one choice that changes speed -- C kernel or its fallback -- is
made per cell from the compiler probe
(:func:`repro.cpu.ckernel.kernels_available`): a C lane that cannot
get a kernel degrades bit-identically, counted under
``engine.cnative.fallback.<cause>``.  A classification that cannot
get one falls back the same way, uncounted: it is a per-summary
precompute, like building the stream, not a cell.  Every lane is
bit-identical to the reference loops
(:func:`repro.sim.simulator.simulate_reference`), so routing never
changes a number and ``ENGINE_VERSION`` never depends on it.
"""

from __future__ import annotations

from repro import telemetry

#: Lanes whose cells themselves run in the C kernel when a compiler
#: is available (a closed-form cell only reads a summary classified
#: there).
C_LANES = ("replay", "dual")


def cell_lane(config, warmup: float = 0.0) -> str:
    """The lane a cell runs on.

    ``closed_form`` (blocking, single issue), ``replay`` (non-blocking,
    single issue), ``dual`` (the C dual-issue driver) or ``interp``
    (the reference loop: a finite write buffer, a warmup discard or a
    single-issue perfect cache).  The one routing predicate:
    ``_simulate_impl`` dispatches on it, the pool clusters and
    pre-builds the C kernel by it, and ``python -m repro engines``
    reports it.
    """
    if config.write_buffer_depth is not None or warmup:
        return "interp"
    if config.issue_width == 2:
        return "dual"
    if config.perfect_cache:
        return "interp"
    return "closed_form" if config.policy.blocking else "replay"


_CNATIVE_FALLBACK_METRICS = telemetry.MetricHandles(lambda m: {
    "total": m.counter("engine.cnative.fallbacks"),
    "policy": m.counter("engine.cnative.fallback.policy"),
    "nocc": m.counter("engine.cnative.fallback.nocc"),
    "build": m.counter("engine.cnative.fallback.build"),
})


def count_cnative_fallback(cause: str) -> None:
    """Record one cell that did not run in the C kernel, with its cause.

    ``engine.cnative.fallbacks`` is the total;
    ``engine.cnative.fallback.<cause>`` splits it by reason
    (``policy`` for machines off the C lanes' contract, such as a
    finite write buffer, ``nocc`` when no C compiler is available,
    ``build`` when compilation or loading failed).
    """
    if telemetry.enabled():
        counters = _CNATIVE_FALLBACK_METRICS.get()
        counters["total"].inc()
        counters[cause].inc()
