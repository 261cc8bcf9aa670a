"""The execution-engine registry: one resolution path for every tier.

Four engines can execute a sweep cell, ordered slowest to fastest:

``reference``
    The plain interpreter loops in :mod:`repro.cpu.reference`.  No
    fast path, no fusion; the ground truth every other tier is tested
    against.
``fastpath``
    The optimized two-tier engine (hit fast path + flattened
    interpreter, :mod:`repro.cpu.pipeline`), one full trace execution
    per cell.
``fused``
    Policy-sibling fusion: one stream pass per (workload, latency,
    scale, line size) group plus a compiled per-policy replay kernel
    (:mod:`repro.sim.stream`, :mod:`repro.cpu.replay`); blocking
    policies collapse to the functional closed form.
``cnative``
    The fused engine with generated-C replay kernels
    (:mod:`repro.cpu.ckernel`, :mod:`repro.cpu.replay_cnative`):
    compiled once per policy family and dlopen'd from the kernel
    cache, they execute the *full* irregular recurrence for every
    replayable cell, direct-mapped and set-associative alike.
    Without a C compiler (``REPRO_CC`` override included) or when a
    build fails, every cell degrades to the scalar replay of the
    ``fused`` tier, cause-tagged under ``engine.cnative.fallback.*``.

All four produce **bit-identical** :class:`~repro.sim.stats.SimulationResult`
objects -- the engine-matrix CI step and
``tests/sim/test_fusion_equivalence.py`` assert it -- so selection is
purely a performance decision and ``ENGINE_VERSION`` never depends on
it.

Selection resolves through exactly one path:

1. an explicit ``engine=`` argument (``simulate``, ``api.simulate``,
   ``ExperimentOptions.engine``, ``--engine``);
2. the ``REPRO_ENGINE`` environment variable (an engine name or
   ``auto``);
3. the default, ``auto``: the fastest tier, falling back per cell.

Each tier *includes* its fallbacks: pinning ``cnative`` still runs
ineligible cells on the fused/fastpath machinery (counted under
``engine.cnative.fallbacks``), while pinning ``fused`` guarantees no
C kernel runs.  ``python -m repro engines`` prints the registry and
the current resolution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import telemetry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Engine:
    """One execution tier: a named capability triple."""

    name: str
    description: str
    #: Use the optimized two-tier interpreter instead of the
    #: reference loops.
    fast_path: bool
    #: Let eligible cells run as stream replays / closed forms.
    fusion: bool
    #: Let eligible replays use the compiled-C kernels.
    cnative: bool


REFERENCE = Engine(
    "reference",
    "unoptimized interpreter loops (ground truth)",
    fast_path=False, fusion=False, cnative=False,
)
FASTPATH = Engine(
    "fastpath",
    "two-tier engine: hit fast path + flattened interpreter",
    fast_path=True, fusion=False, cnative=False,
)
FUSED = Engine(
    "fused",
    "policy-sibling fusion: shared stream pass + compiled replay kernels",
    fast_path=True, fusion=True, cnative=False,
)
CNATIVE = Engine(
    "cnative",
    "fused engine + generated-C replay kernels for every replayable cell",
    fast_path=True, fusion=True, cnative=True,
)

#: Registry order, slowest tier first.
ENGINE_ORDER: Tuple[str, ...] = ("reference", "fastpath", "fused", "cnative")

ENGINES: Dict[str, Engine] = {
    engine.name: engine
    for engine in (REFERENCE, FASTPATH, FUSED, CNATIVE)
}

#: ``auto`` = the fastest tier; per-cell fallback makes it safe.
AUTO_NAME = "auto"
DEFAULT_ENGINE = CNATIVE


def engine_names() -> Tuple[str, ...]:
    """Valid ``REPRO_ENGINE`` / ``engine=`` values, ``auto`` included."""
    return ENGINE_ORDER + (AUTO_NAME,)


def get_engine(name: str) -> Engine:
    """Look up one engine by name (``auto`` resolves to the fastest)."""
    label = name.strip().lower()
    if label == AUTO_NAME:
        return DEFAULT_ENGINE
    engine = ENGINES.get(label)
    if engine is None:
        raise ConfigurationError(
            f"unknown engine '{name}'; valid engines: "
            f"{', '.join(engine_names())}"
        )
    return engine


def resolve_engine(name: Optional[str] = None) -> Engine:
    """The single selection path: argument, ``REPRO_ENGINE``, default.

    ``name=None`` consults ``REPRO_ENGINE``; when that is unset,
    ``auto`` -- the fastest tier with per-cell fallback -- is selected.
    """
    if name is not None:
        return get_engine(name)
    env = os.environ.get("REPRO_ENGINE")
    if env is not None:
        return get_engine(env)
    return DEFAULT_ENGINE


# -- per-cell capability -------------------------------------------------------


def cell_engine_tier(config) -> int:
    """The tier index where this cell's execution actually lands.

    Used by the dispatch layer (:func:`repro.sim.parallel._stream_affinity`)
    to keep cells of equal engine capability adjacent, so a pool group
    stays on one code path and its kernel/stream caches serve every
    member.  Indexes into :data:`ENGINE_ORDER`.  Replayable cells
    report ``cnative`` when a compiler is available and ``fused``
    otherwise.
    """
    from repro.cpu.ckernel import kernels_available
    from repro.cpu.replay import replay_supported

    if replay_supported(config) and kernels_available():
        return ENGINE_ORDER.index("cnative")
    if config.policy.blocking or replay_supported(config):
        return ENGINE_ORDER.index("fused")
    return ENGINE_ORDER.index("fastpath")


#: Cached counter objects: ``count_selection`` runs once per
#: telemetry-enabled ``simulate`` call, inside the overhead budget that
#: ``tools/perfbench.py --assert-overhead`` enforces.
_SELECTION_METRICS = telemetry.MetricHandles(lambda m: {
    name: m.counter(f"engine.selected.{name}") for name in ENGINE_ORDER
})

_CNATIVE_FALLBACK_METRICS = telemetry.MetricHandles(lambda m: {
    "total": m.counter("engine.cnative.fallbacks"),
    "policy": m.counter("engine.cnative.fallback.policy"),
    "nocc": m.counter("engine.cnative.fallback.nocc"),
    "build": m.counter("engine.cnative.fallback.build"),
})


def count_selection(engine: Engine) -> None:
    """Record one cell's resolved engine (``engine.selected.*``)."""
    if telemetry.enabled():
        _SELECTION_METRICS.get()[engine.name].inc()


def count_cnative_fallback(cause: str) -> None:
    """Record one C-tier fallback with its cause tag.

    ``engine.cnative.fallbacks`` is the total;
    ``engine.cnative.fallback.<cause>`` splits it by reason
    (``policy`` for machines outside the replay contract, ``nocc``
    when no C compiler is available, ``build`` when compilation or
    loading failed).
    """
    if telemetry.enabled():
        counters = _CNATIVE_FALLBACK_METRICS.get()
        counters["total"].inc()
        counters[cause].inc()
