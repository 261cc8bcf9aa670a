"""Benchmark gates for the execution lanes and the telemetry layer.

The default run takes two gated measurements and writes both to
``BENCH_fusion.json``:

* **policy-sibling fusion** (``fusion``) -- a cold benchmarks x
  policies sweep through ``simulate`` (one stream pass per group, each
  sibling on its closed form or replay kernel) vs the reference loop
  re-executing the trace for every sibling, results asserted
  bit-identical; CI enforces a floor via ``--assert-speedup``;
* **telemetry overhead** (``telemetry_overhead``) -- the fixed
  per-cell cost of telemetry against a realistic cell length,
  results asserted bit-identical with telemetry on and off; CI
  enforces ``--assert-overhead 2``.

Two more suites run on their own: ``bench_cnative`` (the C kernel vs
the scalar replay, ``--assert-speedup``) and ``bench_screen`` (the
screening tier's prune rate, ``--assert-prune``).

Usage::

    python tools/perfbench.py [--scale 1.0] [--repeats 3]
    python tools/perfbench.py --smoke        # tiny, for CI
    python tools/perfbench.py --smoke --assert-overhead 2 --assert-speedup 3
    python tools/perfbench.py bench_cnative --smoke --assert-speedup 5
    python tools/perfbench.py bench_screen --smoke --assert-prune 60

Smoke runs are CI wiring checks, not measurements: unless an output
path is given explicitly, ``--smoke`` writes its payloads under the
git-ignored ``bench-smoke/`` directory so they can never clobber the
committed full-run ``BENCH_*.json`` records.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import tempfile
import time

from repro import telemetry
from repro.analysis import format_table
from repro.compiler.ir import KernelBuilder
from repro.core.policies import baseline_policies, blocking_cache
from repro.cpu.reference import run_single_issue_reference
from repro.sim.config import baseline_config
from repro.sim.resultstore import ResultStore
from repro.sim.simulator import clear_caches, expand_workload, simulate
from repro.workloads.patterns import Strided
from repro.workloads.spec92 import get_benchmark
from repro.workloads.workload import Workload

#: Benchmarks of the smoke fusion sweep (the full run takes all 18).
FUSION_SMOKE_BENCHMARKS = ("eqntott", "espresso", "doduc", "ora", "tomcatv",
                           "xlisp")
#: Telemetry overhead samples: at least this many on/off pairs, each
#: timing this many calls of the microscopic cell.
TELEMETRY_MIN_REPEATS = 16
TELEMETRY_MICRO_REPS = 2000


def make_hitloop(iterations: int = 200_000) -> Workload:
    """A fully cache-resident read-modify-write kernel.

    Loads and stores walk the same 4 KB region of the 8 KB cache, so
    after one lap every access -- stores included (the baseline is
    write-around, so stores only hit blocks loads installed) -- is a
    hit.  This is the engine's best case and the headline number.
    """
    builder = KernelBuilder("hitloop")
    s_in = builder.declare_stream()
    s_out = builder.declare_stream()
    x = builder.load(s_in)
    y = builder.fop(x)
    builder.store(s_out, y)
    return Workload(
        name="hitloop",
        kernel=builder.build(),
        patterns={
            s_in: Strided(0, 8, 4096),
            s_out: Strided(0, 8, 4096),
        },
        iterations=iterations,
        max_unroll=4,
    )


SMOKE_DIR = "bench-smoke"


def redirect_smoke_outputs(args, parser) -> None:
    """Point default output paths into the git-ignored smoke directory.

    The repository's committed ``BENCH_*.json`` files are full-run
    records; a ``--smoke`` pass must not overwrite them.  Paths the
    user set explicitly are left alone.
    """
    os.makedirs(SMOKE_DIR, exist_ok=True)
    for attr in ("fusion_out", "cnative_out", "screen_out"):
        default = parser.get_default(attr)
        if getattr(args, attr) == default:
            setattr(args, attr, os.path.join(SMOKE_DIR, default))


def best_of(repeats: int, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_fusion(scale: float, repeats: int, smoke: bool):
    """Cold multi-policy sweep: policy-sibling fusion vs per-cell runs.

    The fusion target workload: every baseline policy over every
    benchmark at one latency -- the Figure 13 shape, where each
    (workload, latency, scale, line size) group is shared by seven
    policy siblings.  Fused (``simulate``), the group's trace is
    expanded and its event stream built once, blocking siblings
    collapse to the functional closed form, and each non-blocking
    sibling runs only its replay kernel.  Unfused, every sibling
    re-executes the trace on the single-issue reference loop
    (:func:`repro.cpu.reference.run_single_issue_reference` on a fresh
    handler, the loop interp-lane cells run), the work fusion exists
    to share.  Caches are cleared before every
    pass so both sides start cold, and every unfused cell's
    ``(stats, cycles, instructions, truedep)`` is asserted equal to the
    fused result's.

    As with the telemetry benchmark, the run length is floored at half
    the calibrated scale even in smoke mode: fusion amortizes per-group
    fixed costs (expansion, stream build, replay setup) over the
    replayed instructions, so microsecond cells measure only the fixed
    costs it exists to amortize.
    """
    from repro.cpu import ckernel
    from repro.workloads.spec92 import BENCHMARK_ORDER

    scale = max(scale, 0.5)
    # Load (or build) the C kernel before timing, as a pooled sweep's
    # prebuild does: the gate measures fusion, never compilation.
    ckernel.kernel_or_cause()
    names = FUSION_SMOKE_BENCHMARKS if smoke else tuple(BENCHMARK_ORDER)
    policies = baseline_policies()
    base = baseline_config()
    cells = [
        (get_benchmark(name), base.with_policy(policy), 10, scale)
        for name in names
        for policy in policies
    ]

    def run_fused():
        clear_caches()
        return [
            simulate(workload, config, load_latency=latency, scale=s)
            for workload, config, latency, s in cells
        ]

    def run_unfused():
        clear_caches()
        out = []
        for workload, config, latency, s in cells:
            _, trace = expand_workload(workload, latency, scale=s)
            handler = config.make_handler()
            counts = run_single_issue_reference(trace, handler)
            out.append((handler.stats,) + counts)
        return out

    t_fused, fused = best_of(repeats, run_fused)
    t_unfused, unfused = best_of(repeats, run_unfused)
    if [(r.miss, r.cycles, r.instructions, r.truedep_stall_cycles)
            for r in fused] != unfused:
        raise AssertionError("fused sweep diverged from unfused execution")
    clear_caches()
    return {
        "benchmarks": len(names),
        "policies": len(policies),
        "cells": len(cells),
        "fused_seconds": t_fused,
        "unfused_seconds": t_unfused,
        "speedup": t_unfused / t_fused,
        "bit_identical": True,
    }


def bench_cnative(scale: float, repeats: int, smoke: bool):
    """Replay phase on streaming and associative cells: C vs scalar.

    The C kernel takes every replayable cell; it is measured on
    the cells where the scalar kernel's turbo lane helps least: two
    streaming FP models at the direct-mapped baseline corner and three
    set-associative corners.  Per workload the group's trace and
    event stream are built once; kernels are compiled (or loaded from
    the disk cache) during the bit-identity check, so the timed
    sweeps measure kernel execution, never compilation.

    Requires a working C compiler: a missing-toolchain environment
    would silently measure the scalar fallback against itself, so the
    bench refuses to run instead.
    """
    from repro.cache.geometry import FULLY_ASSOCIATIVE, CacheGeometry
    from repro.cpu import ckernel
    from repro.cpu.replay import run_replay
    from repro.cpu.replay_cnative import run_cnative
    from repro.sim import stream as stream_mod
    from repro.sim.config import MachineConfig
    from repro.sim.engines import cell_lane
    from repro.sim.simulator import expand_workload

    _, cause = ckernel.kernel_or_cause()
    if cause is not None:
        raise SystemExit(
            f"bench_cnative needs the C kernel ({cause}; set REPRO_CC)"
        )
    scale = max(scale, 0.5)
    base = baseline_config()
    assoc4 = CacheGeometry(size=8 * 1024, line_size=32, associativity=4)
    big2 = CacheGeometry(size=64 * 1024, line_size=32, associativity=2)
    full = CacheGeometry(size=8 * 1024, line_size=32,
                         associativity=FULLY_ASSOCIATIVE)
    suite = [
        ("tomcatv", get_benchmark("tomcatv"), base.geometry, "streaming"),
        ("doduc", get_benchmark("doduc"), base.geometry, "streaming"),
        ("eqntott@4way", get_benchmark("eqntott"), assoc4, "associative"),
        ("xlisp@64KB/2way", get_benchmark("xlisp"), big2, "associative"),
        ("compress@full", get_benchmark("compress"), full, "associative"),
    ]
    if smoke:
        suite = suite[:1] + suite[2:3]
    policies = [p for p in baseline_policies() if not p.blocking]

    clear_caches()
    rows = []
    total_py = total_c = 0.0
    for label, workload, geometry, kind in suite:
        _, trace = expand_workload(workload, 10, scale=scale)
        stream = stream_mod.event_stream(workload, 10, scale,
                                         geometry.line_size)
        configs = [MachineConfig(geometry=geometry, policy=p)
                   for p in policies]
        assert all(cell_lane(c) == "replay" for c in configs)
        # Compiles/loads every kernel the sweep needs, so the timed
        # passes below never pay a build.
        for config in configs:
            c_out = run_cnative(stream, trace, config)
            if c_out is None or c_out != run_replay(stream, trace, config):
                raise AssertionError(
                    f"C kernel diverged on {label}/{config.policy.name}"
                )

        def sweep_replay(run, configs=configs, stream=stream, trace=trace):
            for config in configs:
                run(stream, trace, config)

        t_py, _ = best_of(repeats, lambda: sweep_replay(run_replay))
        t_c, _ = best_of(repeats, lambda: sweep_replay(run_cnative))
        rows.append({
            "cell": label,
            "kind": kind,
            "python_seconds": t_py,
            "cnative_seconds": t_c,
            "speedup": t_py / t_c,
        })
        total_py += t_py
        total_c += t_c
    built = [k for k in ckernel.loaded_kernels() if k.built]
    compile_seconds = sum(k.compile_seconds for k in built)
    clear_caches()
    return {
        "suite": "streaming + associative cells",
        "policies": len(policies),
        "cells": len(suite) * len(policies),
        "compiler": ckernel.find_compiler(),
        "kernels_built": len(built),
        "compile_seconds": compile_seconds,
        "rows": rows,
        "python_seconds": total_py,
        "cnative_seconds": total_c,
        "speedup": total_py / total_c,
        "bit_identical": True,
    }


def bench_telemetry(workloads, scale: float, repeats: int):
    """Per-cell telemetry cost against realistic cell lengths.

    The instrumentation sits at cell granularity -- one record per
    ``simulate`` call, folded into the registry in batches, independent
    of the cell's length -- so its overhead is a fixed per-cell cost
    diluted by however long the cell runs.  Wall-clocking the whole
    suite on vs off cannot resolve that cost on a shared machine: the
    delta is far below the run-to-run noise of multi-millisecond
    windows.  This measures the two factors separately, each where it
    is actually measurable:

    * the **fixed cost**, on a microscopic cell timed in CPU time over
      thousands of calls per sample with the garbage collector paused
      (its pauses dwarf the delta), where the per-call difference is
      orders of magnitude larger relative to the work;
    * the **realistic cell length**, as the telemetry-off suite's mean
      per-cell wall time, floored at half the calibrated scale even in
      smoke mode -- the budget is about cells of realistic length.

    ``overhead_percent`` is their ratio.  The fixed cost tracks the
    host's speed, so ``fixed_over_off_percent`` also reports it against
    the same samples' telemetry-off time of the microscopic cell
    (``off_us_per_cell``, the median off sample).  Bit-identity of
    results with telemetry on vs off is still asserted on the realistic
    suite.
    """
    repeats = max(repeats, TELEMETRY_MIN_REPEATS)
    scale = max(scale, 0.5)

    def run_suite():
        return [simulate(workload, load_latency=10, scale=scale)
                for workload in workloads]

    micro = make_hitloop(200)
    micro_reps = TELEMETRY_MICRO_REPS

    def micro_sample(enabled: bool) -> float:
        telemetry.set_enabled(enabled)
        t0 = time.process_time()
        for _ in range(micro_reps):
            simulate(micro, load_latency=10, scale=scale)
        return (time.process_time() - t0) / micro_reps

    gc_was_enabled = gc.isenabled()
    try:
        telemetry.set_enabled(True)
        results_on = run_suite()  # also warms compile/trace caches
        telemetry.set_enabled(False)
        results_off = run_suite()
        if results_on != results_off:
            raise AssertionError("telemetry changed simulation results")

        # factor 1: fixed per-cell cost.  Median of adjacent on/off
        # pair deltas, not a difference of independent minima: paired
        # samples run milliseconds apart and see the same machine
        # state, while each side's global minimum can come from a
        # different contention regime and skew the difference.
        micro_sample(True)  # warm the micro cell's caches
        gc.disable()
        deltas = []
        offs = []
        for _ in range(repeats):
            on = micro_sample(True)
            off = micro_sample(False)
            deltas.append(on - off)
            offs.append(off)
        fixed_seconds = max(0.0, statistics.median(deltas))
        off_seconds = statistics.median(offs)

        # factor 2: realistic cell length (telemetry off)
        gc.enable()
        telemetry.set_enabled(False)
        suite_seconds = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_suite()
            suite_seconds = min(suite_seconds, time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
        telemetry.set_enabled(None)

    cell_seconds = suite_seconds / len(workloads)
    return {
        "fixed_us_per_cell": fixed_seconds * 1e6,
        "off_us_per_cell": off_seconds * 1e6,
        "fixed_over_off_percent": fixed_seconds / off_seconds * 100.0,
        "cell_ms": cell_seconds * 1e3,
        "overhead_percent": fixed_seconds / cell_seconds * 100.0,
        "bit_identical": True,
    }


def run_cnative_only(args) -> None:
    """The ``perfbench bench_cnative`` entry: C-kernel gate only."""
    cnative = bench_cnative(args.scale, args.repeats, args.smoke)
    print(f"compiled-C replay kernels (replay phase, best of "
          f"{args.repeats}, {cnative['policies']} policies/cell):\n")
    print(format_table(
        ["cell", "kind", "python ms", "C ms", "speedup"],
        [[r["cell"], r["kind"],
          round(1e3 * r["python_seconds"], 1),
          round(1e3 * r["cnative_seconds"], 1),
          round(r["speedup"], 2)] for r in cnative["rows"]],
    ))
    print(f"\n  suite               : {cnative['speedup']:.2f}x")
    print(f"  compiler            : {cnative['compiler']}")
    print(f"  kernels built       : {cnative['kernels_built']} "
          f"({cnative['compile_seconds']:.3f}s, one-time, disk-cached)")
    payload = {
        "scale": args.scale,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "cnative": cnative,
        "telemetry": telemetry.snapshot(),
    }
    with open(args.cnative_out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.cnative_out}")
    if args.assert_speedup is not None:
        if cnative["speedup"] < args.assert_speedup:
            raise SystemExit(
                f"C replay speedup {cnative['speedup']:.2f}x is below "
                f"the {args.assert_speedup:.2f}x floor"
            )
        print(f"C replay speedup meets the "
              f"{args.assert_speedup:.2f}x floor")


def screen_design_catalogue(line_size: int = 32,
                            cache_size: int = 8 * 1024):
    """The studied design catalogue widened with its size ladders.

    ~27 priced designs per scenario; fs entries get a synthetic
    eight-entry price (the per-set limit has no single hardware cost,
    and any monotone pricing exercises the pruning loop the same way).
    """
    from repro.analysis.designspace import design_catalogue
    from repro.core.cost import (
        explicit_mshr_bits,
        hybrid_mshr_bits,
        inverted_mshr_cost,
    )
    from repro.core.policies import fc, fs, inverted, mc, with_layout

    catalogue = list(design_catalogue(line_size=line_size,
                                      cache_size=cache_size))
    for n in (3, 6, 8, 12, 16):
        catalogue.append((
            f"{n} single-field MSHRs", mc(n),
            n * explicit_mshr_bits(line_size, 1),
        ))
    for n in (3, 6, 8):
        catalogue.append((
            f"{n} four-field explicit MSHRs", fc(n),
            n * explicit_mshr_bits(line_size, 4),
        ))
    for n in (1, 2, 4):
        catalogue.append((
            f"fs={n} per-set limit", fs(n),
            8 * explicit_mshr_bits(line_size, 4),
        ))
    for n in (16, 35):
        catalogue.append((
            f"inverted MSHR ({n} dest)", inverted(n),
            inverted_mshr_cost(n, line_size).total_bits,
        ))
    catalogue.append((
        "16 hybrid 4x2 MSHRs", with_layout(4, 2),
        16 * hybrid_mshr_bits(line_size, 4, 2),
    ))
    catalogue.append((
        "lockup cache + write-allocate", blocking_cache(write_allocate=True),
        0,
    ))
    return catalogue


def bench_screen(scale: float, repeats: int, smoke: bool):
    """Screened (auto-fidelity) vs exhaustive design-space sweep.

    Builds a ~1000-cell synthetic design space (workloads x cache
    sizes x latencies, ~27 priced designs each), resolves every
    scenario's Pareto frontier twice -- through the analytical
    screening tier and exhaustively -- and asserts the frontiers are
    identical.  Runs are serial and store-cold (fresh temp store,
    cleared in-memory caches) so the wall-clock comparison measures
    the tiers, not the memoization.  The prune rate counts cells
    resolved without their own exact simulation (closed-form screens
    plus proof-dominated prunes).
    """
    from repro.analysis.designspace import DesignPoint, pareto_frontier
    from repro.analysis.screen import run_band
    from repro.cache.geometry import CacheGeometry
    from repro.sim.config import MachineConfig

    if smoke:
        workload_names = ("eqntott", "compress")
        cache_kbs = (8, 64)
        latencies = (10,)
    else:
        workload_names = ("eqntott", "compress", "espresso", "su2cor",
                          "tomcatv", "doduc")
        cache_kbs = (8, 64, 256)
        latencies = (3, 10, 20)
    catalogue = screen_design_catalogue()
    bits = [b for _, _, b in catalogue]
    scenarios = []
    for name in workload_names:
        workload = get_benchmark(name)
        for kb in cache_kbs:
            geometry = CacheGeometry(size=kb * 1024, line_size=32,
                                     associativity=1)
            for latency in latencies:
                cells = [
                    (workload,
                     MachineConfig(geometry=geometry, policy=policy,
                                   miss_penalty=16, issue_width=1),
                     latency, scale)
                    for _, policy, _ in catalogue
                ]
                scenarios.append((f"{name}/{kb}KB/lat{latency}", cells))

    def run_all(fidelity: str):
        outcome = []
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-screen-") as tmp:
            store = ResultStore(tmp)
            clear_caches()
            for label, cells in scenarios:
                entries, report = run_band(cells, bits, fidelity=fidelity,
                                           store=store)
                outcome.append((label, entries, report))
        return outcome

    t_screen, screened = best_of(repeats, lambda: run_all("auto"))
    t_exact, exhaustive = best_of(repeats, lambda: run_all("exact"))

    def frontier_of(entries):
        points = []
        for entry, (description, policy, storage_bits) in zip(entries,
                                                              catalogue):
            if entry.result is not None:
                mcpi = entry.result.mcpi
            else:
                mcpi = entry.bounds.mcpi_high
            points.append(DesignPoint(description=description,
                                      policy=policy,
                                      storage_bits=storage_bits,
                                      mcpi=mcpi))
        return [(p.description, p.storage_bits, p.mcpi)
                for p in pareto_frontier(points)]

    rows = []
    total_cells = total_simulated = total_pruned = 0
    identical = True
    for (label, entries_s, report_s), (_, entries_e, _) in zip(
            screened, exhaustive):
        frontier_s = frontier_of(entries_s)
        frontier_e = frontier_of(entries_e)
        match = frontier_s == frontier_e
        identical = identical and match
        total_cells += report_s.cells
        total_simulated += report_s.simulated
        total_pruned += report_s.pruned
        rows.append({
            "scenario": label,
            "cells": report_s.cells,
            "closed_form": report_s.exact_screened,
            "pruned": report_s.pruned,
            "simulated": report_s.simulated,
            "waves": report_s.waves,
            "frontier": len(frontier_e),
            "frontier_identical": match,
        })
    if not identical:
        bad = [r["scenario"] for r in rows if not r["frontier_identical"]]
        raise AssertionError(
            f"screened frontier diverged from exhaustive in: {bad}"
        )
    prune_rate = 1.0 - total_simulated / total_cells if total_cells else 0.0
    return {
        "scenarios": len(scenarios),
        "designs_per_scenario": len(catalogue),
        "cells": total_cells,
        "simulated": total_simulated,
        "pruned": total_pruned,
        "prune_rate": prune_rate,
        "frontier_identical": True,
        "screen_seconds": t_screen,
        "exact_seconds": t_exact,
        "speedup": t_exact / t_screen if t_screen else float("inf"),
        "rows": rows,
    }


def run_screen_only(args) -> None:
    """The ``perfbench bench_screen`` entry: screening-tier gate."""
    screen = bench_screen(args.scale, args.repeats, args.smoke)
    print(f"analytical screening tier ({screen['cells']} cells across "
          f"{screen['scenarios']} design-space scenarios, "
          f"{screen['designs_per_scenario']} designs each, "
          f"best of {args.repeats}):\n")
    print(format_table(
        ["scenario", "cells", "closed-form", "pruned", "simulated",
         "waves", "frontier"],
        [[r["scenario"], r["cells"], r["closed_form"], r["pruned"],
          r["simulated"], r["waves"], r["frontier"]]
         for r in screen["rows"]],
    ))
    print(f"\n  exhaustive (exact)   : {screen['exact_seconds']:.3f} s")
    print(f"  screened (auto)      : {screen['screen_seconds']:.3f} s")
    print(f"  speedup              : {screen['speedup']:.2f}x")
    print(f"  prune rate           : {100 * screen['prune_rate']:.1f}% "
          f"({screen['cells'] - screen['simulated']} of "
          f"{screen['cells']} cells never individually simulated)")
    print("  frontiers            : identical to exhaustive "
          "in every scenario")
    payload = {
        "scale": args.scale,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "screen": screen,
        "telemetry": telemetry.snapshot(),
    }
    with open(args.screen_out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.screen_out}")
    if args.assert_prune is not None:
        if 100 * screen["prune_rate"] < args.assert_prune:
            raise SystemExit(
                f"screen prune rate {100 * screen['prune_rate']:.1f}% is "
                f"below the {args.assert_prune:.1f}% floor"
            )
        print(f"screen prune rate meets the "
              f"{args.assert_prune:.1f}% floor")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", nargs="?", default="all",
                        choices=("all", "bench_cnative", "bench_screen"),
                        help="which suite to run: 'all' (default, the "
                             "fusion and telemetry-overhead gates), "
                             "'bench_cnative' (the compiled-C kernel gate "
                             "only), or 'bench_screen' (analytical "
                             "screening tier vs exhaustive design-space "
                             "sweep); --assert-speedup applies to the "
                             "selected suite, --assert-overhead to "
                             "telemetry under 'all', --assert-prune to "
                             "'bench_screen'")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="run-length multiplier for the benchmarks")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny everything (CI wiring check, not a "
                             "meaningful measurement)")
    parser.add_argument("--assert-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail if telemetry overhead exceeds PCT percent")
    parser.add_argument("--fusion-out", default="BENCH_fusion.json")
    parser.add_argument("--cnative-out", default="BENCH_cnative.json")
    parser.add_argument("--screen-out", default="BENCH_screen.json")
    parser.add_argument("--assert-prune", type=float, default=None,
                        metavar="PCT",
                        help="bench_screen: fail if the screened sweep "
                             "prunes fewer than PCT percent of cells")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail if the gated sweep speedup falls below X "
                             "(the fused sweep under 'all', the C "
                             "replay kernels under 'bench_cnative')")
    args = parser.parse_args()

    if args.smoke:
        redirect_smoke_outputs(args, parser)

    if args.bench == "bench_cnative":
        if args.smoke:
            args.repeats = max(args.repeats, 2)
        run_cnative_only(args)
        return

    if args.bench == "bench_screen":
        if args.smoke:
            args.scale = min(args.scale, 0.05)
            args.repeats = 1
        run_screen_only(args)
        return

    if args.smoke:
        args.scale = min(args.scale, 0.05)
        args.repeats = 1
        hit_iterations = 20_000
    else:
        hit_iterations = 200_000

    fusion = bench_fusion(args.scale, args.repeats, args.smoke)
    print(f"cold multi-policy sweep ({fusion['benchmarks']} benchmarks x "
          f"{fusion['policies']} policies, serial):")
    print(f"  fused (stream + replay)       : "
          f"{fusion['fused_seconds']:.3f} s")
    print(f"  unfused (reference loop)      : "
          f"{fusion['unfused_seconds']:.3f} s")
    print(f"  speedup                       : {fusion['speedup']:.2f}x")

    workloads = [
        make_hitloop(hit_iterations),
        get_benchmark("eqntott"),
        get_benchmark("espresso"),
        get_benchmark("ora"),
    ]
    overhead = bench_telemetry(workloads, args.scale, args.repeats)
    print(f"\ntelemetry overhead (fixed per-cell cost vs realistic "
          f"cells, best of {max(args.repeats, TELEMETRY_MIN_REPEATS)}):")
    print(f"  fixed cost per cell   : "
          f"{overhead['fixed_us_per_cell']:.1f} us")
    print(f"  micro cell, off       : "
          f"{overhead['off_us_per_cell']:.1f} us "
          f"(fixed cost {overhead['fixed_over_off_percent']:.1f}% of it)")
    print(f"  realistic cell length : {overhead['cell_ms']:.3f} ms")
    print(f"  overhead              : {overhead['overhead_percent']:+.2f}%")

    payload = {
        "scale": args.scale,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "fusion": fusion,
        "telemetry_overhead": overhead,
        "telemetry": telemetry.snapshot(),
    }
    with open(args.fusion_out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.fusion_out}")

    if args.assert_speedup is not None:
        if fusion["speedup"] < args.assert_speedup:
            raise SystemExit(
                f"fused sweep speedup {fusion['speedup']:.2f}x is below "
                f"the {args.assert_speedup:.2f}x floor"
            )
        print(f"fused sweep speedup meets the "
              f"{args.assert_speedup:.2f}x floor")

    if args.assert_overhead is not None:
        if overhead["overhead_percent"] > args.assert_overhead:
            raise SystemExit(
                f"telemetry overhead {overhead['overhead_percent']:.2f}% "
                f"exceeds the {args.assert_overhead:.2f}% budget"
            )
        print(f"telemetry overhead within the "
              f"{args.assert_overhead:.2f}% budget")


if __name__ == "__main__":
    main()
