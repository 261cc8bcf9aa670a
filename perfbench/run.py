"""End-to-end benchmark: regenerate the paper, search the MSHR design space.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
tracing off; ``--trace 1`` is a separate run that wraps every layer's
public entry points (``layers.py``) and reports the per-layer table.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  End-to-end
times are divided by a scale for the host's load during the run
(``hostspeed.py``).  The workloads, metrics and checks are described in
``perfbench/README.md``.

Every run is hermetic: inherited ``REPRO_*`` variables are dropped, and
the result store, the kernel cache, the telemetry state and ``TMPDIR``
all live in a fresh directory under ``.perfbench-tmp/`` that is removed
on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from hostspeed import HostSpeed
from layers import KERNEL_BUILD, LAYER_NAMES, LAYERS, Tally, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: Timed rounds per run never drop below these, whatever ``--seconds``.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
#: Kernel builds into an empty cache per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

E2E_UNITS = {
    "setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB",
    "fig13_log2_err_mean": "log2", "fig13_orders_kept": "count",
}
#: Self-time metrics that keep the names the layer table uses.
SELF_NAMES = {"plane": "plane.publish_s", "kernel_build": "kernel_build.s"}
#: Layers the traced run reports from its pool pass, not its cold pass.
POOL_LAYERS = ("plane",)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (design-auto re-seeds every "
                             "model with it; the paper workloads ignore it)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's output digests as the "
                             f"golden ones (seed {DEFAULT_SEED} only)")
    return parser.parse_args(argv)


# -- hermetic environment ------------------------------------------------------


def hermetic_env(run_dir: Path) -> Path:
    """Drop inherited ``REPRO_*`` settings; point every cache into run_dir.

    Returns the result-store root, which also holds the kernel cache.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    for name in ("cache", "telemetry", "tmp"):
        (run_dir / name).mkdir()
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["REPRO_TELEMETRY_DIR"] = str(run_dir / "telemetry")
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = None
    return run_dir / "cache"


def wipe_store(cache_dir: Path) -> None:
    """Empty the result store but keep the kernels setup built."""
    for entry in cache_dir.iterdir():
        if entry.name == "kernels":
            continue
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()


def peak_rss_kb() -> int:
    """Peak resident set size (``VmHWM``) of this process, in KiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker the trace plane started.

    ``multiprocessing`` leaves it running until interpreter exit and
    never waits for it; ``_stop`` is its own shutdown hook.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def rebuild_kernels(cache_dir: Path, families) -> float:
    """Build every family into an empty kernel cache; return seconds."""
    from repro.cpu import ckernel

    shutil.rmtree(cache_dir / "kernels", ignore_errors=True)
    ckernel.reset_probe()
    start = time.perf_counter()
    if ckernel.kernels_available():
        for family in families:
            try:
                ckernel.ensure_kernel(family)
            except ckernel.KernelBuildError:
                pass  # the simulator falls back per cell, as in any run
    return time.perf_counter() - start


# -- passes --------------------------------------------------------------------


class Run:
    """The passes of one benchmark run, their timings and outputs."""

    def __init__(self, workload, cache_dir: Path, tracer: Tracer) -> None:
        self.workload = workload
        self.cache_dir = cache_dir
        self.tracer = tracer
        #: (kind, outputs) per pass, checked once timing is over.
        self.passes: List[tuple] = []

    def _timed(self, kind: str, tally, workers: int = 1) -> float:
        # Untimed: what the previous pass or the wipe left for the kernel
        # to write back reaches the disk, and the garbage is collected,
        # so neither runs inside this pass.  Without the sync, warm passes
        # that follow a cold pass's thousands of store writes take about
        # a fifth longer, by an amount that varies with writeback timing.
        os.sync()
        gc.collect()
        self.tracer.tally = tally
        start = time.perf_counter()
        try:
            outputs = self.workload.run_pass(workers)
        finally:
            elapsed = time.perf_counter() - start
            self.tracer.tally = None
        if tally is not None:
            tally.wall_s += elapsed
        self.passes.append((kind, outputs))
        return elapsed

    def cold_pass(self, tally=None, workers: int = 1) -> float:
        """One pass from an empty store, no live pool, cleared caches.

        With ``workers`` above 1 it is a *pool* pass, checked against
        the cold pass before it.
        """
        from repro.sim.parallel import shutdown_pool
        from repro.sim.simulator import clear_caches

        shutdown_pool()
        wipe_store(self.cache_dir)
        clear_caches()
        try:
            return self._timed("cold" if workers == 1 else "pool", tally,
                               workers)
        finally:
            shutdown_pool()

    def warm_pass(self, tally=None) -> float:
        """One pass against the filled store, in-memory caches cleared."""
        from repro.sim.simulator import clear_caches

        clear_caches()
        return self._timed("warm", tally)

    def failures(self, golden: Dict[str, str]) -> tuple:
        """(attempted, failed): each operation of each pass counts once.

        An operation fails when it raised, when the workload's check
        rejects its output, or when a warm or pool pass's output differs
        from the cold pass before it.
        """
        attempted = failed = 0
        reference: Dict[str, object] = {}
        for kind, outputs in self.passes:
            bad = set(self.workload.check(outputs, golden))
            if kind == "cold":
                reference = outputs
            else:
                bad |= {op for op, out in outputs.items()
                        if out != reference.get(op)}
            for op in sorted(bad):
                out = outputs[op]
                print(f"FAILED {kind} {op}: "
                      + (repr(out) if isinstance(out, Exception)
                         else "wrong output"))
            attempted += len(outputs)
            failed += len(bad)
        return attempted, failed


def until(seconds: float, step, min_steps: int) -> None:
    """Call ``step`` until another call would end after ``seconds``."""
    start = time.perf_counter()
    steps = 0
    while True:
        began = time.perf_counter()
        step()
        steps += 1
        now = time.perf_counter()
        if steps >= min_steps and now - start + (now - began) > seconds:
            return


def _times(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


# -- the two kinds of run ------------------------------------------------------


def end_to_end(seconds: float, run: Run, import_s: float, families,
               first_build_s: float) -> Dict[str, float]:
    """Timed rounds of a cold pass and warm passes; setup samples between.

    The first setup sample is the kernel builds of the warm-up pass; the
    rebuilds that follow sit between warm passes, and the host-speed
    kernel runs after every pass from the end of the first round on, so
    every kind of sample is spread over the whole run rather than taken
    in one burst of host contention.  Times are divided by the run's
    host scale (``hostspeed.py``).
    """
    setup = [first_build_s]
    cold: List[float] = []
    warm: List[float] = []
    rss_kb: List[int] = []
    host: List[HostSpeed] = []

    def sample_host():
        for h in host:
            h.sample()

    def round_():
        cold.append(run.cold_pass())
        sample_host()
        for i in range(run.workload.warm_per_round):
            warm.append(run.warm_pass())
            sample_host()
            if i == 0 and len(setup) < SETUP_SAMPLES:
                setup.append(rebuild_kernels(run.cache_dir, families))
        if not rss_kb:
            # The first round's peak, read before the host-speed kernel
            # allocates its tables: later rounds only add allocator
            # drift, and how many of them fit depends on the host's speed.
            rss_kb.append(peak_rss_kb())
            host.append(HostSpeed())
            sample_host()

    until(seconds, round_, MIN_ROUNDS)
    scale = host[0].scale()
    err, compared, violated = run.workload.fidelity()
    print(f"passes: cold {_times(cold)} s; warm {_times(warm)} s")
    print(f"setup: imports {import_s:.3f} s + kernel builds {_times(setup)} s "
          f"({len(families)} families)")
    print(f"host factor {host[0].factor():.3f}: median of "
          f"{len(host[0].samples)} host-speed kernel runs over the reference "
          f"host's (parts: {host[0].describe()}); times divided by "
          f"{scale:.3f}")
    print(f"fig13: mean |log2(ours/paper)| {err:.4f}; {compared - violated} "
          f"of {compared} orderings kept, {violated} violated")
    return {
        "setup_s": (import_s + statistics.median(setup)) / scale,
        "cold_s": statistics.median(cold) / scale,
        "warm_s": statistics.median(warm) / scale,
        "peak_rss_mb": rss_kb[0] / 1024,
        "fig13_log2_err_mean": err,
        "fig13_orders_kept": compared - violated,
    }


def _average(tallies: List[Tally]) -> Tally:
    mean = Tally()
    n = len(tallies)
    for t in tallies:
        for mine, theirs in ((mean.calls, t.calls), (mean.self_s, t.self_s),
                             (mean.total_s, t.total_s),
                             (mean.extra, t.extra)):
            for name, value in theirs.items():
                mine[name] += value / n
        mean.wall_s += t.wall_s / n
    return mean


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(seconds: float, run: Run, families) -> Dict[str, float]:
    """Untraced and traced passes alternate; spans from the latter.

    A round is an untraced cold pass, then traced: a cold pass, a warm
    pass and, where the workload has one, a pool pass, the only pass
    whose sweeps go through the pool and the trace plane.
    """
    from repro import telemetry
    from repro.experiments import all_experiments

    tracer = run.tracer
    build = Tally()
    with tracer.tracing(KERNEL_BUILD, build):
        build.wall_s = rebuild_kernels(run.cache_dir, families)

    workers = run.workload.POOL_WORKERS
    host = HostSpeed()
    untraced: List[float] = []
    colds: List[Tally] = []
    warms: List[Tally] = []
    pools: List[Tally] = []
    #: Telemetry deltas of the traced cold passes and of the pool passes.
    cold_deltas: List[Dict] = []
    pool_deltas: List[Dict] = []

    def observed(deltas: List[Dict], pass_, *args) -> None:
        before = telemetry.snapshot()
        pass_(*args)
        deltas.append(telemetry.snapshot_diff(before, telemetry.snapshot()))

    def round_():
        untraced.append(run.cold_pass())
        host.sample()
        cold, warm, pool = Tally(), Tally(), Tally()
        tracer.install(LAYERS)
        try:
            observed(cold_deltas, run.cold_pass, cold)
            run.warm_pass(warm)
            if workers:
                observed(pool_deltas, run.cold_pass, pool, workers)
        finally:
            tracer.uninstall()
        colds.append(cold)
        warms.append(warm)
        pools.append(pool)

    until(seconds, round_, MIN_TRACED_ROUNDS)
    cold, warm, pool = _average(colds), _average(warms), _average(pools)

    def counter(deltas: List[Dict], name: str) -> float:
        return statistics.mean(
            [d["counters"].get(name, 0.0) for d in deltas] or [0.0])

    def histogram_sum(deltas: List[Dict], name: str) -> float:
        return statistics.mean(
            [d["histograms"].get(name, {}).get("sum", 0.0) for d in deltas]
            or [0.0])

    metrics: Dict[str, float] = {}
    for name in LAYER_NAMES:
        tally = (build if name == "kernel_build"
                 else pool if name in POOL_LAYERS else cold)
        metrics[f"{name}.calls"] = tally.calls[name]
        metrics[SELF_NAMES.get(name, f"{name}.self_s")] = tally.self_s[name]
        if tally is cold:
            metrics[f"warm.{name}.calls"] = warm.calls[name]
            metrics[f"warm.{name}.self_s"] = warm.self_s[name]
    for exp in all_experiments():
        key = f"experiment.{exp.experiment_id}.s"
        metrics[key] = cold.extra[key]

    e = cold.extra
    busy = counter(pool_deltas, "pool.worker_busy_seconds")
    misses = counter(cold_deltas, "sim.stream_cache.misses")
    hits = counter(cold_deltas, "sim.stream_cache.hits")
    traced_wall = build.wall_s + cold.wall_s
    metrics.update({
        "stream.miss_ratio": _ratio(misses, misses + hits),
        "replay.native.accept_ratio": _ratio(
            e["replay.native.accepted"], cold.calls["replay.native"]),
        "replay.cnative.accept_ratio": _ratio(
            e["replay.cnative.accepted"], cold.calls["replay.cnative"]),
        "store.hit_ratio": _ratio(
            e["store.get.accepted"], cold.calls["store.get"]),
        "plan.dedup_ratio": _ratio(e["plan.deduplicated"], e["plan.cells"]),
        "screen.prune_ratio": _ratio(e["screen.pruned"], e["screen.cells"]),
        "screen.simulated": e["screen.simulated"],
        "pool.traced_wall_s": pool.wall_s,
        "pool.dispatch.calls": pool.calls["dispatch"],
        "pool.dispatch.self_s": pool.self_s["dispatch"],
        "pool.worker_busy_s": busy,
        "pool.utilization": _ratio(busy, workers * pool.total_s["dispatch"]),
        "pool.queue_wait_s": histogram_sum(pool_deltas,
                                           "pool.queue_wait_seconds"),
        "plane.bytes": (counter(pool_deltas, "plane.bytes_published")
                        + counter(pool_deltas, "plane.stream_bytes_published")),
        "traced_wall_s": traced_wall,
        "unattributed_s": (traced_wall - build.self_s["kernel_build"]
                           - sum(cold.self_s.values())),
        "warm.traced_wall_s": warm.wall_s,
        "warm.unattributed_s": warm.wall_s - sum(warm.self_s.values()),
        "trace_overhead_ratio": (statistics.median(c.wall_s for c in colds)
                                 / statistics.median(untraced) - 1),
        "host_factor": host.factor(),
    })
    print_layer_table(build, cold, warm, pool)
    print(f"passes: untraced cold {_times(untraced)} s; traced cold "
          f"{_times(c.wall_s for c in colds)} s; traced pool "
          f"{_times(p.wall_s for p in pools)} s")
    return metrics


def print_layer_table(build: Tally, cold: Tally, warm: Tally,
                      pool: Tally) -> None:
    """Calls and self seconds per layer, one column pair per pass kind."""
    passes = (("cold", cold), ("warm", warm), ("pool", pool))
    print(f"{'layer':16s}" + "".join(
        f" {kind + ' calls':>10s} {kind + ' self_s':>11s}"
        for kind, _ in passes))
    for name, _, _ in LAYERS:
        print(f"{name:16s}" + "".join(
            f" {t.calls[name]:10.0f} {t.self_s[name]:11.3f}"
            for _, t in passes))
    for label, value in (
            ("unattributed", lambda t: t.wall_s - sum(t.self_s.values())),
            ("traced wall", lambda t: t.wall_s)):
        print(f"{label:16s}" + "".join(
            f" {'':10s} {value(t):11.3f}" for _, t in passes))
    print(f"kernel rebuild: {build.calls['kernel_build']:.0f} builds, "
          f"{build.self_s['kernel_build']:.3f} s of {build.wall_s:.3f} s")


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".calls") or name == "screen.simulated":
        return "count"
    if name == "plane.bytes":
        return "bytes"
    return "ratio"


# -- entry point ---------------------------------------------------------------


def bench(args, cache_dir: Path) -> dict:
    start = time.perf_counter()
    import repro.analysis.designspace  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.sim.parallel  # noqa: F401
    from repro.cpu import ckernel
    import_s = time.perf_counter() - start

    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}, seed {args.seed}" + (
        "" if workload.seeded else
        " (regenerates fixed artifacts: the seed does not apply)"))
    tracer = Tracer()
    first_build = Tally()
    with tracer.tracing(KERNEL_BUILD, first_build):
        workload.warm_up()
    families = sorted({k.family for k in ckernel.loaded_kernels()}, key=repr)
    run = Run(workload, cache_dir, tracer)
    if args.trace:
        metrics = per_layer(args.seconds, run, families)
    else:
        metrics = end_to_end(args.seconds, run, import_s, families,
                             first_build.total_s["kernel_build"])

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.write_golden:
        if workload.seeded and args.seed != DEFAULT_SEED:
            raise SystemExit(f"golden digests are recorded at seed "
                             f"{DEFAULT_SEED} only")
        golden[workload.golden_key] = {
            op: digest(out) for op, out in run.passes[0][1].items()}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    attempted, failed = run.failures(golden.get(workload.golden_key, {}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    cache_dir = hermetic_env(run_dir)
    sys.path.insert(0, str(src))
    os.chdir(run_dir)
    try:
        result = bench(args, cache_dir)
    finally:
        if "repro.sim.parallel" in sys.modules:
            from repro import telemetry
            from repro.sim.parallel import shutdown_pool

            shutdown_pool()
            stop_resource_tracker()
            telemetry.set_enabled(False)  # no state file flushed at exit
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    print(f"{result['attempted']} operations, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
