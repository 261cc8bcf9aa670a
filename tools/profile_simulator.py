"""Measure the simulator's throughput (instructions simulated per second).

The reproduction band for this paper flagged "simple cache sim feasible
but slow on long traces"; this tool reports where this implementation
actually lands, per benchmark and policy, so run scales can be chosen
deliberately.

Usage::

    python tools/profile_simulator.py [--scale 1.0] [benchmarks ...]
    python tools/profile_simulator.py --phases [benchmarks ...]

``--phases`` profiles the fused engine's two passes separately: the
stream pass (expand + event-stream build + functional classification,
paid once per group) and the policy replay (paid once per sibling),
with the replay phase split into the scalar python kernel and the
compiled-C kernel (one-time compile cost reported separately from
execution), plus per-engine
cell counts for the profiled matrix (how many cells each registry
tier would execute).
"""

from __future__ import annotations

import argparse
import time

from repro.analysis import format_table
from repro.core.policies import blocking_cache, mc, no_restrict
from repro.sim.config import baseline_config
from repro.sim.simulator import clear_caches, simulate
from repro.workloads.spec92 import BENCHMARK_ORDER, get_benchmark


def profile_phases(names, scale: float) -> None:
    """Per-group time split between the stream pass and policy replay.

    The replay phase is timed up to twice per policy: through the
    scalar python kernel and the compiled-C kernel, so the table shows
    directly what the C tier buys on each cell.  C-kernel compilation
    (a one-time, disk-cached cost) is timed separately and never
    pollutes the per-replay execution numbers.
    """
    from repro.cpu import ckernel
    from repro.cpu.replay import run_replay
    from repro.cpu.replay_cnative import cnative_supported, run_cnative
    from repro.sim import engines, stream as stream_mod
    from repro.sim.simulator import expand_workload

    policies = [blocking_cache(), mc(1), no_restrict()]
    config = baseline_config()
    geometry = config.geometry
    rows = []
    stream_total = python_total = 0.0
    cnative_total = compile_total = 0.0
    engine_cells = {name: 0 for name in engines.ENGINE_ORDER}
    for name in names:
        workload = get_benchmark(name)
        clear_caches()
        start = time.perf_counter()
        _, trace = expand_workload(workload, 10, scale=scale)
        expand_s = time.perf_counter() - start
        start = time.perf_counter()
        stream = stream_mod.event_stream(workload, 10, scale,
                                         geometry.line_size)
        summary = stream_mod.functional_summary(
            workload, 10, scale, geometry, False)
        stream_s = time.perf_counter() - start
        python_s = cnative_s = 0.0
        replays = cnatives = 0
        for policy in policies:
            cell = baseline_config(policy)
            tier = engines.cell_engine_tier(cell)
            engine_cells[engines.ENGINE_ORDER[tier]] += 1
            if policy.blocking:
                # The closed form reads the functional summary timed
                # above; its own arithmetic is constant time.
                continue
            start = time.perf_counter()
            run_replay(stream, trace, cell)
            python_s += time.perf_counter() - start
            replays += 1
            if cnative_supported(cell) and ckernel.kernels_available():
                start = time.perf_counter()
                ckernel.ensure_kernel(ckernel.family_of(cell))
                compile_total += time.perf_counter() - start
                start = time.perf_counter()
                run_cnative(stream, trace, cell)
                cnative_s += time.perf_counter() - start
                cnatives += 1
        per_python = python_s / replays if replays else 0.0
        per_cnative = cnative_s / cnatives if cnatives else 0.0
        rows.append([
            name, round(1e3 * expand_s, 2), round(1e3 * stream_s, 2),
            round(1e3 * per_python, 2),
            round(1e3 * per_cnative, 2) if cnatives else None,
            round(per_python / per_cnative, 2) if per_cnative else None,
        ])
        stream_total += expand_s + stream_s
        python_total += python_s
        cnative_total += cnative_s
        del summary
    print(format_table(
        ["benchmark", "expand ms", "stream ms", "python ms/policy",
         "C ms/policy", "C x"],
        rows,
    ))
    print(f"\nstream pass total: {stream_total:.3f}s  "
          f"python replay total: {python_total:.3f}s  "
          f"C replay total: {cnative_total:.3f}s")
    built = [k for k in ckernel.loaded_kernels() if k.built]
    print(f"C kernel compile (one-time, disk-cached): {compile_total:.3f}s "
          f"ensure-time, {len(built)} kernels built this run "
          f"({sum(k.compile_seconds for k in built):.3f}s compiler time)")
    counts = "  ".join(f"{name}: {engine_cells[name]}"
                       for name in engines.ENGINE_ORDER)
    print(f"cells by best engine tier: {counts}")
    clear_caches()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmarks", nargs="*",
                        default=["tomcatv", "xlisp", "compress"])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--all", action="store_true",
                        help="profile all 18 benchmarks")
    parser.add_argument("--phases", action="store_true",
                        help="split fused time into stream pass vs replay")
    args = parser.parse_args()

    names = list(BENCHMARK_ORDER) if args.all else args.benchmarks
    if args.phases:
        profile_phases(names, args.scale)
        return
    policies = [blocking_cache(), mc(1), no_restrict()]

    rows = []
    total_instr = 0
    total_time = 0.0
    for name in names:
        workload = get_benchmark(name)
        # Warm the compile/trace caches so we measure the engine, not
        # numpy stream generation.
        simulate(workload, baseline_config(no_restrict()),
                 load_latency=10, scale=args.scale)
        for policy in policies:
            start = time.time()
            result = simulate(workload, baseline_config(policy),
                              load_latency=10, scale=args.scale)
            elapsed = time.time() - start
            rate = result.instructions / elapsed if elapsed else 0.0
            rows.append([name, policy.name, result.instructions,
                         round(elapsed, 3), round(rate / 1e6, 2)])
            total_instr += result.instructions
            total_time += elapsed
    print(format_table(
        ["benchmark", "policy", "instructions", "seconds", "M instr/s"],
        rows,
    ))
    if total_time:
        print(f"\noverall: {total_instr} instructions in {total_time:.2f}s "
              f"= {total_instr / total_time / 1e6:.2f} M instr/s")
    clear_caches()


if __name__ == "__main__":
    main()
