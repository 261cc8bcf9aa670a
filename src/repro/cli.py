"""The ``python -m repro`` command line.

Three subcommands cover the interactive workflows:

``simulate``
    Run one benchmark under one or more hardware policies and print
    MCPI with its decomposition::

        python -m repro simulate tomcatv --policy mc=1 --policy "no restrict"
        python -m repro simulate doduc --cache-kb 64 --latency 20

``audit``
    Print a workload model's static profile (reference mix, stream
    footprints, estimated vs measured miss rate).

``trace``
    Print the first N accesses as the miss handler resolves them.

``sweep``
    Benchmarks x policies MCPI table, fanned across a process pool::

        python -m repro sweep --policy mc=1 --policy fc=2 --workers 4
        REPRO_WORKERS=8 python -m repro sweep tomcatv doduc --scale 0.5

``cache``
    Inspect or maintain the on-disk memoized-result store that backs
    every sweep (see ``docs/caching.md``)::

        python -m repro cache stats [--json]
        python -m repro cache clear
        python -m repro cache gc --max-mb 256 --max-age-days 30

``engines``
    Print the C compiler probe, the kernel cache and the lane each kind
    of cell runs on -- in the C kernel or its fallback; see
    ``docs/timing_model.md``::

        python -m repro engines

``screen``
    Analytical MCPI bounds from the stream pass alone -- no replay;
    without benchmarks, print the fidelity ladder (screen / auto /
    exact) and what the current environment resolves to.  ``sweep``
    takes ``--fidelity`` (or ``REPRO_FIDELITY``) to pick the tier;
    see the screening section of ``docs/performance.md``::

        python -m repro screen
        python -m repro screen eqntott compress --policy mc=1
        python -m repro sweep --fidelity auto

``telemetry``
    Inspect the sweep engine's metrics and span traces (see
    ``docs/observability.md``)::

        python -m repro telemetry summary [--json]
        python -m repro telemetry export [--last-run] [--out metrics.prom]
        python -m repro telemetry export --trace-in trace.jsonl --out t.json
        python -m repro telemetry validate --trace-in trace.jsonl
        python -m repro telemetry reset

Policies are named with the paper's labels: ``mc=0``, ``mc=0+wma``,
``mc=N``, ``fc=N``, ``fs=N``, ``no restrict`` (or ``none``),
``in-cache``, ``inverted(N)``, or a field layout like ``layout 2x2``.
The experiments have their own driver: ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import List, Optional

from repro.analysis import format_table
from repro.cache.geometry import FULLY_ASSOCIATIVE, CacheGeometry
from repro.core.policies import (
    MSHRPolicy,
    blocking_cache,
    fc,
    fs,
    in_cache,
    inverted,
    mc,
    no_restrict,
    with_layout,
)
from repro.errors import ConfigurationError, ReproError
from repro.sim.config import MachineConfig
from repro.sim.simulator import simulate
from repro.workloads.spec92 import benchmark_names, get_benchmark


def parse_policy(text: str) -> MSHRPolicy:
    """Parse a paper-style policy label into an :class:`MSHRPolicy`."""
    label = text.strip().lower().replace("_", " ")
    if label in ("no restrict", "none", "unrestricted", "norestrict"):
        return no_restrict()
    if label in ("mc=0+wma", "wma"):
        return blocking_cache(write_allocate=True)
    if label == "mc=0":
        return blocking_cache()
    if label in ("in-cache", "incache", "in cache"):
        return in_cache()
    match = re.fullmatch(r"(mc|fc|fs)=(\d+)", label)
    if match:
        kind, n = match.group(1), int(match.group(2))
        if n == 0:
            raise ConfigurationError("only mc=0 denotes a blocking cache")
        return {"mc": mc, "fc": fc, "fs": fs}[kind](n)
    match = re.fullmatch(r"inverted\((\d+)\)", label)
    if match:
        return inverted(int(match.group(1)))
    match = re.fullmatch(r"layout (\d+)x(\d+|inf)", label)
    if match:
        per = None if match.group(2) == "inf" else int(match.group(2))
        return with_layout(int(match.group(1)), per)
    raise ConfigurationError(
        f"unrecognized policy '{text}'; examples: mc=0, mc=1, fc=2, fs=1, "
        f"'no restrict', in-cache, inverted(70), 'layout 2x2'"
    )


def build_config(args: argparse.Namespace, policy: MSHRPolicy) -> MachineConfig:
    assoc = FULLY_ASSOCIATIVE if args.assoc == 0 else args.assoc
    geometry = CacheGeometry(
        size=args.cache_kb * 1024, line_size=args.line, associativity=assoc
    )
    return MachineConfig(
        geometry=geometry,
        policy=policy,
        miss_penalty=args.penalty,
        issue_width=args.issue,
    )


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (``--workers``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return value


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-kb", type=int, default=8,
                        help="data cache size in KB (default 8)")
    parser.add_argument("--line", type=int, default=32,
                        help="line size in bytes (default 32)")
    parser.add_argument("--assoc", type=int, default=1,
                        help="ways per set; 0 = fully associative")
    parser.add_argument("--penalty", type=int, default=16,
                        help="miss penalty in cycles (default 16)")
    parser.add_argument("--issue", type=int, default=1, choices=(1, 2),
                        help="issue width (default 1)")
    parser.add_argument("--latency", type=int, default=10,
                        help="scheduled load latency (compiler knob)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="run-length multiplier")
    parser.add_argument("--warmup", type=float, default=0.0,
                        help="fraction of the run discarded as cold start")


def _add_fidelity_arg(parser: argparse.ArgumentParser) -> None:
    from repro.analysis.screen import fidelity_names

    parser.add_argument("--fidelity", choices=fidelity_names(),
                        default=None,
                        help="evaluation tier: screen = analytical "
                             "[lower,upper] MCPI bounds without replay, "
                             "auto = screen + simulate the rest, exact = "
                             "simulate everything (default: "
                             "REPRO_FIDELITY or exact)")


def cmd_simulate(args: argparse.Namespace) -> int:
    workload = get_benchmark(args.benchmark)
    labels = args.policy or ["mc=0", "mc=1", "mc=2", "fc=2", "no restrict"]
    rows = []
    for label in labels:
        policy = parse_policy(label)
        config = build_config(args, policy)
        result = simulate(workload, config, load_latency=args.latency,
                          scale=args.scale, warmup=args.warmup)
        if args.issue == 1:
            rows.append([
                policy.name,
                result.mcpi,
                result.truedep_mcpi,
                result.structural_mcpi,
                round(100 * result.miss.load_miss_rate, 2),
                result.miss.primary_misses,
                result.miss.secondary_misses,
                result.miss.structural_misses,
            ])
        else:
            rows.append([
                policy.name, round(result.ipc, 3), result.cycles,
                None, None, result.miss.primary_misses,
                result.miss.secondary_misses, result.miss.structural_misses,
            ])
    headers = (["policy", "MCPI", "truedep", "structural", "miss %",
                "primary", "secondary", "struct-stall"]
               if args.issue == 1 else
               ["policy", "IPC", "cycles", "-", "-",
                "primary", "secondary", "struct-stall"])
    print(f"{workload.name} on "
          f"{build_config(args, no_restrict()).describe()}, "
          f"scheduled latency {args.latency}\n")
    print(format_table(headers, rows))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.workloads.audit import audit_workload

    workload = get_benchmark(args.benchmark)
    audit = audit_workload(workload, load_latency=args.latency)
    print(audit.describe())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.tracelog import format_access_log, record_accesses

    workload = get_benchmark(args.benchmark)
    policy = parse_policy(args.policy[0] if args.policy else "no restrict")
    config = build_config(args, policy)
    records = record_accesses(workload, config, load_latency=args.latency,
                              limit=args.count)
    print(f"{workload.name} under {policy.name}: "
          f"first {len(records)} accesses\n")
    print(format_access_log(records))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.benchreport import benchmark_report

    workload = get_benchmark(args.benchmark)
    print(benchmark_report(workload, scale=args.scale,
                           focus_latency=args.latency,
                           fidelity=args.fidelity))
    return 0


def cmd_benchmarks(_args: argparse.Namespace) -> int:
    for name in benchmark_names():
        workload = get_benchmark(name)
        kind = "fp " if workload.is_fp else "int"
        print(f"{name:10s} [{kind}] {workload.description}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.screen import resolve_fidelity, run_screen_table
    from repro.sim import planner
    from repro.sim.parallel import default_workers
    from repro.sim.sweep import run_table

    names = args.benchmark or list(benchmark_names())
    workloads = [get_benchmark(name) for name in names]
    labels = args.policy or ["mc=0", "mc=1", "mc=2", "fc=2", "no restrict"]
    policies = [parse_policy(label) for label in labels]
    base = build_config(args, policies[0])
    fidelity = resolve_fidelity(args.fidelity, default="exact")
    workers = args.workers if args.workers is not None else default_workers()
    if fidelity.name == "exact":
        table = run_table(
            workloads, policies, load_latency=args.latency, base=base,
            scale=args.scale, workers=workers,
        )
    else:
        table = run_screen_table(
            workloads, policies, load_latency=args.latency, base=base,
            scale=args.scale, workers=workers, fidelity=fidelity.name,
        )
    headers = ["benchmark"] + [p.name for p in policies]
    rows = []
    if fidelity.name == "screen":
        from repro.analysis.tables import format_interval

        for workload in workloads:
            row = [workload.name]
            for p in policies:
                low, high = table.bounds(workload.name, p.name)
                row.append(format_interval(low, high))
            rows.append(row)
        print(f"benchmarks x policies at scheduled latency {args.latency}, "
              f"MCPI bounds (screen fidelity: low~high brackets, "
              f"no replay)\n")
    else:
        for workload in workloads:
            rows.append([workload.name]
                        + [table.mcpi(workload.name, p.name)
                           for p in policies])
        print(f"benchmarks x policies at scheduled latency {args.latency}, "
              f"MCPI\n")
    print(format_table(headers, rows))
    if fidelity.name != "exact" and table.report is not None:
        print(f"\nscreen: {table.report.describe()}")
    if planner.last_report is not None and fidelity.name != "screen":
        print(f"\nplan: {planner.last_report.describe()}")
    return 0


#: (lane, the cells on it, where it runs with a C kernel, without one).
_LANES = (
    ("closed_form", "blocking, single issue",
     "closed form over C kernel classification",
     "closed form over Python classification"),
    ("replay", "non-blocking, single issue", "C kernel", "scalar replay"),
    ("dual", "dual issue, ideal write buffer", "C kernel",
     "reference dual-issue loop"),
    ("interp", "finite write buffer, warmup, single-issue perfect cache",
     "reference loop", "reference loop"),
)


def cmd_engines(_args: argparse.Namespace) -> int:
    from repro.cpu import ckernel

    compiler = ckernel.find_compiler()
    kstats = ckernel.kernel_cache_stats()
    print(f"C compiler: {compiler or 'none found (set REPRO_CC)'}")
    print(f"kernel cache: {kstats['kernels']} compiled kernels, "
          f"{kstats['bytes'] / 1024:.1f} KiB at {kstats['path']}\n")
    rows = [[lane, cells, with_c if compiler else without_c]
            for lane, cells, with_c, without_c in _LANES]
    print(format_table(["lane", "cells", "runs in"], rows))
    print("\nevery lane is bit-identical to the reference loops; a C cell "
          "whose kernel\nfails to build falls back per cell "
          "(docs/timing_model.md)")
    return 0


def cmd_screen(args: argparse.Namespace) -> int:
    from repro.analysis import screen as screen_mod
    from repro.analysis.tables import format_interval

    if not args.benchmark:
        current = screen_mod.resolve_fidelity()
        rows = []
        for name in screen_mod.FIDELITY_ORDER:
            fid = screen_mod.FIDELITIES[name]
            rows.append([name, "<-" if fid is current else "",
                         fid.description])
        print("evaluation fidelities, cheapest first\n")
        print(format_table(["fidelity", "now", "description"], rows))
        env = os.environ.get(screen_mod.FIDELITY_ENV)
        if env is not None:
            source = f"{screen_mod.FIDELITY_ENV}={env}"
        else:
            source = "default (exact; design-space queries default to auto)"
        print(f"\nresolved: {current.name}  [{source}]")
        print("selection: fidelity argument > REPRO_FIDELITY > default; "
              "screened bounds are sound (lower <= exact MCPI <= upper), "
              "closed-form families exact; see docs/performance.md")
        print("give benchmarks to screen them: "
              "python -m repro screen eqntott compress --policy mc=1")
        return 0

    workloads = [get_benchmark(name) for name in args.benchmark]
    labels = args.policy or ["mc=0", "mc=1", "mc=2", "fc=2", "no restrict"]
    policies = [parse_policy(label) for label in labels]
    base = build_config(args, policies[0])
    table = screen_mod.run_screen_table(
        workloads, policies, load_latency=args.latency, base=base,
        scale=args.scale, workers=args.workers, fidelity="screen",
    )
    headers = ["benchmark"] + [p.name for p in policies]
    rows = []
    for workload in workloads:
        row = [workload.name]
        for p in policies:
            low, high = table.bounds(workload.name, p.name)
            row.append(format_interval(low, high))
        rows.append(row)
    print(f"analytical MCPI bounds at scheduled latency {args.latency} "
          f"(no replay; low~high brackets are sound, "
          f"point values exact)\n")
    print(format_table(headers, rows))
    if table.report is not None:
        print(f"\nscreen: {table.report.describe()}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    import json as _json

    from repro.cpu import ckernel
    from repro.sim.resultstore import ResultStore

    store = ResultStore.from_env()
    if args.action == "stats":
        stats = store.stats()
        kstats = ckernel.kernel_cache_stats()
        if args.json:
            payload = stats.to_dict()
            payload["kernels"] = kstats
            print(_json.dumps(payload, indent=2))
        else:
            print(stats.describe())
            compiler = kstats["compiler"] or "no compiler"
            print(f"kernel cache at {kstats['path']}: "
                  f"{kstats['kernels']} compiled kernels, "
                  f"{kstats['bytes'] / 1024:.1f} KiB [{compiler}]")
    elif args.action == "clear":
        # Count kernel files before the store clear: the store owns
        # the whole cache root, so its rmtree takes kernels/ with it.
        kernels = ckernel.clear_kernel_cache()
        removed = store.clear()
        print(f"cleared {removed} cached results from {store.root}")
        print(f"cleared {kernels} compiled kernel files")
    elif args.action == "gc":
        max_bytes = (None if args.max_mb is None
                     else int(args.max_mb * 1024 * 1024))
        removed = store.gc(max_bytes=max_bytes,
                           max_age_days=args.max_age_days)
        kernels = ckernel.gc_kernel_cache()
        print(f"garbage-collected {removed} cached results from {store.root}")
        print(f"garbage-collected {kernels} stale kernel files")
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    import json as _json

    from repro import telemetry
    from repro.telemetry import state as telemetry_state

    if args.action == "summary":
        state = telemetry_state.read_state()
        if args.json:
            print(_json.dumps(state, indent=2))
        else:
            print(telemetry_state.render_summary(state))
    elif args.action == "export":
        if args.trace_in:
            out = args.out or "trace.json"
            events = telemetry.export_chrome_trace(args.trace_in, out)
            print(f"wrote {events} events to {out} "
                  f"(load in chrome://tracing or ui.perfetto.dev)")
            return 0
        state = telemetry_state.read_state()
        section = "last_run" if args.last_run else "cumulative"
        snapshot = (state.get("last_run", {}).get("snapshot", {})
                    if args.last_run else state.get("cumulative", {}))
        text = telemetry.render_prometheus(snapshot)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {section} metrics to {args.out}")
        else:
            print(text, end="")
    elif args.action == "validate":
        if not args.trace_in:
            print("error: validate needs --trace-in FILE", file=sys.stderr)
            return 2
        try:
            events = telemetry.validate_trace_file(args.trace_in)
        except (OSError, ValueError) as exc:
            print(f"error: invalid trace: {exc}", file=sys.stderr)
            return 1
        print(f"{args.trace_in}: {events} valid trace events")
    elif args.action == "reset":
        removed = telemetry_state.reset_state()
        path = telemetry_state.state_path()
        print(f"{'removed' if removed else 'nothing recorded at'} {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Non-blocking load study (Farkas & Jouppi, ISCA 1994).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a benchmark under policies")
    sim.add_argument("benchmark")
    sim.add_argument("--policy", action="append",
                     help="policy label (repeatable); default: the spectrum")
    _add_machine_args(sim)
    sim.set_defaults(func=cmd_simulate)

    audit = sub.add_parser("audit", help="static profile of a model")
    audit.add_argument("benchmark")
    audit.add_argument("--latency", type=int, default=10)
    audit.set_defaults(func=cmd_audit)

    trace = sub.add_parser("trace", help="access-by-access log")
    trace.add_argument("benchmark")
    trace.add_argument("--policy", action="append")
    trace.add_argument("--count", type=int, default=30)
    _add_machine_args(trace)
    trace.set_defaults(func=cmd_trace)

    report = sub.add_parser(
        "report", help="full dossier: audit + curves + decomposition"
    )
    report.add_argument("benchmark")
    report.add_argument("--scale", type=float, default=0.5)
    report.add_argument("--latency", type=int, default=10)
    _add_fidelity_arg(report)
    report.set_defaults(func=cmd_report)

    bench = sub.add_parser("benchmarks", help="list the workload models")
    bench.set_defaults(func=cmd_benchmarks)

    sweep = sub.add_parser(
        "sweep", help="benchmarks x policies MCPI table (parallel)"
    )
    sweep.add_argument("benchmark", nargs="*",
                       help="benchmarks to sweep (default: all)")
    sweep.add_argument("--policy", action="append",
                       help="policy label (repeatable); default: the spectrum")
    sweep.add_argument("--workers", type=_positive_int, default=None,
                       help="process pool size (default: REPRO_WORKERS "
                            "if set, else half the CPUs)")
    _add_machine_args(sweep)
    _add_fidelity_arg(sweep)
    sweep.set_defaults(func=cmd_sweep)

    engines = sub.add_parser(
        "engines",
        help="show the C compiler probe and where each lane runs",
    )
    engines.set_defaults(func=cmd_engines)

    screen = sub.add_parser(
        "screen",
        help="analytical MCPI bounds without replay "
             "(no benchmarks: list the fidelity ladder)",
    )
    screen.add_argument("benchmark", nargs="*",
                        help="benchmarks to screen (default: show ladder)")
    screen.add_argument("--policy", action="append",
                        help="policy label (repeatable)")
    screen.add_argument("--workers", type=_positive_int, default=1,
                        help="workers for cause-tagged fallback cells")
    _add_machine_args(screen)
    screen.set_defaults(func=cmd_screen)

    cache = sub.add_parser(
        "cache", help="manage the on-disk simulation result store"
    )
    cache.add_argument("action", choices=("stats", "clear", "gc"),
                       help="stats: entries + hit counters; clear: remove "
                            "everything; gc: prune by size/age")
    cache.add_argument("--json", action="store_true",
                       help="(stats) machine-readable output")
    cache.add_argument("--max-mb", type=float, default=None,
                       help="(gc) evict oldest entries beyond this footprint")
    cache.add_argument("--max-age-days", type=float, default=None,
                       help="(gc) drop entries older than this")
    cache.set_defaults(func=cmd_cache)

    tele = sub.add_parser(
        "telemetry",
        help="inspect sweep-engine metrics and traces "
             "(see docs/observability.md)",
    )
    tele.add_argument(
        "action", choices=("summary", "export", "validate", "reset"),
        help="summary: last-run + cumulative metrics; export: "
             "Prometheus text (or --trace-in JSONL -> chrome trace); "
             "validate: check a JSONL trace against the schema; "
             "reset: drop the recorded state",
    )
    tele.add_argument("--json", action="store_true",
                      help="(summary) raw state file as JSON")
    tele.add_argument("--last-run", action="store_true",
                      help="(export) export the last run instead of "
                           "the cumulative totals")
    tele.add_argument("--trace-in", type=str, default=None,
                      help="a REPRO_TRACE_FILE JSONL stream to "
                           "validate or convert")
    tele.add_argument("--out", type=str, default=None,
                      help="(export) write to this file instead of stdout")
    tele.set_defaults(func=cmd_telemetry)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. `... | head`); exit quietly like any
        # well-behaved filter.  Detach stdout so interpreter shutdown
        # does not try to flush the dead pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
