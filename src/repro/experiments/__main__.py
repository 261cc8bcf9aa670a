"""Command-line driver for the experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig5 [--scale 1.0]
    python -m repro.experiments all [--scale 0.5] [--out results.txt]
    python -m repro.experiments all --progress   # stderr progress line

Options flow through :class:`repro.experiments.base.ExperimentOptions`
-- unknown names fail loudly instead of silently running defaults.
Telemetry (cells simulated, store hits, per-phase wall time) is
flushed on exit; inspect it with ``python -m repro telemetry summary``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import telemetry
from repro.cli import _positive_int
from repro.errors import ReproError
from repro.experiments import all_experiments, get_experiment
from repro.experiments.base import ExperimentOptions


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=(
            "Regenerate the tables and figures of Farkas & Jouppi, "
            "'Complexity/Performance Tradeoffs with Non-Blocking Loads' "
            "(ISCA 1994)."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig5, fig13, costs), 'all', or 'list'",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="run-length multiplier (default 1.0; smaller is faster)",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="process-pool size for the sweeps behind each figure "
             "(default 1: serial; only cells missing from the result "
             "store are simulated either way)",
    )
    parser.add_argument(
        "--benchmark", type=str, default=None,
        help="benchmark override for single-benchmark figures",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print a per-experiment progress line to stderr",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result store for this run",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="also write the rendered output to this file",
    )
    parser.add_argument(
        "--csv", type=str, default=None,
        help="also write each experiment's rows as CSV into this directory",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.experiment == "list":
        for exp in all_experiments():
            print(f"{exp.experiment_id:8s} {exp.title}  [{exp.paper_reference}]")
        return 0

    if args.experiment == "all":
        experiments = all_experiments()
    else:
        try:
            experiments = [get_experiment(args.experiment)]
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    total = len(experiments)
    completed = 0

    def progress(experiment_id: str, event: str, elapsed: float) -> None:
        if event == "start":
            print(f"[{completed + 1}/{total}] {experiment_id} ...",
                  file=sys.stderr, flush=True)
        elif event == "done":
            print(f"[{completed + 1}/{total}] {experiment_id} "
                  f"done in {elapsed:.1f}s", file=sys.stderr, flush=True)
        else:
            print(f"[{completed + 1}/{total}] {experiment_id} "
                  f"FAILED after {elapsed:.1f}s", file=sys.stderr, flush=True)

    chunks: List[str] = []
    for exp in experiments:
        options = ExperimentOptions(
            scale=args.scale,
            workers=args.workers if args.workers is not None else 1,
            benchmark=args.benchmark,
            cache=not args.no_cache,
            progress=progress if args.progress else None,
        )
        start = time.time()
        try:
            result = exp.run(options=options)
        except ReproError as exc:
            print(f"error running {exp.experiment_id}: {exc}", file=sys.stderr)
            return 1
        completed += 1
        elapsed = time.time() - start
        text = result.render()
        chunks.append(text)
        print(text)
        print(f"\n({exp.experiment_id} regenerated in {elapsed:.1f}s "
              f"at scale {args.scale})\n")
        if args.csv:
            import os

            os.makedirs(args.csv, exist_ok=True)
            written = result.to_csv(args.csv)
            print(f"wrote {written}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n\n".join(chunks) + "\n")
        print(f"wrote {args.out}")
    # The drivers shared one persistent pool across every figure;
    # retire it now rather than leaving idle workers to the timer.
    from repro.sim.parallel import shutdown_pool

    shutdown_pool()
    telemetry.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout went away (e.g. `... | head`); exit quietly and keep
        # interpreter shutdown from flushing the dead pipe.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
