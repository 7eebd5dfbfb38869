"""CLI for the experiment harness.

Usage::

    python -m repro.experiments                # run everything
    python -m repro.experiments fig3 table1    # selected experiments
    python -m repro.experiments --figure fig3  # same, flag form
    python -m repro.experiments --scale 0.03125 --seed 7 fig5
    python -m repro.experiments --datasets cant,pwtk fig3
    python -m repro.experiments --workers 4 fig3       # parallel fan-out
    python -m repro.experiments --no-cache fig3        # force recompute
    python -m repro.experiments --figure fig3 --obs-out trace.json

Results are bit-identical for any ``--workers`` value.  Finished units are
cached under ``--cache-dir`` (default ``.repro-cache``) keyed by config +
code version, so repeated and incremental invocations skip finished work;
per-experiment cache hit/miss counters appear in the run summary.

Fault tolerance (docs/ENGINE.md): ``--task-timeout SECONDS`` arms the
engine's stall watchdog (a hung pool is killed and its unfinished tasks
retried) and ``--max-retries N`` bounds per-task re-attempts.  The final
summary reports the *effective* worker count plus any recovered
retries/timeouts/quarantines, and a run whose pool permanently fell back
to serial prints a DEGRADED line to stderr instead of silently claiming
the configured width.

Observability: ``--obs-out PATH`` records spans/metrics for the whole run
and writes a Chrome trace-event file (open it in ``chrome://tracing`` or
summarize with ``python -m repro.obs summary PATH``); ``--obs-summary``
prints the aggregate table instead of (or besides) writing a file;
``--obs-off`` forces recording off even when an output flag is present.
Recording never changes a computed number (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import obs
from repro.experiments import REGISTRY, ExperimentConfig
from repro.util.errors import ValidationError

#: Default persistent result-cache directory (relative to the CWD).
DEFAULT_CACHE_DIR = ".repro-cache"


def build_parser() -> argparse.ArgumentParser:
    """The harness's argument parser (exposed for the API snapshot/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"experiment ids to run (default: all of {', '.join(REGISTRY)})",
    )
    parser.add_argument(
        "--figure",
        action="append",
        dest="figures",
        default=[],
        metavar="ID",
        help="experiment id to run (repeatable flag form of the positional)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=ExperimentConfig().scale,
        help="linear dataset scale relative to Table II (default: 1/16)",
    )
    parser.add_argument("--seed", type=int, default=ExperimentConfig().seed)
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="sampling repetitions averaged inside each estimate",
    )
    parser.add_argument(
        "--datasets",
        type=str,
        default=None,
        help="comma-separated dataset restriction",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel fan-out width (1 = serial; results are bit-identical)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stall watchdog for pooled tasks: kill a pool that completes "
        "nothing for this long and retry the unfinished tasks "
        "(default: wait forever)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-attempts granted to each failing engine task (default: 2)",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"persistent result-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this invocation",
    )
    parser.add_argument(
        "--validate-traces",
        action="store_true",
        help="hazard-check every reported simulated schedule (repro.analysis)",
    )
    parser.add_argument(
        "--obs-out",
        type=str,
        default=None,
        metavar="PATH",
        help="record observability spans/metrics and write a Chrome trace here",
    )
    parser.add_argument(
        "--obs-summary",
        action="store_true",
        help="record observability data and print the aggregate span/metric table",
    )
    parser.add_argument(
        "--obs-off",
        action="store_true",
        help="force observability off even if --obs-out/--obs-summary is given",
    )
    parser.add_argument(
        "--csv",
        type=str,
        default=None,
        metavar="DIR",
        help="additionally dump every table as CSV files under DIR",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available experiments and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for exp_id, fn in REGISTRY.items():
            doc = (fn.__module__ and __import__(fn.__module__, fromlist=["x"]).__doc__) or ""
            first = doc.strip().splitlines()[0] if doc.strip() else ""
            print(f"{exp_id:24s} {first}")
        return 0

    selected = list(args.experiments) + list(args.figures)
    if not selected:
        selected = list(REGISTRY)
    unknown = [e for e in selected if e not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; known: {', '.join(REGISTRY)}"
        )
    try:
        config = ExperimentConfig(
            scale=args.scale,
            seed=args.seed,
            repeats=args.repeats,
            datasets=tuple(args.datasets.split(",")) if args.datasets else None,
            validate_traces=args.validate_traces,
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            task_timeout_s=args.task_timeout,
            max_retries=args.max_retries,
        )
    except ValidationError as exc:
        parser.error(str(exc))
    obs_active = (args.obs_out is not None or args.obs_summary) and not args.obs_off
    tracer = metrics = None
    if obs_active:
        tracer, metrics = obs.enable()
    engine = config.engine()
    totals = {"hits": 0, "misses": 0}
    for exp_id in selected:
        before = engine.stats.snapshot()
        start_s = time.perf_counter()
        report = REGISTRY[exp_id](config)
        elapsed_s = time.perf_counter() - start_s
        after = engine.stats.snapshot()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        totals["hits"] += hits
        totals["misses"] += misses
        print(report.render())
        if args.csv:
            for path in report.to_csv(args.csv):
                print(f"[wrote {path}]")
        print(
            f"[{exp_id} regenerated in {elapsed_s:.1f}s wall clock; "
            f"workers={config.workers}; cache: {hits} hit(s), {misses} miss(es)]"
        )
        print()
    cache_note = (
        f"cache {config.cache_dir}: {totals['hits']} hit(s), "
        f"{totals['misses']} miss(es)"
        if config.cache_dir is not None
        else "cache disabled"
    )
    stats = engine.sync_stats()
    print(
        f"[engine summary: workers={config.workers} "
        f"(effective {stats.effective_workers}); {cache_note}]"
    )
    if stats.retries or stats.timeouts or stats.quarantined or stats.cache_corrupt:
        print(
            f"[engine faults recovered: {stats.retries} retried task(s), "
            f"{stats.timeouts} pool timeout(s), {stats.quarantined} "
            f"quarantine(s), {stats.cache_corrupt} corrupt cache entr(ies)]"
        )
    if stats.degraded:
        print(
            f"[engine DEGRADED: requested workers={config.workers} but the "
            "process pool fell back to serial "
            f"({engine.parallel_map.fallback_reason}); results are "
            "unaffected, wall-clock is]",
            file=sys.stderr,
        )
    if obs_active:
        records = tracer.records()
        snapshot = metrics.snapshot()
        obs.disable()
        if args.obs_out is not None:
            path = obs.write_trace(
                args.obs_out,
                records,
                snapshot,
                meta={
                    "experiments": selected,
                    "scale": config.scale,
                    "seed": config.seed,
                    "workers": config.workers,
                },
                fault_plan=config.fault_plan,
            )
            print(f"[obs trace written to {path}: {len(records)} span(s)]")
        if args.obs_summary:
            print(obs.render_summary(obs.aggregate_records(records), snapshot))
    return 0


if __name__ == "__main__":
    sys.exit(main())
