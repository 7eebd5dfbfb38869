"""Ablation C — static sampled split vs dynamic work-queue scheduling.

Not a paper artefact.  The paper dismisses runtime load balancing
qualitatively (StarPU-style queues "may not solve the problem of work
partitioning effectively"; Boyer-style chunking "can introduce
communication overhead").  This study quantifies the trade-off on the same
cost model: per dataset,

* the Phase-II time at the *sampled* static split (the paper's method);
* the exhaustive static optimum;
* a greedy dynamic scheduler at a fine chunk size (overhead-bound), and at
  its own best chunk size over a sweep.

Findings to expect: at fine granularity the dynamic baseline drowns in
dispatch and per-chunk transfer costs, as the paper argues; at its tuned
best it ties the static split on uniform structures and can *beat* it on
inputs whose work is index-sorted (the degree-ordered web matrices) — a
contiguous prefix/suffix cut cannot route individual monster rows to the
CPU, a work queue can.  The static split's remaining advantages are zero
runtime coordination and no chunk-size knob.

The CI step "Dynamic re-balancing experiments" (mirrored in
``tools/check.sh``) runs this study at 1/16 scale and requires a clean
exit with empty stderr; no test asserts the findings' numbers.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import (
    study_oracles,
    study_partitioner,
    study_problems,
    unit_key,
    units,
)
from repro.hetero.dynamic import best_dynamic_schedule, simulate_dynamic_spmm

DEFAULT_DATASETS = ["cant", "pwtk", "web-BerkStan", "asia_osm"]


def _dynamic_task(args) -> dict:
    """One dataset: the sampled static split vs fine and best-chunk queues."""
    problem, partitioner = args
    threshold = partitioner.estimate(problem).threshold
    fine = simulate_dynamic_spmm(problem, max(1, problem.a.n_rows // 2000))
    best = best_dynamic_schedule(problem)
    return {
        "threshold": threshold,
        "static_ms": problem.evaluate_ms(threshold),
        "dynamic_fine_ms": fine.total_ms,
        "dynamic_best_ms": best.total_ms,
        "chunk_rows": best.chunk_rows,
        "cpu_share": best.cpu_share_percent,
    }


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(DEFAULT_DATASETS) or DEFAULT_DATASETS
    problem = study_problems(config, "spmm")
    oracles = study_oracles(config, "spmm", names, problem)
    results = units(
        config,
        _dynamic_task,
        [
            unit_key("dynamic-ablation", config, "scale", "seed", "repeats", dataset=name)
            for name in names
        ],
        lambda i: (problem(names[i]), study_partitioner(config, "spmm", names[i])),
        schedules=lambda r: [r["threshold"]],
    )
    rows = []
    metrics = {}
    times = ("static_ms", "dynamic_fine_ms", "dynamic_best_ms")
    for name, oracle, r in zip(names, oracles, results):
        rows.append(
            (name, oracle.best_time_ms, *(r[t] for t in times), r["chunk_rows"], r["cpu_share"])
        )
        metrics.update({f"{name}_{t}": r[t] for t in times})

    fine_vs_static = float(
        np.mean(
            [
                metrics[f"{n}_dynamic_fine_ms"] / metrics[f"{n}_static_ms"]
                for n in names
            ]
        )
    )
    best_vs_static = float(
        np.mean(
            [
                metrics[f"{n}_dynamic_best_ms"] / metrics[f"{n}_static_ms"]
                for n in names
            ]
        )
    )
    metrics["avg_fine_over_static"] = fine_vs_static
    metrics["avg_best_over_static"] = best_vs_static

    return ExperimentReport(
        exp_id="ablation-dynamic",
        title="Ablation C - sampled static split vs dynamic work-queue scheduling",
        tables=(
            ReportTable(
                "Times (simulated ms)",
                (
                    "dataset",
                    "static best",
                    "static (sampled)",
                    "dynamic fine-chunk",
                    "dynamic best-chunk",
                    "chunk rows",
                    "dyn CPU share %",
                ),
                tuple(rows),
            ),
        ),
        notes=(
            f"fine-grained dynamic averages {fine_vs_static:.2f}x the sampled static time"
            " (dispatch + per-chunk transfer overhead - the paper's objection);",
            f"best-chunk dynamic averages {best_vs_static:.2f}x: competitive, and better on"
            " index-sorted skew (web matrices) where one contiguous cut cannot isolate monster rows.",
            "The static sampled split needs no runtime coordination and no chunk-size tuning.",
        ),
        metrics=metrics,
    )
