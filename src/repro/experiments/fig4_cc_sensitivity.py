"""Figure 4 — CC sample-size sensitivity (Section III-B.2).

Sweep the sampled-graph size over √n/4, √n/2, √n, 2√n, 4√n for two graphs
and record the total time (estimation + Phase II at the estimated
threshold) and the estimation time alone.  The paper observes a near
concave (single-valley) total-time curve with its minimum at √n,
justifying the √n default.
"""

from __future__ import annotations

import math

from repro.core.search import CoarseToFineSearch
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import sensitivity_sweep
from repro.util.stats import near_concave_violations

#: The paper plots two graphs; we use the largest mesh and a road network.
DEFAULT_DATASETS = ["delaunay_n22", "germany_osm"]

#: Multipliers of √n, as in the paper.
SIZE_FACTORS = [0.25, 0.5, 1.0, 2.0, 4.0]


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(DEFAULT_DATASETS) or DEFAULT_DATASETS
    tables = []
    metrics = {}
    notes = []
    for name in names:
        rows = sensitivity_sweep(
            config,
            "fig4",
            "cc",
            name,
            CoarseToFineSearch,
            SIZE_FACTORS,
            lambda problem, f: max(2, int(round(f * math.isqrt(problem.graph.n)))),
        )
        table_rows = tuple(
            (
                f"{f:g}*sqrt(n)",
                r["sample_size"],
                r["estimation_ms"],
                r["phase2_ms"],
                r["total_ms"],
            )
            for f, r in zip(SIZE_FACTORS, rows)
        )
        tables.append(
            ReportTable(
                f"Figure 4 - {name}: total time vs sample size",
                ("sample", "vertices", "estimation ms", "phase II ms", "total ms"),
                table_rows,
            )
        )
        totals = [r["total_ms"] for r in rows]
        violations = near_concave_violations(totals)
        argmin = SIZE_FACTORS[totals.index(min(totals))]
        metrics[f"{name}_argmin_factor"] = argmin
        metrics[f"{name}_unimodality_violations"] = violations
        notes.append(
            f"{name}: total-time minimum at {argmin:g}*sqrt(n) "
            f"({violations} unimodality violation(s); paper: near-concave with minimum at sqrt(n))"
        )
    return ExperimentReport(
        exp_id="fig4",
        title="Figure 4 - CC: sample-size vs total time trade-off",
        tables=tuple(tables),
        notes=tuple(notes),
        metrics=metrics,
    )
