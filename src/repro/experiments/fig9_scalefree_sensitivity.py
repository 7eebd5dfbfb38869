"""Figure 9 — scale-free sample-size sensitivity (Section V-B).

Sweep the sampled-row count over √n/4, √(n/2), √n, 2√n, 4√n (the paper's
grid) for two scale-free matrices and record estimation time and total
time.  The paper observes the overall-time minimum at √n.
"""

from __future__ import annotations

import math

from repro.core.search import GradientDescentSearch
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import sensitivity_sweep
from repro.util.stats import near_concave_violations

DEFAULT_DATASETS = ["cant", "web-BerkStan"]


#: The paper's row-count grid: label -> sample rows of an n-row matrix.
SIZE_GRID = {
    "sqrt(n)/4": lambda n: max(2, math.isqrt(n) // 4),
    "sqrt(n/2)": lambda n: max(2, math.isqrt(n // 2)),
    "sqrt(n)": lambda n: max(2, math.isqrt(n)),
    "2*sqrt(n)": lambda n: max(2, 2 * math.isqrt(n)),
    "4*sqrt(n)": lambda n: max(2, min(4 * math.isqrt(n), n)),
}


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(DEFAULT_DATASETS) or DEFAULT_DATASETS
    tables = []
    metrics = {}
    notes = []
    labels = list(SIZE_GRID)
    for name in names:
        rows = sensitivity_sweep(
            config,
            "fig9",
            "hh",
            name,
            GradientDescentSearch,
            labels,
            lambda problem, label: SIZE_GRID[label](problem.a.n_rows),
        )
        table_rows = tuple(
            (
                label,
                r["sample_size"],
                r["estimation_ms"],
                r["phase2_ms"],
                r["total_ms"],
            )
            for label, r in zip(labels, rows)
        )
        tables.append(
            ReportTable(
                f"Figure 9 - {name}: total time vs sample rows",
                ("sample", "rows", "estimation ms", "phase II ms", "total ms"),
                table_rows,
            )
        )
        totals = [r["total_ms"] for r in rows]
        violations = near_concave_violations(totals)
        argmin = labels[totals.index(min(totals))]
        metrics[f"{name}_argmin"] = argmin
        metrics[f"{name}_unimodality_violations"] = violations
        notes.append(
            f"{name}: total-time minimum at {argmin} "
            f"({violations} unimodality violation(s); paper: minimum at sqrt(n))"
        )
    return ExperimentReport(
        exp_id="fig9",
        title="Figure 9 - HH-CPU: sample-size vs total time trade-off",
        tables=tuple(tables),
        notes=tuple(notes),
        metrics=metrics,
    )
