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
from repro.experiments.runner import hh_problem, sensitivity_sweep
from repro.util.stats import near_concave_violations

DEFAULT_DATASETS = ["cant", "web-BerkStan"]


def _size_grid(n: int) -> list[tuple[str, int]]:
    """The paper's row-count grid: √n/4, √(n/2), √n, 2√n, 4√n."""
    root = math.isqrt(n)
    return [
        ("sqrt(n)/4", max(2, root // 4)),
        ("sqrt(n/2)", max(2, math.isqrt(n // 2))),
        ("sqrt(n)", max(2, root)),
        ("2*sqrt(n)", max(2, 2 * root)),
        ("4*sqrt(n)", max(2, min(4 * root, n))),
    ]


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(DEFAULT_DATASETS) or DEFAULT_DATASETS
    tables = []
    metrics = {}
    notes = []
    for name in names:
        problem = hh_problem(config, name)
        grid = _size_grid(problem.a.n_rows)
        sizes = [s for _, s in grid]

        rows = sensitivity_sweep(
            config, "fig9", problem, GradientDescentSearch, sizes
        )
        table_rows = tuple(
            (
                label,
                r["sample_size"],
                r["estimation_ms"],
                r["phase2_ms"],
                r["total_ms"],
            )
            for (label, _), r in zip(grid, rows)
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
        argmin = grid[totals.index(min(totals))][0]
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
