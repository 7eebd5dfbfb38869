"""Figure 6 — spmm sample-size sensitivity (Section IV-B.1).

Sweep the sampled-submatrix dimension over n/10 … 4n/10 for two matrices
and record estimation time and total time.  The paper observes a near
concave curve and a good operating point around n/4, justifying K=4.
"""

from __future__ import annotations

from repro.core.search import RaceCoarseSearch
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import sensitivity_sweep
from repro.util.stats import near_concave_violations

#: Two matrices, as in the paper's figure.
DEFAULT_DATASETS = ["cant", "cop20k_A"]

#: Fractions of n, n/10 through 4n/10.
SIZE_FRACTIONS = [0.1, 0.2, 0.25, 0.3, 0.4]


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(DEFAULT_DATASETS) or DEFAULT_DATASETS
    tables = []
    metrics = {}
    notes = []
    for name in names:
        rows = sensitivity_sweep(
            config,
            "fig6",
            "spmm",
            name,
            RaceCoarseSearch,
            SIZE_FRACTIONS,
            lambda problem, f: max(2, int(round(f * problem.a.n_rows))),
            draws=3,
        )
        table_rows = tuple(
            (
                f"{f:g}*n",
                r["sample_size"],
                r["estimation_ms"],
                r["phase2_ms"],
                r["total_ms"],
            )
            for f, r in zip(SIZE_FRACTIONS, rows)
        )
        tables.append(
            ReportTable(
                f"Figure 6 - {name}: total time vs sample size",
                ("sample", "rows", "estimation ms", "phase II ms", "total ms"),
                table_rows,
            )
        )
        totals = [r["total_ms"] for r in rows]
        violations = near_concave_violations(totals)
        argmin = SIZE_FRACTIONS[totals.index(min(totals))]
        metrics[f"{name}_argmin_fraction"] = argmin
        metrics[f"{name}_unimodality_violations"] = violations
        notes.append(
            f"{name}: total-time minimum at {argmin:g}*n "
            f"({violations} unimodality violation(s); paper: near-concave, good point near n/4)"
        )
    return ExperimentReport(
        exp_id="fig6",
        title="Figure 6 - spmm: sample-size vs total time trade-off",
        tables=tuple(tables),
        notes=tuple(notes),
        metrics=metrics,
    )
