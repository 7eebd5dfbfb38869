"""Figure 3 — graph connected components (Section III-B).

Figure 3(a): per dataset, the threshold (GPU vertex share, percent) found
by exhaustive search vs the sampling estimate, alongside the NaiveStatic
(peak-FLOPS) and NaiveAverage (suite-average oracle) baselines; the
secondary axis is the absolute estimated-vs-exhaustive gap.

Figure 3(b): Phase-II time at the estimated threshold vs the best-possible
threshold vs the homogeneous GPU-only "Naive" bar; the secondary axis is
the percent slowdown, and the paper additionally reports the estimation
overhead (~9% average) and slowdown (≤4% average).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import run_study

#: Headline numbers from the paper for the notes section.
PAPER_THRESHOLD_DIFF = 7.5
PAPER_TIME_DIFF = 4.0
PAPER_OVERHEAD = 9.0


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    comparisons = run_study(config, "cc")

    rows_a = []
    rows_b = []
    for c in comparisons:
        rows_a.append(
            (
                c.name,
                c.oracle.threshold,
                c.estimate.threshold,
                c.naive_static_threshold,
                c.naive_average_threshold,
                c.threshold_difference,
            )
        )
        rows_b.append(
            (
                c.name,
                c.oracle.best_time_ms,
                c.estimated_time_ms,
                c.gpu_only_time_ms,
                c.time_difference_percent,
                c.overhead_percent,
            )
        )

    avg_diff = float(np.mean([c.threshold_difference for c in comparisons]))
    avg_time = float(np.mean([c.time_difference_percent for c in comparisons]))
    avg_ovh = float(np.mean([c.overhead_percent for c in comparisons]))

    return ExperimentReport(
        exp_id="fig3",
        title="Figure 3 - CC: estimated vs exhaustive thresholds and runtimes",
        tables=(
            ReportTable(
                "Figure 3(a) - thresholds (GPU vertex share, %)",
                ("dataset", "Exhaustive", "Estimated", "NaiveStatic", "NaiveAverage", "|diff| (pts)"),
                tuple(rows_a),
            ),
            ReportTable(
                "Figure 3(b) - Phase II times (simulated ms)",
                ("dataset", "Exhaustive", "Estimated", "Naive (GPU only)", "slowdown %", "overhead %"),
                tuple(rows_b),
            ),
        ),
        notes=(
            f"avg |threshold diff| = {avg_diff:.2f} pts (paper: {PAPER_THRESHOLD_DIFF})",
            f"avg time difference = {avg_time:.2f}% (paper: <= {PAPER_TIME_DIFF}% avg)",
            f"avg estimation overhead = {avg_ovh:.2f}% (paper: ~{PAPER_OVERHEAD}%)",
            "NaiveStatic is the 88% peak-FLOPS share; NaiveAverage averages the per-dataset oracle thresholds.",
        ),
        metrics={
            "avg_threshold_diff": avg_diff,
            "avg_time_diff_percent": avg_time,
            "avg_overhead_percent": avg_ovh,
        },
    )
