"""Figure 7 — the role of randomness (Section IV-B.1, last paragraph).

For cant and cop20k_A, estimate the spmm split from four *predetermined*
n/4 x n/4 submatrices (a 2x2 grid of contiguous blocks — zero randomness)
and from the uniform random principal submatrix.  The paper's finding:
predetermined samples tend to be inaccurate, uniform random sampling is
essential.

In our synthetic FEM analogs the bias mechanism is explicit: density
varies slowly along the row index (mesh regions), so a contiguous block
sees one region's density while the random sample sees the mixture.
"""

from __future__ import annotations

import numpy as np

from repro.core.search import RaceCoarseSearch
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import (
    study_oracles,
    study_partitioner,
    study_problems,
    unit_key,
    units,
)

DEFAULT_DATASETS = ["cant", "cop20k_A"]
N_BLOCKS = 4


def _randomness_task(args) -> dict:
    """The random-sample estimate and the N_BLOCKS predetermined-block ones."""
    problem, partitioner = args
    size = problem.default_sample_size()
    search = RaceCoarseSearch()
    return {
        "random": partitioner.estimate(problem).threshold,
        "blocks": [
            search.minimize(problem.deterministic_sample(size, position, grid=2)).threshold
            for position in range(N_BLOCKS)
        ],
    }


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(DEFAULT_DATASETS) or DEFAULT_DATASETS
    problem = study_problems(config, "spmm")
    oracles = study_oracles(config, "spmm", names, problem)
    estimates = units(
        config,
        _randomness_task,
        [
            unit_key("randomness", config, "scale", "seed", "repeats", dataset=name)
            for name in names
        ],
        lambda i: (problem(names[i]), study_partitioner(config, "spmm", names[i])),
        schedules=lambda r: [r["random"], *r["blocks"]],
    )
    rows = []
    metrics = {}
    for name, oracle, r in zip(names, oracles, estimates):
        rows.append((name, oracle.threshold, r["random"], *r["blocks"]))
        random_err = abs(r["random"] - oracle.threshold)
        block_errs = [abs(b - oracle.threshold) for b in r["blocks"]]
        metrics[f"{name}_random_error"] = random_err
        metrics[f"{name}_block_error_mean"] = float(np.mean(block_errs))
        metrics[f"{name}_block_error_max"] = float(np.max(block_errs))

    notes = []
    for name in names:
        notes.append(
            f"{name}: random-sample error {metrics[f'{name}_random_error']:.1f} pts vs "
            f"predetermined-block mean error {metrics[f'{name}_block_error_mean']:.1f} pts "
            f"(max {metrics[f'{name}_block_error_max']:.1f})"
        )
    notes.append(
        "Predetermined samples inherit the local bias of their region; randomness is essential (paper, Fig. 7)."
    )
    return ExperimentReport(
        exp_id="fig7",
        title="Figure 7 - randomness ablation: random vs predetermined samples",
        tables=(
            ReportTable(
                "Split percentage estimated from each sample (CPU share, %)",
                (
                    "dataset",
                    "Exhaustive",
                    "Random sample",
                    *(f"Block {i}" for i in range(N_BLOCKS)),
                ),
                tuple(rows),
            ),
        ),
        notes=tuple(notes),
        metrics=metrics,
    )
