"""Ablation A — CC sampler and identify-pricing variants.

Not a paper artefact: this study justifies two methodology decisions the
reproduction documents (EXPERIMENTS.md notes 3-4) and implements one piece
of the paper's future work.

Per dataset, the threshold is estimated three ways:

* **uniform** — the reproduction's default: the paper's uniform √n vertex
  sample, degree-weighted, priced at represented scale;
* **importance** — probability-proportional-to-work vertex sampling
  (Hansen-Hurwitz represented work), the importance-sampling extension the
  paper explicitly defers ("we leave the scope for other sampling methods,
  e.g., importance sampling, for future work");
* **literal** — the paper's procedure at face value: the bare induced
  subgraph timed on the real machine.  Fixed launch constants dominate the
  miniature's work, so the identify argmin collapses to a boundary — the
  failure mode that motivated the scaled-pricing methodology.
"""

from __future__ import annotations

from repro.core.framework import SamplingPartitioner
from repro.core.search import CoarseToFineSearch
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import sampler_ablation
from repro.util.rng import stable_seed

DEFAULT_DATASETS = ["cant", "web-BerkStan", "germany_osm", "delaunay_n22"]
METHODS = ("uniform", "importance", "literal")


def _partitioner(config: ExperimentConfig, name: str, method: str) -> SamplingPartitioner:
    return SamplingPartitioner(
        CoarseToFineSearch(), rng=stable_seed(config.seed, "ablA", name, method)
    )


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(DEFAULT_DATASETS) or DEFAULT_DATASETS
    rows, metrics = sampler_ablation(
        config, "ablation-cc-sampling", "cc", names, METHODS, _partitioner
    )
    avg = {m: metrics[f"avg_{m}_slowdown"] for m in METHODS}

    return ExperimentReport(
        exp_id="ablation-cc-sampling",
        title="Ablation A - CC sampler variants (uniform vs importance vs literal pricing)",
        tables=(
            ReportTable(
                "Estimated threshold and % slowdown vs oracle, per sampler",
                (
                    "dataset",
                    "oracle t",
                    "uniform t",
                    "slow %",
                    "importance t",
                    "slow %",
                    "literal t",
                    "slow %",
                ),
                tuple(rows),
            ),
        ),
        notes=(
            f"avg slowdown: uniform {avg['uniform']:.1f}%, importance {avg['importance']:.1f}%, "
            f"literal {avg['literal']:.1f}%",
            "Literal pricing (launch constants included, no representation scaling) drives the identify"
            " argmin to a boundary threshold — the degeneration documented in EXPERIMENTS.md note 3.",
            "Importance sampling is the paper's deferred future work; on skewed degree distributions it"
            " lowers the variance of the prefix-work estimate.",
        ),
        metrics=metrics,
    )
