"""Ablation D — spmm sampler variants.

Not a paper artefact.  The Section IV sampler (a random n/4 principal
submatrix) thins every row 4x, which distorts the GPU's warp-quantization
profile on ultra-sparse inputs (EXPERIMENTS.md, Figure 5 notes).  This
study compares it against two row samplers that keep rows intact:

* **principal** — the paper's n/4 x n/4 submatrix (default elsewhere);
* **rows** — uniform random rows against the full ``B``;
* **importance** — rows drawn proportional to their load-vector work
  (Hansen-Hurwitz representation), the future-work extension.
"""

from __future__ import annotations

from repro.core.framework import SamplingPartitioner
from repro.core.search import RaceCoarseSearch
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import sampler_ablation
from repro.util.rng import stable_seed

DEFAULT_DATASETS = ["cant", "delaunay_n22", "webbase-1M", "asia_osm"]
METHODS = ("principal", "rows", "importance")


def _partitioner(config: ExperimentConfig, name: str, method: str) -> SamplingPartitioner:
    return SamplingPartitioner(
        RaceCoarseSearch(), rng=stable_seed(config.seed, "ablD", name, method)
    )


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(DEFAULT_DATASETS) or DEFAULT_DATASETS
    rows, metrics = sampler_ablation(
        config, "ablation-spmm-sampling", "spmm", names, METHODS, _partitioner
    )
    avg = {m: metrics[f"avg_{m}_slowdown"] for m in METHODS}

    headers = ["dataset", "oracle r"]
    for m in METHODS:
        headers.extend([f"{m} r", "slow %"])
    return ExperimentReport(
        exp_id="ablation-spmm-sampling",
        title="Ablation D - spmm sampler variants (principal vs row vs importance)",
        tables=(
            ReportTable(
                "Estimated split (CPU share, %) and % slowdown vs oracle",
                tuple(headers),
                tuple(rows),
            ),
        ),
        notes=(
            f"avg slowdown: principal {avg['principal']:.1f}%, rows {avg['rows']:.1f}%, "
            f"importance {avg['importance']:.1f}%",
            "Row samplers keep each row's true work, so the GPU warp-quantization profile is"
            " undistorted - the principal sampler's weakness on ultra-sparse inputs"
            " (delaunay, roads).",
        ),
        metrics=metrics,
    )
