"""Ablation B — scale-free (HH-CPU) sampler variants.

Not a paper artefact: this study compares the four readings of the Section
V sampler and their matching extrapolation laws, quantifying why the
reproduction defaults to the full-column-space row sample
(EXPERIMENTS.md note 5):

* **rows** — √n rows, all elements, original column space; identity
  extrapolation (the default);
* **importance** — rows drawn proportional to their load-vector work, each
  representing an equal work share; identity extrapolation (future-work
  extension);
* **fold** — all elements, columns folded onto [0, √n); the density axis
  saturates, inverted by :class:`SaturationExtrapolator`;
* **thin** — elements kept with probability √n/n; the density axis shrinks
  linearly, rescaled by :class:`ScaleExtrapolator`.
"""

from __future__ import annotations

from repro.core.extrapolate import (
    Extrapolator,
    IdentityExtrapolator,
    SaturationExtrapolator,
    ScaleExtrapolator,
)
from repro.core.framework import SamplingPartitioner
from repro.core.search import GradientDescentSearch
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import sampler_ablation
from repro.util.rng import stable_seed

DEFAULT_DATASETS = ["cant", "cop20k_A", "web-BerkStan", "pwtk"]

#: method -> matching extrapolation law.
METHODS: dict[str, type[Extrapolator] | None] = {
    "rows": IdentityExtrapolator,
    "importance": IdentityExtrapolator,
    "fold": SaturationExtrapolator,
    "thin": None,  # ScaleExtrapolator(None) — needs the factory below
}


def _extrapolator(method: str) -> Extrapolator:
    if method == "thin":
        return ScaleExtrapolator(None)
    return METHODS[method]()


def _partitioner(config: ExperimentConfig, name: str, method: str) -> SamplingPartitioner:
    return SamplingPartitioner(
        GradientDescentSearch(),
        extrapolator=_extrapolator(method),
        rng=stable_seed(config.seed, "ablB", name, method),
    )


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(DEFAULT_DATASETS) or DEFAULT_DATASETS
    rows, metrics = sampler_ablation(
        config,
        "ablation-hh-sampling",
        "hh",
        names,
        list(METHODS),
        _partitioner,
        clamp=True,
    )
    avg = {m: metrics[f"avg_{m}_slowdown"] for m in METHODS}

    headers = ["dataset", "oracle t"]
    for m in METHODS:
        headers.extend([f"{m} t", "slow %"])

    return ExperimentReport(
        exp_id="ablation-hh-sampling",
        title="Ablation B - scale-free sampler variants and extrapolation laws",
        tables=(
            ReportTable(
                "Extrapolated density threshold and % slowdown vs oracle",
                tuple(headers),
                tuple(rows),
            ),
        ),
        notes=(
            f"avg slowdown: rows {avg['rows']:.1f}%, importance {avg['importance']:.1f}%, "
            f"fold {avg['fold']:.1f}%, thin {avg['thin']:.1f}%",
            "Folding collapses banded matrices' contiguous column runs onto single cells; thinning"
            " erases the density distribution at sqrt(n) — both documented in EXPERIMENTS.md note 5.",
        ),
        metrics=metrics,
    )
