"""Table II — the dataset inventory.

Prints the paper's dataset list next to the generated synthetic analogs at
the configured scale: per dataset, the paper's n and NNZ, our realized n,
NNZ, undirected edge count, and the average row density of each (which the
scaling convention preserves).
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.experiments.runner import unit_key, units
from repro.workloads.fingerprint import EXPECTED_FAMILY, fingerprint
from repro.workloads.suite import dataset_names


def _inventory_task(args) -> dict:
    """One dataset's inventory row and structural fingerprint."""
    d, graph = args
    fp = fingerprint(d)
    return {
        "row": [d.kind, d.paper_n, d.paper_nnz, d.n, d.nnz, graph.m],
        "family": fp.classify(),
        "fingerprint": [
            fp.cv_density,
            fp.heavy_share,
            fp.relative_bandwidth,
            fp.locality,
            fp.n_components,
            fp.giant_share,
        ],
    }


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    names = config.select(dataset_names())
    # The graph is built here, in this process: pooled workers inherit
    # it, and later experiments reuse the dataset's memoized graph.
    records = units(
        config,
        _inventory_task,
        [unit_key("inventory", config, "scale", dataset=name) for name in names],
        lambda i: (config.dataset(names[i]), config.dataset(names[i]).as_graph()),
    )
    rows = []
    fp_rows = []
    misclassified = 0
    for name, r in zip(names, records):
        kind, paper_n, paper_nnz, n, nnz, m = r["row"]
        rows.append(
            (name, kind, paper_n, paper_nnz, paper_nnz / paper_n, n, nnz, nnz / n, m)
        )
        if r["family"] != EXPECTED_FAMILY[kind]:
            misclassified += 1
        fp_rows.append((name, r["family"], *r["fingerprint"]))
    return ExperimentReport(
        exp_id="table2",
        title=f"Table II - datasets (synthetic analogs at scale {config.scale:g})",
        tables=(
            ReportTable(
                "Paper dataset vs generated analog",
                (
                    "name",
                    "class",
                    "paper n",
                    "paper NNZ",
                    "paper nnz/row",
                    "n",
                    "NNZ",
                    "nnz/row",
                    "m (edges)",
                ),
                tuple(rows),
            ),
            ReportTable(
                "Structural fingerprints (see workloads.fingerprint)",
                (
                    "name",
                    "family",
                    "cv(density)",
                    "heavy 1% share",
                    "rel bandwidth",
                    "locality",
                    "components",
                    "giant share",
                ),
                tuple(fp_rows),
            ),
        ),
        notes=(
            "Scaling shrinks dimensions by the scale factor and keeps average row density fixed"
            " (DESIGN.md section 2).",
            f"{len(rows) - misclassified}/{len(rows)} analogs classify into their Table II"
            " structure family by fingerprint (band / mesh-like / power-law / path-like).",
        ),
        metrics={"n_datasets": len(rows), "misclassified": misclassified},
    )
