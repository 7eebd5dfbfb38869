"""Tests for the ablation/extension experiments and the CSV export."""

import csv

import pytest

from repro.experiments import (
    REGISTRY,
    ExperimentConfig,
    ablation_cc_sampling,
    ablation_hh_sampling,
    ext_cluster,
    ext_dynamic,
    ext_multiway,
)
from repro.hetero.multiway_cc import MultiwayCcProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem

SMALL = ExperimentConfig(scale=1 / 64, seed=5)


class TestAblationCc:
    def test_literal_pricing_degenerates(self):
        cfg = ExperimentConfig(
            scale=1 / 64, seed=5, datasets=("germany_osm", "delaunay_n22")
        )
        report = ablation_cc_sampling.run(cfg)
        # The methodology claim: literal pricing is far worse than the
        # scaled default on locality-friendly inputs.
        assert report.metrics["avg_literal_slowdown"] > report.metrics[
            "avg_uniform_slowdown"
        ]

    def test_importance_not_worse_than_uniform(self):
        cfg = ExperimentConfig(scale=1 / 64, seed=5, datasets=("cant", "germany_osm"))
        report = ablation_cc_sampling.run(cfg)
        assert (
            report.metrics["avg_importance_slowdown"]
            <= report.metrics["avg_uniform_slowdown"] + 5.0
        )


class TestAblationHh:
    def test_axis_destroying_samplers_lose(self):
        cfg = ExperimentConfig(scale=1 / 64, seed=5, datasets=("cant", "pwtk"))
        report = ablation_hh_sampling.run(cfg)
        m = report.metrics
        # Folding/thinning destroy the density axis on banded matrices.
        assert m["avg_fold_slowdown"] > m["avg_rows_slowdown"]
        assert m["avg_thin_slowdown"] > m["avg_rows_slowdown"]


class TestExtMultiway:
    def test_two_gpus_speed_up_local_graphs(self):
        cfg = ExperimentConfig(
            scale=1 / 64, seed=5, datasets=("germany_osm", "pwtk")
        )
        report = ext_multiway.run(cfg)
        assert report.metrics["avg_speedup_vs_single_gpu"] > 1.3
        assert report.metrics["avg_slowdown"] < 20.0


class TestExtCluster:
    def test_clusters_scale_and_stay_balanced(self):
        cfg = ExperimentConfig(
            scale=1 / 64, seed=5, datasets=("germany_osm", "cant")
        )
        report = ext_cluster.run(cfg)
        m = report.metrics
        # Growing the cluster keeps paying off...
        assert m["avg_speedup_p8_vs_p2"] > 1.5
        # ...and the sampled vectors stay near the oracle's makespan.
        assert m["avg_slowdown"] < 25.0
        # Every (dataset, p) row executed and reported its balance.
        for p in (2, 3, 4, 8):
            assert m[f"cluster-cc_germany_osm_p{p}_imbalance"] >= 0.0
            assert m[f"cluster-spmm_cant_p{p}_imbalance"] >= 0.0

    def test_reads_timelines_without_executing_kernels(self, monkeypatch):
        # The report reads only the tuned vector's timeline, so the
        # partitioned SpGEMM and the SV labelling must never run.
        def refuse(self, thresholds):
            raise AssertionError(f"{type(self).__name__}.run executed")

        monkeypatch.setattr(MultiwayCcProblem, "run", refuse)
        monkeypatch.setattr(MultiwaySpmmProblem, "run", refuse)
        report = ext_cluster.run(ExperimentConfig(scale=0.02))
        assert len(report.tables) == 2
        assert all(len(table.rows) == 8 for table in report.tables)


@pytest.fixture(scope="module")
def dynamic_report():
    # 1/16 keeps the round blocks large enough to carry a rate signal; at
    # 1/64 they are straggler noise and the study (correctly) reports
    # rebalancing as useless.
    return ext_dynamic.run(ExperimentConfig(scale=1 / 16, seed=3))


class TestExtDynamic:
    def test_dynamic_beats_static_near_oracle_under_drift(self, dynamic_report):
        m = dynamic_report.metrics
        # The acceptance criteria of the strategy family: >= 10% median
        # gain over the static cutoff, within 5% of the per-round oracle.
        assert m["median_gain_percent"] >= 10.0
        assert m["median_above_oracle_percent"] <= 5.0

    def test_no_drift_control_is_a_wash(self, dynamic_report):
        assert abs(dynamic_report.metrics["shuffled_gain_percent"]) < 5.0

    def test_stealing_moves_rows_without_hurting(self, dynamic_report):
        m = dynamic_report.metrics
        assert m["steal_stolen_rows"] > 0
        assert m["steal_stealing_ms"] <= m["steal_plain_ms"]

    def test_trajectory_table_present(self, dynamic_report):
        table = dynamic_report.table("Figure - per-round")
        assert table.column("round") == list(range(len(table.rows)))


class TestRegistryAndCsv:
    def test_new_experiments_registered(self):
        for key in (
            "ablation-cc-sampling",
            "ablation-hh-sampling",
            "ext-multiway",
            "ext-cluster",
            "ext-dynamic",
        ):
            assert key in REGISTRY

    def test_csv_export_round_trips(self, tmp_path):
        cfg = ExperimentConfig(scale=1 / 64, seed=5, datasets=("cant",))
        report = ablation_cc_sampling.run(cfg)
        paths = report.to_csv(tmp_path)
        assert len(paths) == 2  # table + metrics
        with paths[0].open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "dataset"
        assert rows[1][0] == "cant"
        with paths[-1].open() as fh:
            metric_rows = list(csv.reader(fh))
        assert metric_rows[0] == ["metric", "value"]
        assert len(metric_rows) - 1 == len(report.metrics)
