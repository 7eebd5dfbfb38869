"""Tests for the experiment harness.

Experiments run at a small scale (1/64) with restricted dataset sets so the
suite stays fast; assertions target the *shape* claims each paper artefact
makes, mirroring EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.experiments import REGISTRY, ExperimentConfig
from repro.experiments import (
    fig1_dense,
    fig3_cc,
    fig5_spmm,
    fig7_randomness,
    fig8_scalefree,
    table1_summary,
    table2_datasets,
)
from repro.experiments.report import ExperimentReport, ReportTable
from repro.util.errors import ValidationError

SMALL = ExperimentConfig(scale=1 / 64, seed=3)
FEW = ExperimentConfig(scale=1 / 64, seed=3, datasets=("cant", "pwtk", "webbase-1M"))


class TestConfig:
    def test_machine_scaled(self):
        m = SMALL.machine()
        assert m.gpu.kernel_launch_us == pytest.approx(8.0 / 64)

    def test_dataset_cache(self):
        assert SMALL.dataset("cant") is SMALL.dataset("cant")

    def test_select_intersects_in_order(self):
        cfg = ExperimentConfig(datasets=("pwtk", "cant"))
        assert cfg.select(["cant", "pwtk", "rma10"]) == ["cant", "pwtk"]

    def test_rejects_bad_scale(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(scale=2.0)

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(repeats=0)

    def test_rejects_unknown_dataset_by_name(self):
        with pytest.raises(ValidationError, match="unknown dataset.*nosuch"):
            ExperimentConfig(datasets=("cant", "nosuch"))


class TestEmptyStudy:
    @pytest.mark.parametrize(
        "run", [fig8_scalefree.run, table1_summary.run], ids=["fig8", "table1"]
    )
    def test_names_study_and_restriction(self, run, tmp_path):
        """asia_osm is a road network: the scale-free study excludes it."""
        config = ExperimentConfig(
            scale=1 / 256, datasets=("asia_osm",), cache_dir=str(tmp_path / "cache")
        )
        with pytest.raises(ValidationError, match=r"hh study.*datasets=asia_osm"):
            run(config)

    def test_raises_before_engine_work(self, tmp_path):
        config = ExperimentConfig(
            scale=1 / 256, datasets=("asia_osm",), cache_dir=str(tmp_path / "cache")
        )
        with pytest.raises(ValidationError, match="hh study"):
            fig8_scalefree.run(config)
        stats = config.engine().stats
        assert stats.hits == stats.misses == 0


class TestReport:
    def test_render_contains_tables_and_notes(self):
        report = ExperimentReport(
            exp_id="x",
            title="T",
            tables=(ReportTable("tab", ("a",), ((1,),)),),
            notes=("note",),
            metrics={"m": 1.0},
        )
        out = report.render()
        assert "T" in out and "tab" in out and "note" in out and "m = 1.000" in out

    def test_table_lookup(self):
        report = ExperimentReport(
            "x", "T", (ReportTable("alpha", ("a",), ((1,),)),)
        )
        assert report.table("alp").title == "alpha"
        with pytest.raises(KeyError):
            report.table("beta")

    def test_column_access(self):
        t = ReportTable("t", ("a", "b"), ((1, 2), (3, 4)))
        assert t.column("b") == [2, 4]


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(REGISTRY) == {
            "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "table1", "table2",
            "ablation-cc-sampling", "ablation-hh-sampling", "ablation-dynamic",
            "ablation-spmm-sampling", "ext-multiway", "ext-cluster",
            "ext-dynamic",
        }


class TestTable2:
    def test_lists_all_datasets(self):
        report = table2_datasets.run(SMALL)
        assert report.metrics["n_datasets"] == 15

    def test_density_preserved_under_scaling(self):
        report = table2_datasets.run(SMALL)
        t = report.table("Paper dataset")
        paper = np.array(t.column("paper nnz/row"), dtype=float)
        ours = np.array(t.column("nnz/row"), dtype=float)
        assert np.all(np.abs(ours - paper) / paper < 0.35)


class TestFig1:
    def test_static_split_near_best(self):
        report = fig1_dense.run(SMALL)
        assert report.metrics["avg_static_gap"] < 6.0


class TestFig3:
    def test_shape_claims(self):
        report = fig3_cc.run(FEW)
        # Sampling tracks the oracle far better than a 40-point miss.
        assert report.metrics["avg_threshold_diff"] < 15.0
        assert report.metrics["avg_overhead_percent"] < 40.0
        # The estimate never loses to GPU-only by much on average.
        table_b = report.table("Figure 3(b)")
        est = np.array(table_b.column("Estimated"), dtype=float)
        naive = np.array(table_b.column("Naive (GPU only)"), dtype=float)
        assert est.mean() <= naive.mean() * 1.25

    def test_naive_static_column_constant(self):
        report = fig3_cc.run(FEW)
        statics = set(report.table("Figure 3(a)").column("NaiveStatic"))
        assert len(statics) == 1  # peak-FLOPS split is input independent


class TestFig5:
    def test_shape_claims(self):
        report = fig5_spmm.run(FEW)
        assert report.metrics["avg_time_diff_percent"] < 25.0
        # GPU-only is clearly worse than the estimated split on average.
        table_b = report.table("Figure 5(b)")
        est = np.array(table_b.column("Estimated"), dtype=float)
        gpu_only = np.array(table_b.column("GPU only (r=0)"), dtype=float)
        assert gpu_only.mean() > est.mean()


class TestFig7:
    def test_blocks_worse_than_random(self):
        report = fig7_randomness.run(ExperimentConfig(scale=1 / 64, seed=3))
        for name in ("cant", "cop20k_A"):
            rand_err = report.metrics[f"{name}_random_error"]
            block_max = report.metrics[f"{name}_block_error_max"]
            assert block_max >= rand_err


class TestFig8:
    def test_shape_claims(self):
        cfg = ExperimentConfig(scale=1 / 64, seed=3, datasets=("cant", "shipsec1"))
        report = fig8_scalefree.run(cfg)
        assert report.metrics["avg_overhead_percent"] < 5.0
        assert report.metrics["avg_time_diff_percent"] < 30.0


class TestTable1:
    def test_overhead_ordering_matches_paper(self):
        cfg = ExperimentConfig(
            scale=1 / 64, seed=3, datasets=("cant", "pwtk", "web-BerkStan")
        )
        report = table1_summary.run(cfg)
        m = report.metrics
        # The paper's ordering: scale-free overhead is by far the smallest.
        assert m["scale_free_spmm_overhead"] < m["cc_overhead"]
        assert m["scale_free_spmm_overhead"] < m["spmm_overhead"]
