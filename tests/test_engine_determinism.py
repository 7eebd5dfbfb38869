"""The engine determinism suite.

Two guarantees the engine must never break:

* **Parallel = serial.**  ``workers=2`` runs of the Figure 3/5/8 studies
  produce *identical* thresholds and runtimes — we assert on the full
  rendered report, which is stricter (every cell, byte for byte).
* **Warm = cold.**  A warm-cache run replays a cold run's output exactly,
  with zero problem evaluations performed and zero problems built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.experiments import (
    ext_cluster,
    ext_dynamic,
    fig3_cc,
    fig4_cc_sensitivity,
    fig5_spmm,
    fig8_scalefree,
    runner,
    table1_summary,
)
from repro.experiments.config import ExperimentConfig
from repro.hetero.cc import CcProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.spmm import SpmmProblem
from repro.obs import runtime

#: Tiny but structurally diverse: one banded FEM and one heavier FEM matrix,
#: both present in all three study suites.
BASE = ExperimentConfig(scale=1 / 256, seed=11, datasets=("cant", "pwtk"))

STUDIES = {
    "fig3": fig3_cc.run,
    "fig5": fig5_spmm.run,
    "fig8": fig8_scalefree.run,
    # The rounds=1 anchor of the dynamic family must also hold under a
    # worker pool: the whole report (static vs dynamic vs oracle cells)
    # is compared byte for byte.
    "ext-dynamic": ext_dynamic.run,
    # Both passes (cluster oracle, sampled tune) fan out across their
    # (dataset, p) units.
    "ext-cluster": ext_cluster.run,
}


STUDY_CLASSES = (CcProblem, SpmmProblem, HhCpuProblem)


@pytest.fixture
def built(monkeypatch) -> Counter:
    """Problem constructions in this process, by (class name, problem name).

    Sampled instances (``cant/sample15``) count under their own names.
    """
    counts: Counter = Counter()
    for cls in STUDY_CLASSES:

        def counting(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            counts[type(self).__name__, self.name] += 1

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("exp_id", sorted(STUDIES))
    def test_workers2_bit_identical(self, exp_id):
        run = STUDIES[exp_id]
        serial = run(BASE)
        parallel = run(replace(BASE, workers=2))
        assert parallel.render() == serial.render()
        # Spell the acceptance criterion out: thresholds and runtimes match.
        for table_s, table_p in zip(serial.tables, parallel.tables):
            assert table_p.rows == table_s.rows

    def test_every_study_pass_fans_out_across_datasets(self):
        """Pooled fig3 runs one pool task per dataset in each pass: the
        oracle unit and the estimate/baseline unit."""
        _, metrics = runtime.enable()
        try:
            pooled = fig3_cc.run(replace(BASE, workers=2))
            tasks = metrics.snapshot()["counters"].get("pool.tasks", 0)
        finally:
            runtime.disable()
        assert tasks == 2 * len(BASE.datasets)
        assert pooled.render() == fig3_cc.run(BASE).render()

    def test_fig4_sensitivity_grid_bit_identical(self):
        config = replace(BASE, datasets=("delaunay_n22",))
        serial = fig4_cc_sensitivity.run(config)
        parallel = fig4_cc_sensitivity.run(replace(config, workers=2))
        assert parallel.render() == serial.render()


class TestWarmCacheReplaysCold:
    def test_warm_run_identical_with_zero_evaluations(self, tmp_path):
        config = replace(BASE, cache_dir=str(tmp_path / "cache"))
        engine = config.engine()

        cold = fig3_cc.run(config)
        after_cold = engine.stats.snapshot()
        assert after_cold["misses"] > 0
        assert after_cold["computed_evaluations"] > 0
        assert after_cold["stores"] == after_cold["misses"]

        warm = fig3_cc.run(config)
        after_warm = engine.stats.snapshot()
        assert warm.render() == cold.render()
        # The warm run touched the cache only: no misses, no evaluations.
        assert after_warm["misses"] == after_cold["misses"]
        assert (
            after_warm["computed_evaluations"] == after_cold["computed_evaluations"]
        )
        assert after_warm["hits"] > after_cold["hits"]

    def test_warm_cache_matches_uncached_run(self, tmp_path):
        """Cached replay must equal what a cache-less config computes."""
        uncached = fig3_cc.run(BASE)
        config = replace(BASE, cache_dir=str(tmp_path / "cache"))
        fig3_cc.run(config)  # populate
        warm = fig3_cc.run(config)
        assert warm.render() == uncached.render()

    def test_cache_shared_across_studies(self, tmp_path):
        """Table I re-runs the fig3 suite; its oracles must come back warm."""
        config = replace(BASE, cache_dir=str(tmp_path / "cache"))
        engine = config.engine()
        fig3_cc.run(config)
        before = engine.stats.snapshot()
        fig3_cc.run(config)
        assert engine.stats.snapshot()["misses"] == before["misses"]


class TestWarmRunBuildsNothing:
    """Cache lookups need no problem instance, so hits build none."""

    @pytest.mark.parametrize(
        "run", [fig3_cc.run, table1_summary.run], ids=["fig3", "table1"]
    )
    def test_warm_run_builds_no_problem(self, tmp_path, built, run):
        config = replace(BASE, cache_dir=str(tmp_path / "cache"))
        cold = run(config)
        assert built[CcProblem.__name__, "cant"] == 1
        built.clear()
        warm = run(config)
        assert warm.render() == cold.render()
        assert not built

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partial_hit_builds_each_problem_once(self, tmp_path, built, workers):
        """Seed 12 after seed 11: oracle keys omit the seed, so every
        oracle hits and every comparison misses."""
        config = replace(BASE, cache_dir=str(tmp_path / "cache"), workers=workers)
        table1_summary.run(config)
        engine = config.engine()
        before = engine.stats.snapshot()
        built.clear()
        partial = table1_summary.run(replace(config, seed=12))
        after = engine.stats.snapshot()
        units = len(STUDY_CLASSES) * len(BASE.datasets)
        assert after["hits"] - before["hits"] == units
        assert after["misses"] - before["misses"] == units
        assert {key: n for key, n in built.items() if key[1] in BASE.datasets} == {
            (cls.__name__, name): 1
            for cls in STUDY_CLASSES
            for name in BASE.datasets
        }
        assert partial.render() == table1_summary.run(replace(BASE, seed=12)).render()

    def test_warm_run_still_validates_every_trace(self, tmp_path, monkeypatch):
        sources = []
        validate = runner.validate_timeline

        def counting(timeline, source):
            sources.append(source)
            return validate(timeline, source=source)

        monkeypatch.setattr(runner, "validate_timeline", counting)
        config = replace(BASE, cache_dir=str(tmp_path / "cache"), validate_traces=True)
        cold = fig3_cc.run(config)
        cold_sources = list(sources)
        sources.clear()
        warm = fig3_cc.run(config)
        assert warm.render() == cold.render()
        assert cold_sources and sources == cold_sources
