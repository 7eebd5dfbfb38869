"""The engine determinism suite.

Three guarantees the engine must never break, for every experiment in
``REGISTRY``:

* **Parallel = serial.**  ``workers=2`` runs produce *identical*
  thresholds and runtimes — we assert on the full rendered report,
  which is stricter (every cell, byte for byte).
* **Warm = cold.**  A warm-cache run replays a cold run's output exactly,
  with zero problem evaluations performed, zero problems built and no
  dataset requested.
* **Validation is replayed.**  With ``validate_traces`` every experiment
  that reports a simulated schedule hazard-checks it, and a warm run
  checks exactly the schedules the cold run checked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.experiments import (
    REGISTRY,
    config as config_module,
    fig3_cc,
    fig4_cc_sensitivity,
    runner,
    table1_summary,
)
from repro.experiments.config import ExperimentConfig
from repro.hetero.cc import CcProblem
from repro.hetero.dense_mm import DenseMmProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.multiway_cc import MultiwayCcProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.obs import runtime

#: Tiny but structurally diverse: one banded FEM and one heavier FEM matrix,
#: both present in all three study suites.
BASE = ExperimentConfig(scale=1 / 256, seed=11, datasets=("cant", "pwtk"))

STUDY_CLASSES = (CcProblem, SpmmProblem, HhCpuProblem)

#: Every problem class an experiment builds.
PROBLEM_CLASSES = STUDY_CLASSES + (
    DenseMmProblem,
    MultiwayCcProblem,
    MultiwaySpmmProblem,
)


@pytest.fixture
def built(monkeypatch) -> Counter:
    """Problem constructions in this process, by (class name, problem name).

    Sampled instances (``cant/sample15``) count under their own names.
    """
    counts: Counter = Counter()
    for cls in PROBLEM_CLASSES:

        def counting(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            counts[type(self).__name__, self.name] += 1

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.fixture
def loaded(monkeypatch) -> list:
    """Dataset requests in this process, memoized or not (name, scale)."""
    requests: list = []
    memo = config_module._cached_dataset

    def counting(name, scale):
        requests.append((name, scale))
        return memo(name, scale)

    monkeypatch.setattr(config_module, "_cached_dataset", counting)
    return requests


@pytest.fixture
def validated(monkeypatch) -> list:
    """Sources of every schedule the runner hazard-checks, in order."""
    sources: list = []
    validate = runner.validate_timeline

    def counting(timeline, source):
        sources.append(source)
        return validate(timeline, source=source)

    monkeypatch.setattr(runner, "validate_timeline", counting)
    return sources


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("exp_id", list(REGISTRY))
    def test_workers2_bit_identical(self, exp_id):
        run = REGISTRY[exp_id]
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

    @pytest.mark.parametrize("exp_id", list(REGISTRY))
    def test_warm_run_builds_no_problem(self, tmp_path, built, loaded, exp_id):
        run = REGISTRY[exp_id]
        config = replace(BASE, cache_dir=str(tmp_path / "cache"))
        cold = run(config)
        assert built or loaded
        if exp_id in ("fig3", "table1"):
            # One build per dataset, shared by the oracle and comparison passes.
            assert built[CcProblem.__name__, "cant"] == 1
        before = config.engine().stats.snapshot()
        built.clear()
        loaded.clear()
        warm = run(config)
        after = config.engine().stats.snapshot()
        assert warm.render() == cold.render()
        assert not built and not loaded
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]

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

    def test_warm_run_still_validates_every_trace(self, tmp_path, validated):
        config = replace(BASE, cache_dir=str(tmp_path / "cache"), validate_traces=True)
        cold = fig3_cc.run(config)
        cold_sources = list(validated)
        validated.clear()
        warm = fig3_cc.run(config)
        assert warm.render() == cold.render()
        assert cold_sources and validated == cold_sources


class TestEveryExperimentValidates:
    """``validate_traces`` reaches every experiment through the runner."""

    @pytest.mark.parametrize("exp_id", list(REGISTRY))
    def test_warm_run_checks_the_cold_run_schedules(self, tmp_path, validated, exp_id):
        run = REGISTRY[exp_id]
        config = replace(BASE, cache_dir=str(tmp_path / "cache"), validate_traces=True)
        cold = run(config)
        cold_sources = list(validated)
        validated.clear()
        warm = run(config)
        assert warm.render() == cold.render()
        assert validated == cold_sources
        # Table II reports no schedule; every other experiment does.
        assert bool(cold_sources) == (exp_id != "table2")
