"""Benchmark configuration.

Each benchmark regenerates one of the paper's tables/figures through the
same harness the CLI uses, at a reduced scale so `pytest benchmarks/
--benchmark-only` completes in minutes.  The benchmarked quantity is the
wall-clock of the full regeneration (dataset synthesis is cached across
rounds via the config's dataset cache, so rounds after the first measure
the experiment pipeline itself).

Process-pool safety: the session fixtures *materialize* their datasets
eagerly, in this (parent) process.  A pooled map forks its workers after
the problems are built, and the workers inherit them — workers never call
``load_dataset`` — so ``REPRO_BENCH_WORKERS > 1`` cannot make each worker
re-synthesize the suite, and benchmark rounds keep hitting the parent's
dataset cache exactly as in serial runs.

Environment knobs (read once at session start):

``REPRO_BENCH_WORKERS``
    Engine fan-out width for the benchmarked configs (default 1; results
    are bit-identical at any value, only wall-clock changes).
``REPRO_ENGINE_STATS``
    When set, a JSON snapshot of the engine's aggregate hit/miss and
    worker counters is written to this path at session end —
    ``tools/bench_report.py`` folds it into ``BENCH_<date>.json``.

The persistent result cache stays *disabled* for the regeneration
benchmarks (a warm cache would turn them into cache-replay measurements);
the warm-cache path is benchmarked explicitly by
``test_engine_warm_cache.py`` with a session-temporary cache directory.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import ExperimentConfig

#: Linear dataset scale for benchmarking (1/64 of Table II).
BENCH_SCALE = 1 / 64

#: Engine fan-out width for benchmarked configs.
BENCH_WORKERS = max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))

#: Subset used by the per-dataset studies to bound runtime while keeping
#: one representative of each structure class.
BENCH_DATASETS = ("cant", "pwtk", "webbase-1M", "netherlands_osm")

#: Datasets the fixed-selection experiments (fig4/fig6/fig9) reach for in
#: addition to BENCH_DATASETS; materialized up front for the same reason.
EXTRA_DATASETS = ("cant", "cop20k_A", "delaunay_n22", "germany_osm", "web-BerkStan")


def _materialize(config: ExperimentConfig, names: tuple[str, ...]) -> None:
    """Synthesize datasets in the parent before any engine fan-out."""
    for name in names:
        config.dataset(name)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    config = ExperimentConfig(
        scale=BENCH_SCALE, seed=2017, datasets=BENCH_DATASETS, workers=BENCH_WORKERS
    )
    _materialize(config, BENCH_DATASETS)
    return config


@pytest.fixture(scope="session")
def bench_config_all() -> ExperimentConfig:
    """No dataset restriction (for experiments with their own fixed sets)."""
    config = ExperimentConfig(scale=BENCH_SCALE, seed=2017, workers=BENCH_WORKERS)
    _materialize(config, BENCH_DATASETS + EXTRA_DATASETS)
    return config


def pytest_sessionfinish(session, exitstatus):
    """Dump aggregate engine counters for tools/bench_report.py."""
    stats_path = os.environ.get("REPRO_ENGINE_STATS")
    if not stats_path:
        return
    from repro.engine import aggregate_stats

    stats = aggregate_stats()
    stats["workers"] = max(stats["workers"], BENCH_WORKERS)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
