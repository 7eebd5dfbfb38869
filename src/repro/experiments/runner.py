"""Shared study runners.

The three case studies (Figures 3, 5, 8 — and Table I, which aggregates
them) all follow the same protocol per dataset: run the exhaustive oracle,
the sampling estimate, and the baselines, with the NaiveAverage computed
across the whole suite first.  This module implements that protocol once.

Execution goes through the config's :class:`repro.engine.Engine`, and
every pass fans out across its units:

* the oracle pass across datasets, one
  :func:`repro.core.oracle.exhaustive_oracle` per dataset;
* the estimate/baseline pass across datasets;
* the sensitivity grids (Figures 4/6/9) across their
  (sample size, draw) units.

Every unit is *self-seeding* — its randomness derives from
:func:`repro.util.rng.stable_seed` over (seed, study, dataset, ...) inside
the payload — so parallel runs are bit-identical to serial runs.  Finished
units are stored in the engine's result cache and replayed on warm runs;
the Figure 3/5/8 studies build a dataset's problem only when one of its
units misses.

Both properties survive faults: the engine retries crashed/hung/failed
units within the config's ``task_timeout_s`` / ``max_retries`` budgets
(quarantining a poison payload instead of rerunning whole batches), and a
successful retry computes exactly what a first-try success would have —
so a study that weathered worker crashes still renders byte-identically
to a fault-free serial run (``tests/test_engine_faults.py``), with the
incidents reported via :class:`repro.engine.EngineStats`, never silently.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.baselines import (
    BaselineComparison,
    compare_with_baselines,
    naive_average_threshold,
)
from repro.core.framework import SamplingPartitioner
from repro.core.oracle import OracleResult, exhaustive_oracle
from repro.core.problem import PartitionProblem
from repro.core.search import (
    CoarseToFineSearch,
    GradientDescentSearch,
    RaceCoarseSearch,
    SearchStrategy,
)
from repro.experiments.config import ExperimentConfig
from repro.hetero.cc import CcProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.spmm import SpmmProblem
from repro.obs import runtime as _obs
from repro.obs.timeline_view import validate_timeline
from repro.util.errors import ValidationError
from repro.util.rng import stable_seed
from repro.workloads.suite import cc_subset_names, scalefree_subset_names, spmm_subset_names


def validate_reported_traces(
    problem: PartitionProblem, thresholds: list[float]
) -> None:
    """Hazard-check the problem's timeline at each reported threshold.

    The opt-in validation pass behind ``ExperimentConfig.validate_traces``:
    re-derives the simulated schedule at the thresholds a study actually
    publishes and raises if any is physically implausible (overlapping
    spans, clock violations, PCIe ordering — see
    :mod:`repro.analysis.hazards`).  Problems without a ``timeline``
    method are skipped; the framework does not require one.
    """
    timeline_fn = getattr(problem, "timeline", None)
    if timeline_fn is None:
        return
    for threshold in thresholds:
        validate_timeline(
            timeline_fn(threshold),
            source=f"{problem.name}@threshold={threshold:g}",
        )


def cc_problem(config: ExperimentConfig, name: str) -> CcProblem:
    """Algorithm 1 bound to dataset *name*'s graph view."""
    dataset = config.dataset(name)
    return CcProblem(dataset.as_graph(), config.machine(), name=name)


def spmm_problem(config: ExperimentConfig, name: str) -> SpmmProblem:
    """Algorithm 2 bound to dataset *name*'s matrix view (``A x A``)."""
    dataset = config.dataset(name)
    return SpmmProblem(dataset.matrix, config.machine(), name=name)


def hh_problem(config: ExperimentConfig, name: str) -> HhCpuProblem:
    """Algorithm 3 bound to dataset *name*'s matrix view (``A x A``)."""
    dataset = config.dataset(name)
    return HhCpuProblem(dataset.matrix, config.machine(), name=name)


def cc_partitioner(config: ExperimentConfig, name: str, sample_size: int | None = None) -> SamplingPartitioner:
    """The Section III identify setup: coarse step 8, fine step 1."""
    return SamplingPartitioner(
        CoarseToFineSearch(coarse_step=8, fine_step=1),
        sample_size=sample_size,
        repeats=config.repeats,
        rng=stable_seed(config.seed, "cc", name),
    )


def spmm_partitioner(config: ExperimentConfig, name: str, sample_size: int | None = None) -> SamplingPartitioner:
    """The Section IV identify setup: race probe + fine search."""
    return SamplingPartitioner(
        RaceCoarseSearch(),
        sample_size=sample_size,
        repeats=config.repeats,
        rng=stable_seed(config.seed, "spmm", name),
    )


def hh_partitioner(config: ExperimentConfig, name: str, sample_size: int | None = None) -> SamplingPartitioner:
    """The Section V identify setup: multi-start gradient descent."""
    return SamplingPartitioner(
        GradientDescentSearch(),
        sample_size=sample_size,
        repeats=config.repeats,
        rng=stable_seed(config.seed, "hh", name),
    )


# -- engine task functions (module-level: they cross process boundaries) ---


def _comparison_task(
    args: tuple[PartitionProblem, SamplingPartitioner, float | None, OracleResult],
) -> BaselineComparison:
    """One dataset's estimate + baselines (the Figure 3/5/8 row)."""
    problem, partitioner, naive_avg, oracle = args
    return compare_with_baselines(
        problem, partitioner, naive_average=naive_avg, oracle=oracle
    )


def _sweep_task(
    args: tuple[PartitionProblem, SamplingPartitioner, float, float],
) -> dict:
    """One sensitivity unit: estimate at a (size, draw), price Phase II."""
    problem, partitioner, lo, hi = args
    estimate = partitioner.estimate(problem)
    threshold = min(max(estimate.threshold, lo), hi)
    return {
        "estimation_ms": estimate.estimation_cost_ms,
        "threshold": threshold,
        "phase2_ms": problem.evaluate_ms(threshold),
        "n_evaluations": sum(s.n_evaluations for s in estimate.searches),
    }


# -- cache key builders ----------------------------------------------------


def _strategy_label(partitioner: SamplingPartitioner) -> str:
    """Cache-key descriptor of the identify setup.

    Strategy *parameters* (coarse steps, fine radii, ...) are not spelled
    out here: they are source constants, so the cache's code-version salt
    already invalidates on any change to them.
    """
    return (
        f"{type(partitioner.search).__name__}"
        f"(sample_size={partitioner.sample_size},repeats={partitioner.repeats})"
    )


def _oracle_key(
    config: ExperimentConfig, name: str, problem_class: type[PartitionProblem]
) -> dict:
    """Key fields of an exhaustive-oracle record.

    The oracle consumes no randomness and no suite context — its result
    depends only on the (scaled) dataset and the problem class — so the
    key deliberately omits ``seed``/``datasets`` to maximize reuse across
    configs (docs/ENGINE.md).  It names the problem class rather than an
    instance, so a lookup needs nothing built.
    """
    return {
        "kind": "oracle",
        "scale": config.scale,
        "dataset": name,
        "problem": problem_class.__name__,
        "strategy": "ExhaustiveSearch",
    }


def _comparison_key(
    config: ExperimentConfig,
    name: str,
    problem_class: type[PartitionProblem],
    partitioner: SamplingPartitioner,
    suite: list[str],
) -> dict:
    """Key fields of a per-dataset comparison record.

    Includes the resolved *suite* because the NaiveAverage baseline is an
    offline cross-dataset number: the same dataset under a different
    restriction yields a different row.
    """
    return {
        "kind": "comparison",
        **config.cache_fields(),
        "dataset": name,
        "problem": problem_class.__name__,
        "strategy": _strategy_label(partitioner),
        "suite": suite,
    }


# -- the study protocols ---------------------------------------------------


#: Each case study's problem class (named in its cache keys), problem
#: factory, identify setup and paper dataset selection.
_STUDIES = {
    "cc": (CcProblem, cc_problem, cc_partitioner, cc_subset_names),
    "spmm": (SpmmProblem, spmm_problem, spmm_partitioner, spmm_subset_names),
    "hh": (HhCpuProblem, hh_problem, hh_partitioner, scalefree_subset_names),
}


def run_study(config: ExperimentConfig, kind: str) -> list[BaselineComparison]:
    """The Figure 3/5/8 protocol for study *kind* (``"cc"``, ``"spmm"``, ``"hh"``).

    Two passes: the oracle sweep per dataset first (it also feeds the
    NaiveAverage baseline, which the paper derives from "several rounds of
    prior exhaustive runs" across the suite), then the sampling estimate
    and baseline evaluations.  Both passes key their records by (config,
    dataset, problem class), so a dataset's problem is built only when
    one of its units misses the cache, at most once per study, and a
    warm run builds none.  Problems are built here in the parent process
    — pooled workers inherit the built instances and never re-synthesize
    datasets.
    """
    problem_class, problem_factory, partitioner_factory, subset = _STUDIES[kind]
    default_names = subset()
    names = config.select(default_names)
    if not names:
        raise ValidationError(
            f"the {kind} study has no dataset under the restriction "
            f"datasets={','.join(config.datasets or ())}; it runs on: "
            f"{', '.join(default_names)}"
        )
    built: dict[str, PartitionProblem] = {}

    def problem(name: str) -> PartitionProblem:
        if name not in built:
            with _obs.span(f"problem/{name}", cat="experiments", kind=kind):
                built[name] = problem_factory(config, name)
        return built[name]

    with _obs.span(f"study/{kind}", cat="experiments", datasets=len(names)):
        engine = config.engine()
        # Pass 1 — oracles, fanned out across datasets.
        oracles: list[OracleResult] = engine.cached_map(
            exhaustive_oracle,
            names,
            key_fields=[_oracle_key(config, name, problem_class) for name in names],
            encode=OracleResult.to_record,
            decode=OracleResult.from_record,
            count=lambda o: o.n_evaluations,
            prepare=problem,
        )
        naive_avg = naive_average_threshold([o.threshold for o in oracles])
        # Pass 2 — estimates + baselines, fanned out across datasets.
        # Every payload carries its own stable_seed-derived generator
        # (built by the partitioner factory), so fan-out order cannot
        # leak into results.
        partitioners = [partitioner_factory(config, name) for name in names]
        comparisons: list[BaselineComparison] = engine.cached_map(
            _comparison_task,
            list(zip(names, partitioners, oracles)),
            key_fields=[
                _comparison_key(config, name, problem_class, partitioner, names)
                for name, partitioner in zip(names, partitioners)
            ],
            encode=BaselineComparison.to_record,
            decode=BaselineComparison.from_record,
            count=lambda c: sum(s.n_evaluations for s in c.estimate.searches),
            prepare=lambda unit: (problem(unit[0]), unit[1], naive_avg, unit[2]),
        )
        if config.validate_traces:
            for name, comparison in zip(names, comparisons):
                validate_reported_traces(
                    problem(name),
                    [
                        comparison.oracle.threshold,
                        comparison.estimate.threshold,
                        comparison.naive_static_threshold,
                    ],
                )
    return comparisons


def sensitivity_sweep(
    config: ExperimentConfig,
    study: str,
    problem: PartitionProblem,
    search: Callable[[], SearchStrategy],
    sizes: list[int],
    draws: int = 5,
) -> list[dict]:
    """The Figure 4/6/9 protocol: total time vs sample size.

    For each sample size, run *draws* independent estimates (different
    sampling seeds) and average the estimation cost, the Phase-II time at
    the estimated threshold, and their sum.  Each estimate is a
    :class:`SamplingPartitioner` around a fresh ``search()``, seeded from
    (config seed, *study*, dataset, size, draw), so the (size, draw) units
    fan out over the config's engine and are cached under *study* without
    changing a number.  With ``config.validate_traces``, every estimated
    threshold's simulated schedule is hazard-checked.
    """
    grid = problem.threshold_grid()
    lo, hi = float(grid[0]), float(grid[-1])
    units = [(size, draw) for size in sizes for draw in range(draws)]
    partitioners = [
        SamplingPartitioner(
            search(),
            sample_size=size,
            rng=stable_seed(config.seed, study, problem.name, size, draw),
        )
        for size, draw in units
    ]
    results = config.engine().cached_map(
        _sweep_task,
        [(problem, partitioner, lo, hi) for partitioner in partitioners],
        key_fields=[
            {
                "kind": "sensitivity",
                "study": study,
                "scale": config.scale,
                "seed": config.seed,
                "dataset": problem.name,
                "problem": type(problem).__name__,
                "strategy": _strategy_label(partitioner),
                "sample_size": size,
                "draw": draw,
            }
            for (size, draw), partitioner in zip(units, partitioners)
        ],
        count=lambda r: r["n_evaluations"],
    )
    if config.validate_traces:
        for result in results:
            validate_reported_traces(problem, [result["threshold"]])
    rows = []
    for i, size in enumerate(sizes):
        per_draw = results[i * draws : (i + 1) * draws]
        est = float(np.mean([r["estimation_ms"] for r in per_draw]))
        p2 = float(np.mean([r["phase2_ms"] for r in per_draw]))
        rows.append(
            {
                "sample_size": size,
                "estimation_ms": est,
                "phase2_ms": p2,
                "total_ms": est + p2,
            }
        )
    return rows
