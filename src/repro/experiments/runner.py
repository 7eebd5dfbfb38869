"""The experiment runner: every experiment runs its work through here.

Every paper table and figure follows one protocol — an oracle sweep, a
sampled estimate, and the schedule priced at the reported thresholds —
and every experiment states its work as *units*, one cache key and one
payload each, run by :func:`units`.  Units go through the config's
:class:`repro.engine.Engine`: finished units are stored in the result
cache and replayed on warm runs, and misses fan out across the config's
workers.  A payload is built in this process, once, and only when its
unit misses, so a warm run builds no problem and synthesizes no dataset,
and pooled workers inherit the built payloads.  With
``config.validate_traces`` the runner also hazard-checks the schedule
at every threshold a unit reports, on hits as well as misses.

On top of it sit the shared protocols — :func:`study_oracles` (the one
oracle pass every experiment that reports a study oracle reads),
:func:`run_study` (Figures 3/5/8, Table I), :func:`sensitivity_sweep`
(Figures 4/6/9) and :func:`sampler_ablation` (the three sampler
ablations) — and the study table behind :func:`study_problem` and
:func:`study_partitioner`, which the tuning server shares.

Every unit is *self-seeding* — its randomness derives from
:func:`repro.util.rng.stable_seed` over (seed, study, dataset, ...)
inside the payload — so parallel runs are bit-identical to serial runs.
Both properties survive faults: the engine retries crashed/hung/failed
units within the config's ``task_timeout_s`` / ``max_retries`` budgets
(quarantining a poison payload instead of rerunning whole batches), and a
successful retry computes exactly what a first-try success would have —
so a study that weathered worker crashes still renders byte-identically
to a fault-free serial run (``tests/test_engine_faults.py``), with the
incidents reported via :class:`repro.engine.EngineStats`, never silently.
"""

from __future__ import annotations

import functools
from operator import attrgetter, methodcaller
from typing import Callable, Sequence

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
from repro.hetero.multiway_cc import MultiwayCcProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.obs import runtime as _obs
from repro.obs.timeline_view import validate_timeline
from repro.util.errors import ValidationError
from repro.util.rng import stable_seed
from repro.workloads.suite import cc_subset_names, scalefree_subset_names, spmm_subset_names


def validate_reported_traces(problem: PartitionProblem, thresholds: list) -> None:
    """Hazard-check the problem's timeline at each reported threshold.

    The opt-in validation pass behind ``ExperimentConfig.validate_traces``:
    re-derives the simulated schedule at each published threshold (a
    scalar, or an N-device cut vector) and raises if any is physically
    implausible (overlapping spans, clock violations, PCIe ordering — see
    :mod:`repro.analysis.hazards`).  Problems without a ``timeline``
    method are skipped; the framework does not require one.
    """
    timeline_fn = getattr(problem, "timeline", None)
    if timeline_fn is None:
        return
    for threshold in thresholds:
        label = ",".join(f"{t:g}" for t in np.atleast_1d(threshold))
        validate_timeline(
            timeline_fn(threshold), source=f"{problem.name}@threshold={label}"
        )


def units(
    config: ExperimentConfig,
    task: Callable,
    keys: Sequence[dict],
    build: Callable[[int], object],
    schedules: Callable[[object], list] | None = None,
    **codec: Callable,
) -> list:
    """``[task(build(i)) for i in range(len(keys))]``, cached and fanned out.

    ``build(i)`` makes unit *i*'s payload (a problem, or a tuple whose
    first item is the problem), memoized, and only when *keys[i]* misses.
    *codec* passes ``encode`` / ``decode`` / ``count`` to
    :meth:`~repro.engine.Engine.cached_map`; without them a task returns
    a JSON-safe dict of plain floats, ints and lists, which renders alike
    fresh and replayed.  With ``config.validate_traces`` the problem's
    timeline at each threshold in ``schedules(result)`` is hazard-checked,
    on hits too.  The project analysis treats *task* as a pool worker
    (``TASK_HELPERS`` in :mod:`repro.analysis.summary`).
    """
    payload = functools.cache(build)
    results = config.engine().cached_map(
        task, range(len(keys)), key_fields=keys, prepare=payload, **codec
    )
    if config.validate_traces and schedules is not None:
        for i, result in enumerate(results):
            built = payload(i)
            problem = built[0] if isinstance(built, tuple) else built
            validate_reported_traces(problem, schedules(result))
    return results


def unit_key(kind: str, config: ExperimentConfig, *fields: str, **extra) -> dict:
    """Cache key of a *kind* record: the named config *fields* plus *extra*.

    A key names exactly what its record depends on — a missing field
    would replay a wrong record, an extra one only costs reuse.
    """
    return {"kind": kind, **{f: getattr(config, f) for f in fields}, **extra}


# -- the study table ---------------------------------------------------------

#: Section III's identify setup: coarse step 8, fine step 1.
_CC_SEARCH = functools.partial(CoarseToFineSearch, coarse_step=8, fine_step=1)

#: Each study kind's problem class (named in its cache keys), dataset
#: view, identify search and paper dataset selection.  The cluster kinds
#: partition the same views across N devices; cut-vector descent tunes
#: them, so they have no scalar search and no paper suite.
_STUDIES = {
    "cc": (CcProblem, methodcaller("as_graph"), _CC_SEARCH, cc_subset_names),
    "spmm": (SpmmProblem, attrgetter("matrix"), RaceCoarseSearch, spmm_subset_names),
    "hh": (HhCpuProblem, attrgetter("matrix"), GradientDescentSearch, scalefree_subset_names),
    "cluster-cc": (MultiwayCcProblem, methodcaller("as_graph"), None, None),
    "cluster-spmm": (MultiwaySpmmProblem, attrgetter("matrix"), None, None),
}


def study_problem(
    config: ExperimentConfig, kind: str, name: str, machine=None, **options
) -> PartitionProblem:
    """Study *kind*'s problem on dataset *name*, in a ``problem/<name>`` span.

    *machine* defaults to the config's paper testbed; the cluster kinds
    take a :class:`~repro.platform.cluster.ClusterSpec`.  *options* go to
    the problem class (``sampling_method=...``).
    """
    problem_class, view = _STUDIES[kind][:2]
    machine = config.machine() if machine is None else machine
    with _obs.span(f"problem/{name}", cat="experiments", kind=kind):
        return problem_class(view(config.dataset(name)), machine, name=name, **options)


def study_partitioner(
    config: ExperimentConfig, kind: str, name: str, sample_size: int | None = None
) -> SamplingPartitioner:
    """Study *kind*'s identify setup, seeded per (config seed, kind, dataset).

    Section III: coarse-to-fine; Section IV: race probe plus fine search;
    Section V: multi-start gradient descent.
    """
    return SamplingPartitioner(
        _STUDIES[kind][2](),
        sample_size=sample_size,
        repeats=config.repeats,
        rng=stable_seed(config.seed, kind, name),
    )


def study_problems(config: ExperimentConfig, kind: str) -> Callable[[str], PartitionProblem]:
    """Dataset name -> study *kind*'s problem, each built at most once."""
    return functools.cache(functools.partial(study_problem, config, kind))


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
        "sample_size": partitioner.sample_size,
        "estimation_ms": estimate.estimation_cost_ms,
        "threshold": threshold,
        "phase2_ms": problem.evaluate_ms(threshold),
        "n_evaluations": sum(s.n_evaluations for s in estimate.searches),
    }


def _ablation_task(args: tuple[PartitionProblem, SamplingPartitioner, bool]) -> dict:
    """One sampler-ablation cell: the (clamped) estimate and its full-input time."""
    problem, partitioner, clamp = args
    threshold = partitioner.estimate(problem).threshold
    if clamp:
        threshold = min(max(threshold, 0.0), problem.gpu_only_threshold())
    return {"threshold": threshold, "time_ms": problem.evaluate_ms(threshold)}


# -- the study protocols ---------------------------------------------------


def study_oracles(
    config: ExperimentConfig,
    kind: str,
    names: list[str],
    problem: Callable[[str], PartitionProblem] | None = None,
) -> list[OracleResult]:
    """The exhaustive oracle of study *kind* on each of *names*.

    The sweep consumes no randomness and no suite context, so its key
    names only the scale, the dataset and the problem class — every
    experiment that reports a study oracle reads the same record, across
    seeds and dataset restrictions (docs/ENGINE.md).  *problem* maps a
    dataset name to the problem to sweep on a miss; pass the
    experiment's own memo so a cold run builds each problem once.
    """
    problem = problem or study_problems(config, kind)
    problem_class = _STUDIES[kind][0].__name__
    return units(
        config,
        exhaustive_oracle,
        [
            unit_key(
                "oracle", config, "scale", dataset=name, problem=problem_class,
                strategy="ExhaustiveSearch",
            )
            for name in names
        ],
        lambda i: problem(names[i]),
        schedules=lambda o: [o.threshold],
        encode=OracleResult.to_record,
        decode=OracleResult.from_record,
        count=lambda o: o.n_evaluations,
    )


def run_study(config: ExperimentConfig, kind: str) -> list[BaselineComparison]:
    """The Figure 3/5/8 protocol for study *kind* (``"cc"``, ``"spmm"``, ``"hh"``).

    Two passes: the oracle sweep per dataset first (it also feeds the
    NaiveAverage baseline, which the paper derives from "several rounds of
    prior exhaustive runs" across the suite), then the sampling estimate
    and baseline evaluations.  Both passes share one problem memo, so a
    dataset's problem is built only when one of its units misses, at most
    once per study, and a warm run builds none.
    """
    default_names = _STUDIES[kind][3]()
    names = config.select(default_names)
    if not names:
        raise ValidationError(
            f"the {kind} study has no dataset under the restriction "
            f"datasets={','.join(config.datasets or ())}; it runs on: "
            f"{', '.join(default_names)}"
        )
    problem = study_problems(config, kind)
    with _obs.span(f"study/{kind}", cat="experiments", datasets=len(names)):
        oracles = study_oracles(config, kind, names, problem)
        naive_avg = naive_average_threshold([o.threshold for o in oracles])
        # Every payload carries its own stable_seed-derived generator, so
        # fan-out order cannot leak into results.  The key includes the
        # resolved suite, because NaiveAverage is a cross-dataset number,
        # and labels the identify setup; its search parameters are source
        # constants, covered by the cache's code-version salt.
        partitioners = [study_partitioner(config, kind, name) for name in names]
        return units(
            config,
            _comparison_task,
            [
                unit_key(
                    "comparison", config, dataset=name, suite=names,
                    problem=_STUDIES[kind][0].__name__,
                    strategy=f"{type(p.search).__name__}"
                    f"(sample_size={p.sample_size},repeats={p.repeats})",
                    **config.cache_fields(),
                )
                for name, p in zip(names, partitioners)
            ],
            lambda i: (problem(names[i]), partitioners[i], naive_avg, oracles[i]),
            schedules=lambda c: [c.estimate.threshold, c.naive_static_threshold],
            encode=BaselineComparison.to_record,
            decode=BaselineComparison.from_record,
            count=lambda c: sum(s.n_evaluations for s in c.estimate.searches),
        )


def sensitivity_sweep(
    config: ExperimentConfig,
    study: str,
    kind: str,
    name: str,
    search: Callable[[], SearchStrategy],
    grid: Sequence,
    size_of: Callable[[PartitionProblem, object], int],
    draws: int = 5,
) -> list[dict]:
    """The Figure 4/6/9 protocol: total time vs sample size.

    For each *grid* entry, run *draws* independent estimates (different
    sampling seeds) and average the estimation cost, the Phase-II time at
    the estimated threshold, and their sum.  Each estimate is a
    :class:`SamplingPartitioner` around a fresh ``search()``, seeded from
    (config seed, *study*, dataset, size, draw).  The units are keyed by
    (grid entry, draw), so a lookup needs no problem: ``size_of(problem,
    entry)`` turns an entry into a sample size when a unit is built, and
    every record carries its ``sample_size``.
    """

    @functools.cache
    def instance() -> tuple[PartitionProblem, float, float]:
        problem = study_problem(config, kind, name)
        thresholds = problem.threshold_grid()
        return problem, float(thresholds[0]), float(thresholds[-1])

    cells = [(entry, draw) for entry in grid for draw in range(draws)]

    def build(i: int) -> tuple:
        problem, lo, hi = instance()
        entry, draw = cells[i]
        size = size_of(problem, entry)
        partitioner = SamplingPartitioner(
            search(), sample_size=size, rng=stable_seed(config.seed, study, name, size, draw)
        )
        return problem, partitioner, lo, hi

    results = units(
        config,
        _sweep_task,
        [
            unit_key(
                "sensitivity", config, "scale", "seed", study=study, dataset=name,
                problem=_STUDIES[kind][0].__name__, strategy=search.__name__,
                grid=entry, draw=draw,
            )
            for entry, draw in cells
        ],
        build,
        schedules=lambda r: [r["threshold"]],
        count=lambda r: r["n_evaluations"],
    )
    rows = []
    for i in range(len(grid)):
        per_draw = results[i * draws : (i + 1) * draws]
        est = float(np.mean([r["estimation_ms"] for r in per_draw]))
        p2 = float(np.mean([r["phase2_ms"] for r in per_draw]))
        rows.append(
            {
                "sample_size": per_draw[0]["sample_size"],
                "estimation_ms": est,
                "phase2_ms": p2,
                "total_ms": est + p2,
            }
        )
    return rows


def sampler_ablation(
    config: ExperimentConfig,
    exp_id: str,
    kind: str,
    names: list[str],
    methods: Sequence[str],
    partitioner: Callable[[ExperimentConfig, str, str], SamplingPartitioner],
    clamp: bool = False,
) -> tuple[list[tuple], dict]:
    """Ablations A, B and D: study *kind*'s sampler variants vs its oracle.

    Per (dataset, method): the problem built with that
    ``sampling_method``, estimated by ``partitioner(config, name,
    method)``, the estimate (clamped to ``[0, gpu_only_threshold]`` with
    *clamp*) priced on the full input, and its % slowdown vs the study
    oracle.  The first method is the study's default sampler, whose
    problem the oracle pass sweeps.  Returns the rows — dataset, oracle
    threshold, then (threshold, slowdown) per method — and the metrics
    ``<dataset>_<method>_slowdown`` and ``avg_<method>_slowdown``.
    """
    problem = functools.cache(
        lambda name, method: study_problem(config, kind, name, sampling_method=method)
    )
    oracles = study_oracles(config, kind, names, lambda name: problem(name, methods[0]))
    cells = [(name, method) for name in names for method in methods]
    results = units(
        config,
        _ablation_task,
        [
            unit_key(
                "sampler-ablation", config, "scale", "seed", experiment=exp_id,
                dataset=name, problem=_STUDIES[kind][0].__name__, method=method,
            )
            for name, method in cells
        ],
        lambda i: (problem(*cells[i]), partitioner(config, *cells[i]), clamp),
        schedules=lambda r: [r["threshold"]],
    )
    rows = {name: [name, oracle.threshold] for name, oracle in zip(names, oracles)}
    metrics = {}
    for (name, method), r in zip(cells, results):
        best_ms = oracles[names.index(name)].best_time_ms
        slowdown = 100.0 * max(0.0, r["time_ms"] / best_ms - 1.0)
        metrics[f"{name}_{method}_slowdown"] = slowdown
        rows[name] += [r["threshold"], slowdown]
    for method in methods:
        metrics[f"avg_{method}_slowdown"] = float(
            np.mean([metrics[f"{n}_{method}_slowdown"] for n in names])
        )
    return [tuple(row) for row in rows.values()], metrics
