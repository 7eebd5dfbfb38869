"""Shared experiment configuration.

One :class:`ExperimentConfig` drives every experiment: the dataset scale
(linear shrink of Table II's dimensions), the seed, and optional dataset
restriction.  The simulated machine's *fixed* time constants shrink by the
same scale so overhead ratios match the full-size testbed (see
:func:`repro.platform.machine.paper_testbed`).

The config also selects the execution engine (``repro.engine``): *workers*
picks the parallel backend and *cache_dir* the persistent result cache.
Neither changes any computed number — parallel runs are bit-identical to
serial runs, and cached records replay exactly what a cold run produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.platform.machine import HeterogeneousMachine, paper_testbed
from repro.util.errors import ValidationError
from repro.workloads.dataset import Dataset
from repro.workloads.suite import DEFAULT_SCALE, dataset_names, load_dataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.engine import Engine, FaultPlan


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Knobs shared by all experiments (construct with keywords only).

    Attributes
    ----------
    scale:
        Linear dataset scale (1/16 default; benchmarks use smaller).
    seed:
        Base seed; per-dataset/per-repeat streams derive from it.
    datasets:
        Restrict an experiment to these Table II dataset names (``None``
        = the experiment's paper-default selection); any other name is
        a :class:`~repro.util.errors.ValidationError`.
    repeats:
        Sampling repetitions averaged inside each estimate.
    validate_traces:
        Opt-in correctness pass: hazard-check the simulated timeline at
        every threshold an experiment reports (see
        :func:`repro.obs.validate_timeline`); every experiment but
        ``table2``, which reports no schedule, checks at least one, and
        a warm run rebuilds the problems it checks.  Off by default —
        the checks are O(spans log spans) per reported threshold.
    workers:
        Parallel fan-out width for the execution engine: ``1`` (default)
        runs serially in-process, ``N > 1`` uses a process pool.  Results
        are bit-identical either way.
    cache_dir:
        Directory of the persistent result cache; ``None`` (default)
        disables caching.  Warm records replay byte-identically.
    task_timeout_s:
        Stall watchdog for pooled tasks: if no task completes for this
        long the pool is presumed hung, killed, and the unfinished tasks
        retried (``None`` = wait forever).  Like every fault-tolerance
        knob it bounds *when* the engine gives up, never *what* it
        computes — results stay bit-identical.
    max_retries:
        Re-attempts granted to each failing engine task beyond its first
        try before the failure is surfaced.
    fault_plan:
        Optional :class:`~repro.engine.FaultPlan` injected into the
        engine (deterministic chaos testing; see docs/ENGINE.md).
        Deliberately *not* part of :meth:`cache_fields`: faults never
        change a successfully computed number, so faulted and clean runs
        share cache records.
    """

    scale: float = DEFAULT_SCALE
    seed: int = 2017
    datasets: tuple[str, ...] | None = None
    repeats: int = 1
    validate_traces: bool = False
    workers: int = 1
    cache_dir: str | None = None
    task_timeout_s: float | None = None
    max_retries: int = 2
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValidationError(f"scale must be in (0, 1], got {self.scale}")
        if self.repeats < 1:
            raise ValidationError("repeats must be >= 1")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValidationError(
                f"task_timeout_s must be > 0, got {self.task_timeout_s}"
            )
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.datasets is not None:
            known = dataset_names()
            unknown = [n for n in self.datasets if n not in known]
            if unknown:
                raise ValidationError(
                    f"unknown dataset(s) {', '.join(unknown)}; known: "
                    f"{', '.join(known)}"
                )

    def machine(self) -> HeterogeneousMachine:
        """The simulated testbed at this config's time scale."""
        return paper_testbed(time_scale=self.scale)

    def dataset(self, name: str) -> Dataset:
        """Load (cached) the scaled analog of Table II entry *name*."""
        return _cached_dataset(name, self.scale)

    def engine(self) -> "Engine":
        """The shared execution engine for this config's workers/cache.

        The fault-tolerance settings participate in the engine's memo
        key, so a chaos config never shares an engine (or its
        degradation counters) with a clean one.
        """
        from repro.engine import get_engine

        return get_engine(
            workers=self.workers,
            cache_dir=self.cache_dir,
            timeout_s=self.task_timeout_s,
            max_retries=self.max_retries,
            fault_plan=self.fault_plan,
        )

    def cache_fields(self) -> dict:
        """Key fields every cache record derived from this config shares."""
        return {
            "scale": self.scale,
            "seed": self.seed,
            "repeats": self.repeats,
            "datasets": list(self.datasets) if self.datasets is not None else None,
        }

    def select(self, default_names: list[str]) -> list[str]:
        """Dataset names for an experiment, honoring the restriction.

        The restriction is intersected with the experiment's paper-default
        selection (e.g. restricting the scale-free study to a road network
        silently yields nothing, matching the paper's exclusions).
        """
        if self.datasets is None:
            return list(default_names)
        requested = set(self.datasets)
        return [n for n in default_names if n in requested]


@lru_cache(maxsize=64)
def _cached_dataset(name: str, scale: float) -> Dataset:
    return load_dataset(name, scale=scale)
