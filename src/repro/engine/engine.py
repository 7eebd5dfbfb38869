"""The execution engine: parallel fan-out fused with the result cache.

:class:`Engine` owns one :class:`~repro.engine.parallel.ParallelMap` and
(optionally) one :class:`~repro.engine.cache.ResultCache`, and exposes the
one composite operation every study needs — :meth:`Engine.cached_map`:
look units up in the cache, compute only the misses (in parallel), store
what was computed, and return everything in input order.

Engines are shared per ``(workers, cache directory, fault-tolerance
settings)`` via :func:`get_engine`, so one CLI invocation running several
experiments reuses a single worker pool and accumulates one set of
hit/miss counters (:func:`aggregate_stats` feeds the run summary and the
benchmark report).  Degradation is part of the contract: an engine whose
pool crashed, timed out, or permanently fell back to serial reports it in
:class:`EngineStats` (``retries`` / ``timeouts`` / ``quarantined`` /
``cache_corrupt`` / ``effective_workers`` / ``degraded``) instead of
silently pretending the configured width was used.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from repro.engine.cache import ResultCache
from repro.engine.faults import SYNTH_FAULT_KINDS, FaultPlan, arm_synth_faults
from repro.engine.parallel import ParallelMap
from repro.util.errors import ValidationError

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass
class EngineStats:
    """Counters one engine accumulates across :meth:`Engine.cached_map` calls.

    ``computed_evaluations`` counts *problem evaluations* (threshold
    probes) performed for cache misses, as reported by the caller's
    ``count`` hook — the number the determinism suite pins to zero for a
    warm-cache run.  ``batched_evaluations`` is the subset of those probes
    that went through a vectorized ``evaluate_many`` sweep instead of
    scalar ``evaluate_ms`` calls (the caller's ``count_batched`` hook);
    the benchmark report uses the ratio to show batch-pricing coverage.

    The fault-tolerance block mirrors the engine's
    :class:`~repro.engine.parallel.ParallelMap` and
    :class:`~repro.engine.cache.ResultCache` counters (synced by
    :meth:`Engine.sync_stats`): ``retries`` / ``timeouts`` /
    ``quarantined`` count recovered pool incidents, ``cache_corrupt``
    counts quarantined unreadable cache entries, and
    ``effective_workers`` / ``degraded`` report the backend width
    *actually used* — the honest number bench reports must record when a
    pool permanently fell back to serial.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    computed_evaluations: int = 0
    batched_evaluations: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    cache_corrupt: int = 0
    effective_workers: int = 1
    degraded: bool = False

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "computed_evaluations": self.computed_evaluations,
            "batched_evaluations": self.batched_evaluations,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "cache_corrupt": self.cache_corrupt,
            "effective_workers": self.effective_workers,
            "degraded": self.degraded,
        }

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(kw_only=True)
class Engine:
    """Parallel execution + caching for experiment units (keyword-only).

    The fault-tolerance knobs (``timeout_s`` / ``deadline_s`` /
    ``max_retries`` / ``fault_plan``) configure the owned
    :class:`~repro.engine.parallel.ParallelMap`; an active fault plan is
    also handed to the cache so ``corrupt_cache`` / ``torn_cache`` specs
    fire on stores.  None of them changes a computed number — they bound
    *when* the engine gives up, not *what* it returns.
    """

    workers: int = 1
    cache: ResultCache | None = None
    stats: EngineStats = field(default_factory=EngineStats)
    timeout_s: float | None = None
    deadline_s: float | None = None
    max_retries: int = 2
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        self.parallel_map = ParallelMap(
            self.workers,
            timeout_s=self.timeout_s,
            deadline_s=self.deadline_s,
            max_retries=self.max_retries,
            fault_plan=self.fault_plan,
        )
        if (
            self.fault_plan is not None
            and self.cache is not None
            and self.cache.fault_plan is None
        ):
            self.cache.fault_plan = self.fault_plan
        if self.fault_plan is not None and any(
            spec.kind in SYNTH_FAULT_KINDS for spec in self.fault_plan.specs
        ):
            # Dataset synthesis happens parent-side (before fan-out), so
            # synth faults arm process-globally rather than per task;
            # shutdown_engines() disarms.
            arm_synth_faults(self.fault_plan)
        self.stats.effective_workers = self.parallel_map.effective_workers

    def close(self) -> None:
        self.parallel_map.close()

    def sync_stats(self) -> EngineStats:
        """Fold the map's and cache's fault counters into :attr:`stats`."""
        pool = self.parallel_map
        self.stats.retries = pool.retries
        self.stats.timeouts = pool.timeouts
        self.stats.quarantined = pool.quarantined
        self.stats.effective_workers = pool.effective_workers
        self.stats.degraded = pool.degraded
        self.stats.cache_corrupt = (
            self.cache.corrupt_count if self.cache is not None else 0
        )
        return self.stats

    def cached_map(
        self,
        fn: Callable[[_T], _R],
        payloads: Sequence[_T],
        key_fields: Sequence[dict] | None = None,
        encode: Callable[[_R], dict] | None = None,
        decode: Callable[[dict], _R] | None = None,
        count: Callable[[_R], int] | None = None,
        count_batched: Callable[[_T, _R], int] | None = None,
        parallel: bool = True,
        prepare: Callable[[_T], object] | None = None,
    ) -> list[_R]:
        """``[fn(p) for p in payloads]`` with caching and fan-out.

        Parameters
        ----------
        fn:
            Unit of work.  With ``parallel=True`` it must be module-level
            and payloads/results picklable (it crosses a process
            boundary); with ``parallel=False`` it runs in-process — the
            mode for callers whose *fn* itself fans out (the exhaustive
            oracle's per-threshold sweep).
        key_fields:
            Per-payload cache-key field mappings, aligned with
            *payloads*; ``None`` (or a ``None`` element) disables caching
            for the batch (or that unit).
        encode / decode:
            Result <-> JSON-record converters (identity when omitted —
            the result must then itself be a JSON-safe ``dict``).
        count:
            Maps a *freshly computed* result to its problem-evaluation
            count for :attr:`EngineStats.computed_evaluations`.
        count_batched:
            Maps a freshly computed ``(payload, result)`` pair to how many
            of its evaluations were priced through a vectorized
            ``evaluate_many`` sweep, for
            :attr:`EngineStats.batched_evaluations`.  The payload is
            passed so the hook can inspect the problem's capability.
        prepare:
            Builds the payload *fn* receives from a *payloads* entry, in
            this process, and only for units whose key missed — so cache
            hits never pay for it (a study's problem construction).
            ``None`` hands the entries to *fn* as they are.  Prepared
            payloads are what *count_batched* sees and, with
            ``parallel=True``, what crosses the process boundary.
        """
        payloads = list(payloads)
        keys: list[dict | None] = (
            list(key_fields) if key_fields is not None else [None] * len(payloads)
        )
        if len(keys) != len(payloads):
            raise ValidationError(
                f"key_fields length {len(keys)} != payloads length {len(payloads)}"
            )
        results: list[_R | None] = [None] * len(payloads)
        missing: list[int] = []
        for i, fields in enumerate(keys):
            record = (
                self.cache.get(fields)
                if (self.cache is not None and fields is not None)
                else None
            )
            if record is not None:
                results[i] = decode(record) if decode is not None else record
                self.stats.hits += 1
            else:
                missing.append(i)
                if self.cache is not None and fields is not None:
                    self.stats.misses += 1
        if missing:
            work = [
                payloads[i] if prepare is None else prepare(payloads[i])
                for i in missing
            ]
            if parallel:
                computed = self.parallel_map.map(fn, work)
            else:
                computed = [fn(payload) for payload in work]
            for i, payload, result in zip(missing, work, computed):
                results[i] = result
                if count is not None:
                    self.stats.computed_evaluations += int(count(result))
                if count_batched is not None:
                    self.stats.batched_evaluations += int(
                        count_batched(payload, result)
                    )
                if self.cache is not None and keys[i] is not None:
                    record = encode(result) if encode is not None else result
                    self.cache.put(keys[i], record)
                    self.stats.stores += 1
        self.sync_stats()
        return results  # type: ignore[return-value]


#: Shared engines, keyed by (workers, resolved cache directory or None,
#: timeout_s, deadline_s, max_retries, fault_plan).
_ENGINES: dict[tuple, Engine] = {}


def get_engine(
    workers: int = 1,
    cache_dir: str | None = None,
    *,
    timeout_s: float | None = None,
    deadline_s: float | None = None,
    max_retries: int = 2,
    fault_plan: FaultPlan | None = None,
) -> Engine:
    """The shared engine for these settings (created on demand).

    The memo key includes the fault-tolerance settings, so a chaos run
    with an active :class:`~repro.engine.faults.FaultPlan` never leaks
    its plan (or its degradation counters) into a clean run sharing the
    same workers/cache pair.
    """
    resolved = str(Path(cache_dir).resolve()) if cache_dir is not None else None
    key = (workers, resolved, timeout_s, deadline_s, max_retries, fault_plan)
    engine = _ENGINES.get(key)
    if engine is None:
        cache = ResultCache(resolved) if resolved is not None else None
        engine = Engine(
            workers=workers,
            cache=cache,
            timeout_s=timeout_s,
            deadline_s=deadline_s,
            max_retries=max_retries,
            fault_plan=fault_plan,
        )
        _ENGINES[key] = engine
    return engine


def aggregate_stats() -> dict:
    """Counters summed over every engine this process created.

    ``workers`` / ``effective_workers`` take the max across engines
    (configured vs actually-used width) and ``degraded`` is true if *any*
    engine permanently fell back to serial — the flag
    ``tools/bench_report.py`` gates on.
    """
    total = EngineStats()
    max_workers = 0
    max_effective = 0
    degraded = False
    for engine in _ENGINES.values():
        stats = engine.sync_stats()
        total.hits += stats.hits
        total.misses += stats.misses
        total.stores += stats.stores
        total.computed_evaluations += stats.computed_evaluations
        total.batched_evaluations += stats.batched_evaluations
        total.retries += stats.retries
        total.timeouts += stats.timeouts
        total.quarantined += stats.quarantined
        total.cache_corrupt += stats.cache_corrupt
        max_workers = max(max_workers, engine.workers)
        max_effective = max(max_effective, stats.effective_workers)
        degraded = degraded or stats.degraded
    return {
        **total.snapshot(),
        "hit_rate": total.hit_rate,
        "workers": max_workers,
        "effective_workers": max_effective,
        "degraded": degraded,
    }


def shutdown_engines() -> None:
    """Close every shared engine's worker pool and forget them (tests).

    Also disarms any process-globally armed synthesis faults, so a chaos
    engine cleaned up here cannot leak its plan into later runs.
    """
    for engine in _ENGINES.values():
        engine.close()
    _ENGINES.clear()
    arm_synth_faults(None)


# Shared pools must not outlive the interpreter's orderly shutdown phase:
# an executor reaped by garbage collection during finalization raises a
# noisy (harmless) "Exception ignored" from its weakref callback.
atexit.register(shutdown_engines)
