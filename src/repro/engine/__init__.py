"""``repro.engine`` — parallel execution + persistent result caching.

The experiment harness's scaling layer (docs/ENGINE.md):

* :class:`~repro.engine.parallel.ParallelMap` — order-preserving map with
  serial and process-pool backends; every payload is self-seeding, so
  ``workers=N`` runs are bit-identical to serial runs.  Fault-tolerant:
  a stall watchdog, bounded seeded-backoff retries, and poison-task
  quarantine via batch bisection keep one bad payload from sinking a run.
* :class:`~repro.engine.cache.ResultCache` — content-addressed on-disk
  JSON records keyed by config/dataset/strategy fields plus a
  code-version salt (any salted source edit invalidates); corrupt
  entries are counted and quarantined, orphaned temp files swept.
* :class:`~repro.engine.engine.Engine` — fuses the two:
  :meth:`~repro.engine.engine.Engine.cached_map` computes only cache
  misses, in parallel, and accounts hits/misses/evaluations plus the
  degradation counters (retries/timeouts/quarantined/effective_workers).
* :class:`~repro.engine.faults.FaultPlan` — declarative, seeded chaos
  scenarios (crash/hang/corrupt-result, corrupt/torn cache stores,
  crashed/torn obs trace exports) that replay deterministically
  (docs/ENGINE.md §Fault tolerance).
"""

from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    code_version_salt,
    fingerprint,
)
from repro.engine.engine import (
    Engine,
    EngineStats,
    aggregate_stats,
    get_engine,
    shutdown_engines,
)
from repro.engine.faults import (
    FAULT_KINDS,
    FaultInjectionError,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    MapDeadlineError,
    PoisonTaskError,
    arm_synth_faults,
)
from repro.engine.locks import ShardLock
from repro.engine.parallel import ParallelMap, chunked
from repro.engine.sharded import ShardedResultCache

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "FAULT_KINDS",
    "Engine",
    "EngineStats",
    "FaultInjectionError",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "MapDeadlineError",
    "ParallelMap",
    "PoisonTaskError",
    "ResultCache",
    "ShardLock",
    "ShardedResultCache",
    "aggregate_stats",
    "arm_synth_faults",
    "chunked",
    "code_version_salt",
    "fingerprint",
    "get_engine",
    "shutdown_engines",
]
