"""Deterministic fault injection for the execution engine.

A :class:`FaultPlan` is a declarative, seeded chaos scenario: a tuple of
:class:`FaultSpec` entries naming exactly which task (or cache store)
misbehaves, how, and how many times.  The engine threads the plan through
to pool workers (specs address tasks by *payload index*, not by worker or
completion order), so an injected crash, hang, or corruption replays
bit-identically run after run — the property the chaos suite
(``tests/test_engine_faults.py``) relies on to assert that a faulted
pooled study still renders byte-identically to a fault-free serial one.

Fault kinds
-----------
``crash``
    The worker process dies mid-task (``os._exit``); on the serial
    backend it raises :class:`InjectedCrashError` instead (a parent
    process must never ``_exit`` itself).
``hang``
    The task stalls for ``hang_s`` seconds before completing — exercises
    the stall-watchdog / pool-restart path.
``corrupt_result``
    The task ships a :class:`CorruptResult` marker instead of its real
    result — exercises result validation + retry.
``corrupt_cache`` / ``torn_cache``
    The *n*-th :meth:`~repro.engine.cache.ResultCache.put` leaves behind
    garbage / a truncated record — exercises corrupt-entry quarantine.
``crash_export`` / ``torn_export``
    The *n*-th :func:`~repro.obs.export.write_trace` dies before
    publishing / mid-write — exercises the exporter's all-or-nothing
    contract (the destination path must hold either the previous
    complete trace or nothing, never a truncated file).
``crash_synth``
    The *n*-th dataset *materialization* dies before the dataset exists
    (:func:`repro.workloads.suite.load_dataset` calls
    :func:`synth_fault_point` before building) — the last previously
    uncovered fault surface.  Plans carrying synth specs are *armed*
    process-globally (:func:`arm_synth_faults`; the engine arms its own
    plan on construction, the tuning server arms per serve session), and
    each materialization consumes one index — so a crashed synthesis is
    never cached and the caller's retry, which is the ``index + 1``-th
    call, succeeds naturally.  ``times=k`` widens the crash window to
    ``k`` consecutive materializations starting at ``index``.

Addressing and arming
---------------------
Task faults match on ``(op, index, attempt)``: *op* counts
:meth:`~repro.engine.parallel.ParallelMap.map` invocations on one map
(``op=None`` matches all of them), *index* is the payload's position in
that call, and a spec stays armed while ``attempt < times`` — so a
default ``times=1`` fault fires on the first attempt only and the retry
succeeds.  Cache faults match the store counter of one
:class:`~repro.engine.cache.ResultCache` instance.  Faults never change
what a *successful* attempt computes, which is why the determinism
contract survives any plan with ``times <= max_retries``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

from repro.util.errors import ReproError, ValidationError

#: Fault kinds applied to pool/serial task execution.
TASK_FAULT_KINDS = frozenset({"crash", "hang", "corrupt_result"})

#: Fault kinds applied to cache stores.
CACHE_FAULT_KINDS = frozenset({"corrupt_cache", "torn_cache"})

#: Fault kinds applied to obs trace-export writes.
EXPORT_FAULT_KINDS = frozenset({"crash_export", "torn_export"})

#: Fault kinds applied to dataset synthesis (materialization).
SYNTH_FAULT_KINDS = frozenset({"crash_synth"})

#: Every recognized :attr:`FaultSpec.kind`.
FAULT_KINDS = (
    TASK_FAULT_KINDS | CACHE_FAULT_KINDS | EXPORT_FAULT_KINDS | SYNTH_FAULT_KINDS
)

#: Exit status an injected ``crash`` uses to kill its worker process.
CRASH_EXIT_CODE = 70


class FaultInjectionError(ReproError, RuntimeError):
    """Base class for errors raised by the fault-tolerance layer."""


class InjectedCrashError(FaultInjectionError):
    """The serial backend's stand-in for an injected worker crash."""


class PoisonTaskError(FaultInjectionError):
    """One task exhausted its retry budget (kept crashing/hanging/failing).

    Carries enough context to find the payload: the task's position in
    the map call (:attr:`index`), how many attempts were made
    (:attr:`attempts`), and the last underlying exception, if any
    (:attr:`last_error`).
    """

    def __init__(
        self,
        message: str,
        *,
        index: int,
        attempts: int,
        last_error: BaseException | None = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.attempts = attempts
        self.last_error = last_error


class MapDeadlineError(FaultInjectionError, TimeoutError):
    """A whole ``ParallelMap.map`` call exceeded its ``deadline_s``."""


class CorruptResult:
    """Marker a ``corrupt_result`` fault ships instead of the real result.

    A dedicated class (not ``None``/a string) so legitimate results can
    never be mistaken for injected garbage; detection is by
    ``isinstance`` because the marker crosses a pickling boundary.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<injected corrupt result>"


#: Shared marker instance (workers may ship their own unpickled copies).
CORRUPT_RESULT = CorruptResult()


@dataclass(frozen=True, kw_only=True)
class FaultSpec:
    """One injected fault (keyword-only, frozen, hashable).

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    index:
        Task faults: payload index within a map call.  Cache faults: the
        0-based store count at which the written record is damaged.
        Export faults: the 0-based :func:`~repro.obs.export.write_trace`
        call count (per process) at which the write is interrupted.
    op:
        Task faults only: restrict to the *op*-th ``map()`` invocation on
        the owning :class:`~repro.engine.parallel.ParallelMap`
        (``None`` = every invocation).
    times:
        Task faults only: fire while ``attempt < times``.  Keep
        ``times <= max_retries`` for a scenario the engine must survive;
        a larger value exhausts the budget and surfaces an error.
    hang_s:
        ``hang`` faults: stall duration in seconds.
    """

    kind: str
    index: int = 0
    op: int | None = None
    times: int = 1
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.index < 0:
            raise ValidationError(f"index must be >= 0, got {self.index}")
        if self.times < 1:
            raise ValidationError(f"times must be >= 1, got {self.times}")
        if self.hang_s < 0:
            raise ValidationError(f"hang_s must be >= 0, got {self.hang_s}")


@dataclass(frozen=True, kw_only=True)
class FaultPlan:
    """A replayable chaos scenario: specs plus a seed (frozen, hashable).

    The *seed* does not drive any randomness inside the plan itself (spec
    matching is exact); it namespaces the deterministic garbage
    :meth:`corrupt_bytes` generates, so two plans can corrupt the same
    entry differently but each replays its own bytes exactly.
    """

    specs: tuple[FaultSpec, ...] = field(default=())
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            raise ValidationError(
                f"specs must be a tuple of FaultSpec, got {type(self.specs).__name__}"
            )
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ValidationError(f"specs entries must be FaultSpec, got {spec!r}")

    def task_specs(self, *, op: int, index: int, attempt: int) -> list[FaultSpec]:
        """Armed task faults for this ``(op, index, attempt)`` coordinate."""
        return [
            spec
            for spec in self.specs
            if spec.kind in TASK_FAULT_KINDS
            and spec.index == index
            and (spec.op is None or spec.op == op)
            and attempt < spec.times
        ]

    def cache_specs(self, store_index: int) -> list[FaultSpec]:
        """Cache faults armed for the *store_index*-th ``put``."""
        return [
            spec
            for spec in self.specs
            if spec.kind in CACHE_FAULT_KINDS and spec.index == store_index
        ]

    def export_specs(self, export_index: int) -> list[FaultSpec]:
        """Export faults armed for the *export_index*-th trace write."""
        return [
            spec
            for spec in self.specs
            if spec.kind in EXPORT_FAULT_KINDS and spec.index == export_index
        ]

    def synth_specs(self, synth_index: int) -> list[FaultSpec]:
        """Synthesis faults armed for the *synth_index*-th materialization.

        ``times`` widens the window: a spec fires on materializations
        ``index`` through ``index + times - 1``, so a caller retrying a
        crashed synthesis (the next index) recovers once the window
        closes.
        """
        return [
            spec
            for spec in self.specs
            if spec.kind in SYNTH_FAULT_KINDS
            and spec.index <= synth_index < spec.index + spec.times
        ]

    def corrupt_bytes(self, label: str) -> bytes:
        """Deterministic invalid-JSON garbage for a ``corrupt_cache`` fault."""
        digest = hashlib.sha256(f"{self.seed}\x1f{label}".encode()).hexdigest()
        # Opens an object and never closes it: guaranteed to fail json.loads.
        return b'{"__injected_corruption__": "' + digest.encode()


def apply_task_faults(
    plan: FaultPlan, *, op: int, index: int, attempt: int, in_worker: bool
) -> CorruptResult | None:
    """Fire the armed task faults for one attempt.

    Returns the corrupt-result marker when a ``corrupt_result`` fault
    fires (the caller ships it instead of running the task), ``None``
    otherwise.  ``crash`` kills the process when *in_worker* (the pool
    observes a died worker, exactly like an OOM kill) and raises
    :class:`InjectedCrashError` on the serial backend.
    """
    for spec in plan.task_specs(op=op, index=index, attempt=attempt):
        if spec.kind == "hang":
            time.sleep(spec.hang_s)
        elif spec.kind == "crash":
            if in_worker:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedCrashError(
                f"injected crash (op={op}, index={index}, attempt={attempt})"
            )
        elif spec.kind == "corrupt_result":
            return CORRUPT_RESULT
    return None


# -- dataset-synthesis faults ----------------------------------------------
#
# Dataset materialization has no per-call plan parameter (it happens deep
# under lru-cached loaders), so synth faults arm process-globally: the
# last armed plan wins, `arm_synth_faults(None)` disarms, and
# `shutdown_engines()` disarms as part of test/process cleanup.  The
# armed state never changes what a *successful* materialization builds.

_SYNTH_STATE: dict[str, object] = {"plan": None, "count": 0}


def arm_synth_faults(plan: FaultPlan | None) -> None:
    """Arm (or, with ``None``, disarm) synthesis faults for this process.

    Resets the materialization counter, so spec indices always count
    from the moment of arming — the property that makes a chaos scenario
    replay identically run after run.
    """
    _SYNTH_STATE["plan"] = plan  # reprolint: disable=PAR001 -- process-global chaos arming; workers materialize nothing (parent-side seeding)
    _SYNTH_STATE["count"] = 0


def armed_synth_plan() -> FaultPlan | None:
    """The currently armed plan (``None`` when disarmed)."""
    plan = _SYNTH_STATE["plan"]
    return plan if isinstance(plan, FaultPlan) else None


def synth_fault_point(label: str, *, in_worker: bool = False) -> None:
    """One dataset materialization is about to run; fire armed faults.

    Called by :func:`repro.workloads.suite.load_dataset` *before* any
    building happens, so a fired crash leaves nothing half-made (and
    nothing cached — the caller's retry re-enters cleanly as the next
    materialization index).
    """
    plan = armed_synth_plan()
    if plan is None:
        return
    index = int(_SYNTH_STATE["count"])  # type: ignore[call-overload]
    _SYNTH_STATE["count"] = index + 1  # reprolint: disable=PAR001 -- process-global chaos counter; parent-side materialization only
    for spec in plan.synth_specs(index):
        if spec.kind == "crash_synth":
            if in_worker:  # pragma: no cover - workers never materialize
                os._exit(CRASH_EXIT_CODE)
            raise InjectedCrashError(
                f"injected dataset-synthesis crash (materialization #{index}: {label})"
            )
