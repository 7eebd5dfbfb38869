"""Ordered, fault-tolerant fan-out over picklable tasks.

:class:`ParallelMap` is the engine's single parallelism primitive: an
order-preserving ``map`` with two backends — in-process serial execution
(``workers <= 1``) and a :class:`concurrent.futures.ProcessPoolExecutor`
(``workers > 1``).  Everything above it (the exhaustive oracle's
per-threshold sweep, the per-dataset study loop, the sensitivity grids) is
embarrassingly parallel, so one primitive suffices.

Determinism contract
--------------------
Results come back in input order regardless of backend, completion order,
or how many attempts each task needed, and every task payload must be
*self-seeding*: any randomness it consumes travels inside the payload (a
generator seeded via :func:`repro.util.rng.stable_seed`), never through
shared state.  Under that contract a ``workers=N`` run — even one that
lost workers to crashes or timeouts along the way — is bit-identical to
the serial run: a failed attempt contributes nothing (its result and its
obs buffer are discarded), and a successful retry computes exactly what a
first-try success would have.  The determinism suite
(``tests/test_engine_determinism.py``) and the chaos suite
(``tests/test_engine_faults.py``) lock both halves down.

Fault tolerance
---------------
``map()`` survives the three ways a pooled batch dies in production:

* **Worker crash** (``BrokenProcessPool``): instead of blindly re-running
  the whole batch serially — which re-hits the poison payload with a
  worse failure — the unresolved tasks are *bisected* across fresh pools
  until the offender is isolated, quarantined (counted + retried alone),
  and either completes or exhausts its budget with a precise
  :class:`~repro.engine.faults.PoisonTaskError`.
* **Hang** (no completion for ``timeout_s``): the stalled pool is killed
  and the unfinished tasks retried; ``deadline_s`` bounds the whole call.
* **Soft failure** (a task raises, or ships an injected corrupt result):
  bounded retries with deterministic seeded exponential backoff; the
  original exception is re-raised once ``max_retries`` is spent.

Degradation is never silent: retries/timeouts/quarantines accumulate on
the instance (and the ``pool.retries`` / ``pool.timeouts`` /
``pool.quarantined`` / ``pool.fallbacks`` obs counters), and a map that
gives up on pooling for good records a :attr:`fallback_reason`, warns
once, and reports :attr:`effective_workers` ``= 1`` / :attr:`degraded`
``= True`` so bench reports stop claiming a parallelism that was not
actually used.

Task functions handed to the process backend must be module-level
(picklable by reference); payloads and results must pickle.  If the host
cannot start a process pool at all (restricted sandboxes), the map
degrades to the serial backend rather than failing the run.
"""

from __future__ import annotations

import time
import warnings
from contextlib import nullcontext
from typing import Callable, Sequence, TypeVar

from repro.engine.faults import (
    CorruptResult,
    FaultPlan,
    MapDeadlineError,
    PoisonTaskError,
    apply_task_faults,
)
from repro.obs import runtime as _obs
from repro.util.errors import ValidationError
from repro.util.rng import stable_seed

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Slot marker for "no accepted result yet" during a fault-tolerant map.
_UNSET = object()

#: Ceiling on a single backoff sleep so exhausted retries still fail fast.
_MAX_BACKOFF_S = 2.0

#: Minimum pool-wait slice so a nearly-expired deadline still polls once.
_MIN_WAIT_S = 0.01


def _broken_pool_errors() -> tuple[type[BaseException], ...]:
    """Exception types meaning "the pool itself died" (import kept lazy)."""
    try:
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # pragma: no cover - hosts without multiprocessing
        return (BrokenPipeError,)
    return (BrokenProcessPool, BrokenPipeError)


def _pool_task(packed: tuple) -> tuple:
    """Run one task inside a worker; module-level so the pool can pickle it.

    Applies any armed injected faults first (a crash must look exactly
    like an OS kill: the real task never starts).  When observability is
    on, the task records into a tracer/registry enabled just for its
    duration, and the spans, the metrics snapshot, and the wall-clock
    cost travel back with the result for the parent to absorb.
    """
    fn, payload, op, index, attempt, plan, observe = packed
    if plan is not None:
        marker = apply_task_faults(
            plan, op=op, index=index, attempt=attempt, in_worker=True
        )
        if marker is not None:
            return marker, None, None, 0.0
    start_s = time.perf_counter()  # reprolint: disable=DET001 -- wall-clock obs span; wall_ms is telemetry, never merged into results
    records = snapshot = None
    if observe:
        tracer, metrics = _obs.enable(tid="worker")
        try:
            result = fn(payload)
        finally:
            records = tracer.records()
            snapshot = metrics.snapshot()
            _obs.disable()
    else:
        result = fn(payload)
    wall_ms = (time.perf_counter() - start_s) * 1e3  # reprolint: disable=DET001 -- wall-clock obs span; wall_ms is telemetry, never merged into results
    return result, records, snapshot, wall_ms


def chunked(items: Sequence[_T], n_chunks: int) -> list[list[_T]]:
    """Split *items* into at most *n_chunks* contiguous, order-preserving
    chunks of near-equal length (no empty chunks).

    Contiguity matters: callers that re-concatenate chunk results recover
    the original order, so order-sensitive reductions (first-minimum
    tie-breaking, left-fold float sums) match the serial code exactly.
    """
    if n_chunks < 1:
        raise ValidationError(f"n_chunks must be >= 1, got {n_chunks}")
    items = list(items)
    n_chunks = min(n_chunks, len(items))
    if n_chunks == 0:
        return []
    size, rem = divmod(len(items), n_chunks)
    chunks: list[list[_T]] = []
    start = 0
    for i in range(n_chunks):
        stop = start + size + (1 if i < rem else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


class ParallelMap:
    """Order-preserving map with a serial or process-pool backend.

    Parameters
    ----------
    workers:
        ``1`` (default) runs tasks in-process; ``N > 1`` fans out over a
        lazily created pool of ``N`` worker processes.  The pool is reused
        across calls and shut down via :meth:`close`.
    timeout_s:
        Stall watchdog: if no pooled task completes for this long, the
        pool is presumed hung, killed, and the unfinished tasks retried.
        ``None`` (default) waits forever — set it whenever hangs are a
        real risk.  The serial backend cannot preempt a running task, so
        this only guards the process backend.
    deadline_s:
        Upper bound on one whole :meth:`map` call (all attempts
        included); exceeded deadlines raise
        :class:`~repro.engine.faults.MapDeadlineError`.
    max_retries:
        Re-attempts granted to each failing task beyond its first try
        (``0`` disables retrying).
    backoff_base_s / backoff_jitter / seed:
        Retry round *r* sleeps ``backoff_base_s * 2**(r-1)`` scaled by a
        deterministic jitter factor in ``[1, 1 + backoff_jitter]`` drawn
        from :func:`~repro.util.rng.stable_seed` — reproducible, but
        de-synchronized across seeds.
    fault_plan:
        Optional :class:`~repro.engine.faults.FaultPlan` injected into
        every task attempt (chaos testing; ``None`` costs nothing).
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        timeout_s: float | None = None,
        deadline_s: float | None = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_jitter: float = 0.25,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValidationError(f"timeout_s must be > 0, got {timeout_s}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValidationError(f"deadline_s must be > 0, got {deadline_s}")
        if max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base_s < 0:
            raise ValidationError(f"backoff_base_s must be >= 0, got {backoff_base_s}")
        if backoff_jitter < 0:
            raise ValidationError(f"backoff_jitter must be >= 0, got {backoff_jitter}")
        self.workers = workers
        self.timeout_s = timeout_s
        self.deadline_s = deadline_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_jitter = backoff_jitter
        self.seed = seed
        self.fault_plan = fault_plan
        self._executor = None
        self._pool_broken = False
        self._fallback_reason: str | None = None
        self._fallback_warned = False
        self._op = 0  # map() invocations served (fault-plan addressing)
        #: Cumulative degradation counters across every map() call.
        self.retries = 0
        self.timeouts = 0
        self.quarantined = 0
        self.pool_restarts = 0

    # -- degradation reporting ---------------------------------------------

    @property
    def effective_workers(self) -> int:
        """The backend width actually in use (1 after a permanent fallback)."""
        return 1 if (self.workers <= 1 or self._pool_broken) else self.workers

    @property
    def degraded(self) -> bool:
        """Whether a requested pool permanently fell back to serial."""
        return self.workers > 1 and self._pool_broken

    @property
    def fallback_reason(self) -> str | None:
        """Why the pool was abandoned for good, or ``None``."""
        return self._fallback_reason

    def _record_fallback(self, reason: str) -> None:
        """Mark the pool permanently unusable — loudly, exactly once."""
        self._pool_broken = True
        if self._fallback_reason is None:
            self._fallback_reason = reason
        _obs.counter("pool.fallbacks").inc()
        if not self._fallback_warned:
            self._fallback_warned = True
            warnings.warn(
                f"process pool unavailable ({reason}); continuing serially "
                f"with effective_workers=1 instead of workers={self.workers} "
                "— results are unaffected, wall-clock is",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- lifecycle ---------------------------------------------------------

    def _pool(self):
        """The shared executor, or ``None`` when unavailable."""
        if self.workers <= 1 or self._pool_broken:
            return None
        if self._executor is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ImportError, NotImplementedError) as exc:
                # Hosts without working multiprocessing primitives (some
                # sandboxes) fall back to the serial backend for good.
                self._record_fallback(f"{type(exc).__name__}: {exc}")
                return None
        return self._executor

    def _kill_pool(self) -> None:
        """Tear the executor down without waiting on wedged workers."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except (OSError, ValueError, AttributeError):
                continue  # already dead / no kill on this host: shutdown below
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the worker pool down (no-op for the serial backend)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # -- retry pacing ------------------------------------------------------

    def _sleep_backoff(self, op: int, round_no: int) -> None:
        """Exponential backoff with deterministic seeded jitter."""
        if self.backoff_base_s <= 0:
            return
        unit = (stable_seed(self.seed, "backoff", op, round_no) % 4096) / 4096.0
        delay_s = self.backoff_base_s * (2 ** (round_no - 1))
        delay_s *= 1.0 + self.backoff_jitter * unit
        time.sleep(min(_MAX_BACKOFF_S, delay_s))

    # -- the primitive -----------------------------------------------------

    def map(self, fn: Callable[[_T], _R], payloads: Sequence[_T]) -> list[_R]:
        """Apply *fn* to every payload; results in payload order.

        With the process backend, *fn* must be a module-level function and
        payloads/results must pickle.  Worker crashes, hangs, and task
        failures are retried within the configured budgets (see the class
        docstring); the serial backend applies the same retry policy to an
        active :class:`~repro.engine.faults.FaultPlan` and is otherwise a
        plain zero-overhead loop.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        op = self._op
        self._op += 1
        if self.workers <= 1 and self.fault_plan is None:
            return [fn(p) for p in payloads]
        run = _MapRun(self, fn, payloads, op)
        observed_pool = _obs.enabled() and self._pool() is not None
        span = (
            _obs.span(
                "pool/map", cat="pool", n_tasks=len(payloads), workers=self.workers
            )
            if observed_pool
            else nullcontext()
        )
        with span:
            results = run.execute()
            run.flush_obs()
        return results


class _MapRun:
    """State and control flow for one fault-tolerant ``map()`` call.

    Retry rounds alternate execute → classify → back off.  Each round runs
    the still-unresolved clean tasks as one pooled batch and every
    quarantined task alone (so a poison payload can only take itself
    down); failures are classified as *soft* (task raised / corrupt
    result: retry in place) or *pool-killing* (crash / hang: kill the
    pool, bisect the unresolved tasks to isolate the offender).  Accepted
    results are final — a task never re-runs after success, so retries
    cannot perturb the output.
    """

    def __init__(
        self, pmap: ParallelMap, fn: Callable, payloads: list, op: int
    ) -> None:
        self.pmap = pmap
        self.fn = fn
        self.payloads = payloads
        self.op = op
        self.results: list = [_UNSET] * len(payloads)
        self.attempts = [0] * len(payloads)
        self.errors: dict[int, BaseException] = {}
        self.poison: set[int] = set()
        #: (records, snapshot, wall_ms) per accepted *pooled* task, for
        #: payload-order absorption after the map completes.
        self.shipped_obs: dict[int, tuple] = {}
        self.used_pool = False
        #: Fresh-pool budget for this call; exhausting it degrades to
        #: serial for good rather than thrashing pool startup forever.
        self.restarts_left = 4 + 2 * pmap.max_retries
        self.start_monotonic_s = time.monotonic()  # reprolint: disable=DET001 -- watchdog/deadline bookkeeping; wall time gates retries, not results

    # -- round loop --------------------------------------------------------

    def execute(self) -> list:
        pending = list(range(len(self.payloads)))
        round_no = 0
        while pending:
            self.check_deadline(len(pending))
            if round_no:
                self.pmap._sleep_backoff(self.op, round_no)
            soft: list[int] = []
            batch = [i for i in pending if i not in self.poison]
            if batch:
                soft += self.run_indices(batch)
            for i in pending:
                if i in self.poison and self.results[i] is _UNSET and i not in soft:
                    soft += self.run_indices([i])
            for i in soft:
                self.attempts[i] += 1
            self.raise_if_exhausted(soft)
            if soft:
                self.pmap.retries += len(soft)
                _obs.counter("pool.retries").inc(len(soft))
            pending = sorted(set(soft))
            round_no += 1
        return self.results

    def raise_if_exhausted(self, soft: list[int]) -> None:
        """Surface the first task that spent its whole retry budget."""
        for i in sorted(set(soft)):
            if self.attempts[i] <= self.pmap.max_retries:
                continue
            error = self.errors.get(i)
            if i in self.poison:
                raise PoisonTaskError(
                    f"task {i} kept breaking the worker pool "
                    f"({self.attempts[i]} attempt(s)); payload quarantined "
                    "and retried in isolation without success",
                    index=i,
                    attempts=self.attempts[i],
                    last_error=error,
                )
            if error is not None:
                raise error
            raise PoisonTaskError(
                f"task {i} failed {self.attempts[i]} attempt(s) with no "
                "recorded exception (repeated hang/kill)",
                index=i,
                attempts=self.attempts[i],
            )

    # -- budgets -----------------------------------------------------------

    def check_deadline(self, n_pending: int) -> None:
        deadline_s = self.pmap.deadline_s
        if deadline_s is None:
            return
        if time.monotonic() - self.start_monotonic_s > deadline_s:  # reprolint: disable=DET001 -- watchdog/deadline bookkeeping; wall time gates retries, not results
            self.pmap._kill_pool()
            raise MapDeadlineError(
                f"map deadline of {deadline_s:g}s exceeded with "
                f"{n_pending} task(s) unfinished"
            )

    def wait_timeout_s(self) -> float | None:
        """The next pool-wait slice: stall watchdog vs remaining deadline."""
        candidates = []
        if self.pmap.timeout_s is not None:
            candidates.append(self.pmap.timeout_s)
        if self.pmap.deadline_s is not None:
            elapsed_s = time.monotonic() - self.start_monotonic_s  # reprolint: disable=DET001 -- watchdog/deadline bookkeeping; wall time gates retries, not results
            candidates.append(self.pmap.deadline_s - elapsed_s)
        if not candidates:
            return None
        return max(_MIN_WAIT_S, min(candidates))

    # -- classification ----------------------------------------------------

    def record_failure(self, index: int, error: BaseException) -> None:
        """Keep the most recent failure per task for precise re-raising."""
        self.errors[index] = error

    def accept(self, index: int, shipped: tuple, soft: list[int]) -> None:
        """Classify one pooled completion: final result or soft failure."""
        result, records, snapshot, wall_ms = shipped
        if isinstance(result, CorruptResult):
            soft.append(index)
            return
        self.results[index] = result
        self.shipped_obs[index] = (records, snapshot, wall_ms)

    # -- execution backends ------------------------------------------------

    def run_indices(self, indices: list[int]) -> list[int]:
        """Run tasks (pooled if possible); returns soft-failure indices."""
        executor = self.pmap._pool()
        if executor is None:
            return self.run_serial(indices)
        self.used_pool = True
        return self.run_pooled(executor, indices)

    def run_serial(self, indices: list[int]) -> list[int]:
        plan = self.pmap.fault_plan
        soft: list[int] = []
        for i in indices:
            result = _UNSET
            try:
                if plan is not None:
                    marker = apply_task_faults(
                        plan,
                        op=self.op,
                        index=i,
                        attempt=self.attempts[i],
                        in_worker=False,
                    )
                    if marker is not None:
                        result = marker
                if result is _UNSET:
                    result = self.fn(self.payloads[i])
            except Exception as exc:
                self.record_failure(i, exc)
                soft.append(i)
                continue
            if isinstance(result, CorruptResult):
                soft.append(i)
            else:
                self.results[i] = result
        return soft

    def run_pooled(self, executor, indices: list[int]) -> list[int]:
        """One pooled batch: submit, collect with the stall watchdog,
        and hand crash/hang casualties to the bisection path."""
        from concurrent.futures import FIRST_COMPLETED, wait

        pmap = self.pmap
        plan = pmap.fault_plan
        observe = _obs.enabled()
        broken_types = _broken_pool_errors()
        futures: dict = {}
        uncovered: list[int] = []
        broken = False
        for position, i in enumerate(indices):
            packed = (
                self.fn, self.payloads[i], self.op, i, self.attempts[i], plan,
                observe,
            )
            try:
                future = executor.submit(_pool_task, packed)
                futures[future] = i
            except (*broken_types, RuntimeError) as exc:
                # The pool died (or was shut down) under us mid-submit.
                self.record_failure(i, exc)
                broken = True
                uncovered = indices[position:]
                break
        soft: list[int] = []
        unresolved: set[int] = set(uncovered)
        stalled = False
        pending_futures = set(futures)
        while pending_futures and not broken:
            done, pending_futures = wait(
                pending_futures,
                timeout=self.wait_timeout_s(),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                self.check_deadline(len(pending_futures))
                stalled = True
                pmap.timeouts += 1
                _obs.counter("pool.timeouts").inc()
                unresolved.update(futures[f] for f in pending_futures)
                break
            for future in done:
                i = futures[future]
                try:
                    shipped = future.result()
                except broken_types as exc:
                    broken = True
                    self.record_failure(i, exc)
                    unresolved.add(i)
                    continue
                except Exception as exc:
                    # The task itself raised: a clean soft failure the
                    # caller records and retries within budget.
                    self.record_failure(i, exc)
                    soft.append(i)
                    continue
                self.accept(i, shipped, soft)
        if broken:
            unresolved.update(
                futures[f] for f in pending_futures if self.results[futures[f]] is _UNSET
            )
        if broken or stalled:
            self.restart_pool()
            soft += self.attribute_pool_kill(sorted(unresolved))
        return soft

    def restart_pool(self) -> None:
        """Kill the (broken/hung) pool; give up on pooling when thrashing."""
        self.pmap._kill_pool()
        self.pmap.pool_restarts += 1
        self.restarts_left -= 1
        if self.restarts_left <= 0:
            self.pmap._record_fallback("pool restart budget exhausted")

    def attribute_pool_kill(self, unresolved: list[int]) -> list[int]:
        """Bisect the casualties of a pool kill down to the poison task.

        Every task in *unresolved* is merely *suspected* — most died as
        bystanders of one crashing/hanging payload.  Halving the set and
        re-running each half on a fresh pool re-executes the innocent
        majority at full width and converges on the offender in
        ``O(log n)`` pool restarts; a suspect that fails *alone* is the
        proven poison task and stays quarantined (isolated single-task
        runs) for the rest of the call.
        """
        if not unresolved:
            return []
        if len(unresolved) == 1:
            index = unresolved[0]
            self.poison.add(index)
            self.pmap.quarantined += 1
            _obs.counter("pool.quarantined").inc()
            return [index]
        soft: list[int] = []
        mid = len(unresolved) // 2
        for half in (unresolved[:mid], unresolved[mid:]):
            self.check_deadline(len(half))
            soft += self.run_indices(half)
        return soft

    # -- observability -----------------------------------------------------

    def flush_obs(self) -> None:
        """Absorb accepted workers' obs buffers in payload order.

        Only *accepted* attempts ship buffers — a failed or retried
        attempt contributes nothing, so the merged aggregates still equal
        a serial run's exactly, even under an active fault plan.
        """
        if not self.used_pool or not _obs.enabled():
            return
        chunk_ms = _obs.histogram("pool.chunk_ms")
        accepted = 0
        for index in sorted(self.shipped_obs):
            records, snapshot, wall_ms = self.shipped_obs[index]
            if records is not None:
                _obs.absorb(records, snapshot)
            chunk_ms.observe(wall_ms)
            accepted += 1
        if accepted:
            _obs.counter("pool.tasks").inc(accepted)
        _obs.gauge("pool.workers").set(self.pmap.workers)
