"""The asyncio tuning server: coalescing, micro-batching, sharded cache.

:class:`TuningServer` turns the pure :func:`repro.serve.api.tune` function
into a service without changing a single answered byte:

* **Single-flight coalescing** — concurrent submissions of the same
  request (by :meth:`~repro.serve.api.TuneRequest.fingerprint`) share one
  in-flight computation; followers await the leader's future.
* **Micro-batching** — the batcher coroutine drains the bounded queue and
  hands up to ``max_batch`` requests to the compute thread at once; the
  batch is grouped by :meth:`~repro.serve.api.TuneRequest.problem_key`,
  so compatible requests price against one materialized problem (dataset
  synthesis and the pricing tables behind the vectorized
  ``evaluate_grid`` sweep are paid once per group, not per request).
* **Sharded cache** — answers persist in a
  :class:`~repro.engine.sharded.ShardedResultCache`; flock-held
  ``get_or_compute`` means N server processes sharing one cache
  directory compute each cold key once, and never interleave writes.
* **Answer map** — every answer this server computes or reads from disk
  is kept decoded, by request fingerprint, in one LRU map of at most
  ``remember_limit`` entries.  With a cache directory the compute
  thread checks it first, so a repeat reads no disk while its key stays
  in the map.
* **Overload + faults** — a full queue sheds the request with a typed
  :class:`~repro.serve.api.ServerOverloadedError` instead of queueing
  unboundedly; compute faults (an armed
  :class:`~repro.engine.faults.FaultPlan`) are retried within
  ``max_retries`` and, when exhausted, answered *stale* from the answer
  map if it holds the key.  Closing the server fails every request it
  has not answered with :class:`~repro.serve.api.ServeError`; the
  compute thread stops between requests, so closing waits for at most
  the one in progress.

Responses are wrapped in :class:`ServedResponse`, which adds provenance
(``source``) and measured latency **outside** the deterministic
:class:`~repro.serve.api.TuneResponse` payload — byte-identity of
``canonical_json()`` across serving modes is the contract
``tests/test_serve.py`` enforces.

Counters/gauges/histograms flow through :mod:`repro.obs` under the
``serve.*`` names (see :mod:`repro.obs.metrics`); they are no-ops unless
a collector is installed.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.problem import PartitionProblem
from repro.engine.faults import (
    SYNTH_FAULT_KINDS,
    CorruptResult,
    FaultPlan,
    apply_task_faults,
    arm_synth_faults,
)
from repro.engine.sharded import DEFAULT_SHARDS, ShardedResultCache
from repro.obs import runtime as _obs
from repro.serve.api import (
    ServeError,
    ServerOverloadedError,
    TuneFailedError,
    TuneRequest,
    TuneResponse,
    tune,
)
from repro.util.errors import ValidationError

#: How a request was answered, in the order the server tries them.
SOURCES = ("cache", "computed", "coalesced", "stale")

_CLOSED = "server closed before answering the request"


@dataclass(frozen=True, kw_only=True)
class ServeConfig:
    """Server knobs (all bounded; none affects answered bytes).

    Attributes
    ----------
    cache_dir:
        Root of the sharded response cache; ``None`` disables persistent
        caching (every non-coalesced request computes).
    n_shards:
        Shard fan-out of the response cache.
    max_batch:
        Most requests the batcher hands to the compute thread at once.
    queue_limit:
        Bounded queue depth; submissions beyond it are shed with
        :class:`~repro.serve.api.ServerOverloadedError`.
    max_retries:
        Extra compute attempts after a faulted one (so ``max_retries + 1``
        attempts total, mirroring the engine's retry budget).
    stale_if_error:
        Serve the key's answer from the answer map when retries are
        exhausted, instead of failing the request.
    remember_limit:
        Most answers the server keeps decoded in memory (its LRU answer
        map, filled by every computed answer and every disk hit).  With
        ``cache_dir`` set, a repeat of a key in the map reads no disk;
        the stale fallback reads the same map.  ``0`` keeps none.
    fault_plan:
        Deterministic chaos plan threaded through the request path: task
        faults fire per compute attempt, cache faults on stores, and
        ``crash_synth`` specs are armed process-globally for the server's
        lifetime.
    """

    cache_dir: str | None = None
    n_shards: int = DEFAULT_SHARDS
    max_batch: int = 32
    queue_limit: int = 256
    max_retries: int = 2
    stale_if_error: bool = True
    remember_limit: int = 1024
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise ValidationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.remember_limit < 0:
            raise ValidationError(
                f"remember_limit must be >= 0, got {self.remember_limit}"
            )


@dataclass(frozen=True, kw_only=True)
class ServedResponse:
    """One answered request: the deterministic payload plus provenance.

    ``latency_ms`` is measured wall time (the one nondeterministic field,
    which is why it lives here and not on the response payload).
    """

    response: TuneResponse
    source: str
    latency_ms: float


@dataclass
class _Pending:
    """One queued request awaiting the compute thread."""

    request: TuneRequest
    key: str
    future: asyncio.Future
    seq: int


def _now_s() -> float:
    """Wall clock for latency measurement only (never feeds an answer)."""
    return time.perf_counter()  # reprolint: disable=DET001 -- latency measurement only; never feeds a computed result


@dataclass
class _Counters:
    """Server-side tallies (mirrored into ``serve.*`` obs counters)."""

    requests: int = 0
    coalesced: int = 0
    batched: int = 0
    computed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shed: int = 0
    retries: int = 0
    stale: int = 0
    errors: int = 0

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "batched": self.batched,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "shed": self.shed,
            "retries": self.retries,
            "stale": self.stale,
            "errors": self.errors,
        }

    @property
    def hit_rate(self) -> float:
        """Persistent-cache hit rate over requests that consulted it."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class TuningServer:
    """Async front-end over the tuning stack (see module docstring).

    Use as an async context manager::

        async with TuningServer(ServeConfig(cache_dir=...)) as server:
            served = await server.submit(TuneRequest(problem="cc", dataset="cant"))

    One compute thread drains the queue in micro-batches, keeping the
    event loop free to accept (and coalesce) submissions while a batch
    prices — bursts accumulate into real batches instead of serializing
    request-by-request.
    """

    config: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        self.counters = _Counters()
        self.cache: ShardedResultCache | None = None
        if self.config.cache_dir is not None:
            self.cache = ShardedResultCache(
                self.config.cache_dir,
                n_shards=self.config.n_shards,
                fault_plan=self.config.fault_plan,
            )
        self._inflight: dict[str, asyncio.Future] = {}
        self._queue: asyncio.Queue[_Pending] | None = None
        self._batcher: asyncio.Task | None = None
        self._pool: ThreadPoolExecutor | None = None
        # Problem instances shared across batches of one problem_key, and
        # the answer map (decoded responses by request fingerprint, LRU,
        # at most remember_limit): the first stop of a request when a
        # cache directory is set, and the stale fallback.  Both are
        # touched only by the compute thread.
        self._problems: OrderedDict[tuple, PartitionProblem] = OrderedDict()
        self._answers: OrderedDict[str, TuneResponse] = OrderedDict()
        self._seq = 0
        self._armed_synth = False
        # Set by close(); the compute thread checks it before each request.
        self._closing = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    async def __aenter__(self) -> "TuningServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def start(self) -> None:
        if self._batcher is not None:
            raise ServeError("server already started")
        plan = self.config.fault_plan
        if plan is not None and any(
            spec.kind in SYNTH_FAULT_KINDS for spec in plan.specs
        ):
            arm_synth_faults(plan)
            self._armed_synth = True
        self._closing.clear()
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._batcher = asyncio.create_task(self._run_batches())

    async def close(self) -> None:
        """Stop serving; every request not yet answered fails with ServeError.

        That covers requests still queued, the batch the compute thread
        holds, and their coalesced followers.  The compute thread stops
        before its next request, so this waits for at most the request in
        progress (whose answer is discarded too).
        """
        self._closing.set()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for future in self._inflight.values():
            future.set_exception(ServeError(_CLOSED))
        self._inflight.clear()
        if self._armed_synth:
            arm_synth_faults(None)
            self._armed_synth = False
        self._queue = None

    # -- the request path --------------------------------------------------

    async def submit(self, request: TuneRequest) -> ServedResponse:
        """Answer one request (coalescing onto an in-flight duplicate).

        Raises :class:`~repro.serve.api.ServerOverloadedError` when the
        queue is full, or :class:`~repro.serve.api.TuneFailedError` when
        compute retries are exhausted with no cached or stale fallback.
        """
        if self._queue is None:
            raise ServeError("server is not started; use 'async with'")
        started_s = _now_s()
        self.counters.requests += 1
        _obs.counter("serve.requests").inc()
        key = request.fingerprint()
        leader = self._inflight.get(key)
        if leader is not None:
            self.counters.coalesced += 1
            _obs.counter("serve.coalesced").inc()
            response, _ = await asyncio.shield(leader)
            latency_ms = (_now_s() - started_s) * 1e3
            _obs.histogram("serve.latency_ms").observe(latency_ms)
            return ServedResponse(
                response=response, source="coalesced", latency_ms=latency_ms
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        pending = _Pending(request=request, key=key, future=future, seq=self._seq)
        self._seq += 1
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            del self._inflight[key]
            self.counters.shed += 1
            _obs.counter("serve.shed").inc()
            raise ServerOverloadedError(
                f"queue full ({self.config.queue_limit}); request shed"
            ) from None
        _obs.gauge("serve.queue_depth").set(self._queue.qsize())
        response, source = await asyncio.shield(future)
        latency_ms = (_now_s() - started_s) * 1e3
        _obs.histogram("serve.latency_ms").observe(latency_ms)
        return ServedResponse(response=response, source=source, latency_ms=latency_ms)

    async def _run_batches(self) -> None:
        """Drain the queue in micro-batches onto the compute thread."""
        assert self._queue is not None and self._pool is not None
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            _obs.gauge("serve.queue_depth").set(self._queue.qsize())
            # Cancelled here, the batch's futures stay in _inflight for
            # close() to fail.
            outcomes = await loop.run_in_executor(
                self._pool, self._process_batch, batch
            )
            for pending, outcome in zip(batch, outcomes):
                self._inflight.pop(pending.key, None)
                if isinstance(outcome, BaseException):
                    pending.future.set_exception(outcome)
                else:
                    pending.future.set_result(outcome)

    # -- compute thread ----------------------------------------------------

    def _process_batch(self, batch: list[_Pending]) -> list:
        """Serve one micro-batch, grouped by problem compatibility.

        Returns one outcome per pending entry, aligned: either a
        ``(TuneResponse, source)`` pair or the exception to deliver.
        """
        groups: OrderedDict[tuple, list[int]] = OrderedDict()
        for i, pending in enumerate(batch):
            groups.setdefault(pending.request.problem_key(), []).append(i)
        outcomes: list = [None] * len(batch)
        for indices in groups.values():
            if len(indices) > 1:
                self.counters.batched += len(indices)
                _obs.counter("serve.batched").inc(len(indices))
            for i in indices:
                if self._closing.is_set():
                    outcomes[i] = ServeError(_CLOSED)
                    continue
                try:
                    outcomes[i] = self._serve_one(batch[i])
                except Exception as exc:
                    outcomes[i] = exc
        return outcomes

    def _problem_for(self, request: TuneRequest) -> PartitionProblem:
        """The shared problem instance for the request's compatibility key."""
        from repro.serve.api import build_problem

        key = request.problem_key()
        problem = self._problems.get(key)
        if problem is None:
            problem = build_problem(
                request.problem,
                request.dataset,
                request.scale,
                n_devices=request.n_devices,
                interconnect=request.interconnect,
            )
            self._problems[key] = problem
            while len(self._problems) > 64:
                self._problems.popitem(last=False)
        else:
            self._problems.move_to_end(key)
        return problem

    def _serve_one(self, pending: _Pending) -> tuple[TuneResponse, str]:
        """Answer one request on the compute thread: memory, disk, compute, stale."""
        request, key, seq = pending.request, pending.key, pending.seq
        fields = None  # key_fields(), built only when the disk is read
        if self.cache is not None:
            response = self._answers.get(key)
            if response is not None:
                self._answers.move_to_end(key)
            else:
                fields = request.key_fields()
                response = self._read(key, fields)
            if response is not None:
                self.counters.cache_hits += 1
                _obs.counter("serve.cache.hit").inc()
                return response, "cache"
            self.counters.cache_misses += 1
            _obs.counter("serve.cache.miss").inc()
        plan = self.config.fault_plan
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt > 0:
                self.counters.retries += 1
            try:
                with _obs.span(
                    "serve/tune",
                    cat="serve",
                    problem=request.problem,
                    dataset=request.dataset,
                    attempt=attempt,
                ):
                    if plan is not None:
                        marker = apply_task_faults(
                            plan, op=0, index=seq, attempt=attempt, in_worker=False
                        )
                        if isinstance(marker, CorruptResult):
                            raise TuneFailedError(
                                f"injected corrupt result for {request.dataset}"
                            )
                    record = self._compute_record(request, fields)
                response = TuneResponse.from_record(record)
                self._remember(key, response)
                self.counters.computed += 1
                _obs.counter("serve.computed").inc()
                return response, "computed"
            except Exception as exc:  # noqa: BLE001 - retry loop boundary
                last_error = exc
        # Retries exhausted: another process may have stored the answer
        # meanwhile (shared cache dir), then the stale fallback.
        if self.cache is not None:
            response = self._read(key, fields)
            if response is not None:
                self.counters.cache_hits += 1
                _obs.counter("serve.cache.hit").inc()
                return response, "cache"
        if self.config.stale_if_error:
            stale = self._answers.get(key)
            if stale is not None:
                self.counters.stale += 1
                _obs.counter("serve.stale").inc()
                return stale, "stale"
        self.counters.errors += 1
        _obs.counter("serve.errors").inc()
        raise TuneFailedError(
            f"tune failed after {self.config.max_retries + 1} attempts: "
            f"{last_error!r}"
        ) from last_error

    def _read(self, key: str, fields: dict) -> TuneResponse | None:
        """The response stored on disk for *fields*, remembered; else ``None``."""
        record = self.cache.get(fields)
        if record is None:
            return None
        response = TuneResponse.from_record(record)
        self._remember(key, response)
        return response

    def _compute_record(self, request: TuneRequest, fields: dict | None) -> dict:
        """Compute (or flock-coordinate) the response record for *request*."""
        if self.cache is None:
            return tune(request, problem=self._problem_for(request)).to_record()

        def compute() -> dict:
            return tune(request, problem=self._problem_for(request)).to_record()

        # get_or_compute holds the shard's exclusive flock across
        # re-check -> compute -> store, so concurrent server processes
        # sharing this cache directory compute each cold key exactly once.
        record, _ = self.cache.get_or_compute(fields, compute)
        return record

    def _remember(self, key: str, response: TuneResponse) -> None:
        if self.config.remember_limit <= 0:
            return
        self._answers[key] = response
        self._answers.move_to_end(key)
        while len(self._answers) > self.config.remember_limit:
            self._answers.popitem(last=False)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot plus derived rates (the bench report block)."""
        snapshot = self.counters.snapshot()
        snapshot["hit_rate"] = self.counters.hit_rate
        snapshot["inflight"] = len(self._inflight)
        snapshot["queue_depth"] = self._queue.qsize() if self._queue else 0
        return snapshot
