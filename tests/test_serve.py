"""The tuning-service contracts (repro.serve).

The acceptance criteria, spelled out as tests:

* **Byte-identity**: the same request stream produces byte-identical
  ``canonical_json()`` responses whether answered serially one-at-a-time
  cold (the pure :func:`repro.serve.tune` reference), coalesced, batched,
  from a warm cache, or with caching disabled.
* **Coalescing / batching really happen**: duplicate in-flight requests
  share one computation; compatible queued requests group onto one
  problem instance — both observable in the server's counters.
* **Overload**: a full bounded queue sheds with a typed
  :class:`~repro.serve.ServerOverloadedError`, never unbounded queueing.
* **Faults**: an armed :class:`~repro.engine.FaultPlan` is retried within
  budget (answers unchanged); exhausted retries serve *stale* from the
  last good response when allowed and raise
  :class:`~repro.serve.TuneFailedError` otherwise; ``crash_synth``
  chaos-tests dataset materialization through the serving path.
* **Answer map**: with a cache directory, a repeat of a key the server
  holds decoded reads no disk; ``remember_limit`` bounds the map; a cold
  key reads its record twice.
* **Close**: closing the server fails every request it has not answered
  with a typed :class:`~repro.serve.ServeError`, and the compute thread
  starts no request after it.
* The deterministic load generator is a pure function of its spec.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import FaultPlan, FaultSpec, ResultCache
from repro.engine.faults import armed_synth_plan
from repro.engine.sharded import ShardedResultCache
from repro.serve import (
    ServeConfig,
    ServeError,
    ServerOverloadedError,
    TrafficSpec,
    TuneFailedError,
    TuneRequest,
    TuneResponse,
    TuningServer,
    generate_traffic,
    percentile,
    replay,
    request_universe,
    tune,
)
from repro.serve.loadgen import TimedRequest, load_requests, save_requests
from repro.util.errors import ValidationError
from repro.util.rng import as_generator, stable_seed

#: Small-but-mixed stream: 2 problems x 1 dataset x 2 seeds = 4 unique
#: requests behind 24 arrivals — plenty of duplication for coalescing
#: and batching without slowing the suite.
SPEC = TrafficSpec(
    n_requests=24,
    seed=7,
    scale=1 / 64,
    problems=("cc", "spmm"),
    datasets=("cant",),
    seed_pool=2,
)


def _requests() -> list[TuneRequest]:
    return [timed.request for timed in generate_traffic(SPEC)]


def _reference(requests: list[TuneRequest]) -> list[str]:
    """The serial one-at-a-time cold ground truth."""
    return [tune(request).canonical_json() for request in requests]


# ---------------------------------------------------------------------------
# Request/response types


class TestApiTypes:
    def test_request_validation(self):
        with pytest.raises(ValidationError):
            TuneRequest(problem="sort", dataset="cant")
        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="nonesuch")
        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="cant", scale=0.0)
        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="cant", repeats=0)
        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="cant", sample_size=0)

    def test_request_round_trip_and_fingerprint(self):
        request = TuneRequest(problem="hh", dataset="webbase-1M", seed=5)
        clone = TuneRequest.from_record(request.to_record())
        assert clone == request
        assert clone.fingerprint() == request.fingerprint()
        other = TuneRequest(problem="hh", dataset="webbase-1M", seed=6)
        assert other.fingerprint() != request.fingerprint()

    def test_response_round_trip_is_byte_exact(self):
        response = tune(TuneRequest(problem="cc", dataset="cant", scale=1 / 64))
        decoded = TuneResponse.from_record(
            json.loads(response.canonical_json())
        )
        assert decoded.canonical_json() == response.canonical_json()
        assert decoded == response

    def test_serve_config_validation(self):
        with pytest.raises(ValidationError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValidationError):
            ServeConfig(queue_limit=0)
        with pytest.raises(ValidationError):
            ServeConfig(max_retries=-1)


class TestDynamicRounds:
    """``rounds > 1`` answers through DynamicRebalance, one cutoff a round."""

    @pytest.mark.parametrize("rounds", [2, 4])
    @pytest.mark.parametrize("problem", ["cc", "spmm", "hh"])
    def test_one_threshold_per_round_deterministic(self, problem, rounds):
        request = TuneRequest(
            problem=problem, dataset="cant", scale=1 / 64, rounds=rounds
        )
        response = tune(request)
        assert response.rounds == len(response.thresholds) == rounds
        assert response.threshold == response.thresholds[0]
        again = tune(request)
        assert again == response
        assert again.canonical_json() == response.canonical_json()
        assert TuneResponse.from_record(response.to_record()) == response

    def test_spmm_round_zero_is_the_static_threshold(self):
        static = tune(TuneRequest(problem="spmm", dataset="cant", scale=1 / 64))
        for rounds in (2, 4):
            dynamic = tune(
                TuneRequest(
                    problem="spmm", dataset="cant", scale=1 / 64, rounds=rounds
                )
            )
            assert dynamic.thresholds[0] == static.threshold

    def test_rounds_validation(self):
        with pytest.raises(ValidationError):
            TuneRequest(problem="cc", dataset="cant", rounds=0)
        for kind in ("cluster-cc", "cluster-spmm"):
            with pytest.raises(ValidationError):
                TuneRequest(problem=kind, dataset="cant", rounds=2)


# ---------------------------------------------------------------------------
# The determinism contract


class TestByteIdentity:
    def test_all_serving_modes_match_serial_cold_reference(self, tmp_path):
        requests = _requests()
        reference = _reference(requests)

        # Coalesced + batched, cold cache.
        cold = replay(
            requests, ServeConfig(cache_dir=str(tmp_path)), concurrency=16
        )
        assert cold.errors == []
        assert cold.canonical() == reference
        assert cold.counters["coalesced"] > 0
        assert cold.counters["batched"] > 0

        # Warm cache, same stream: answered from disk, same bytes.
        warm = replay(
            requests, ServeConfig(cache_dir=str(tmp_path)), concurrency=16
        )
        assert warm.errors == []
        assert warm.canonical() == reference
        assert warm.counters["cache_misses"] == 0
        assert warm.counters["hit_rate"] == 1.0

        # No cache at all.
        uncached = replay(requests, ServeConfig(), concurrency=16)
        assert uncached.errors == []
        assert uncached.canonical() == reference

        # One at a time (no coalescing, no batching possible).
        serial = replay(requests, ServeConfig(), concurrency=1)
        assert serial.errors == []
        assert serial.canonical() == reference
        assert serial.counters["coalesced"] == 0

    def test_sources_are_labelled(self, tmp_path):
        requests = _requests()
        cold = replay(
            requests, ServeConfig(cache_dir=str(tmp_path)), concurrency=16
        )
        sources = cold.source_counts()
        assert set(sources) <= {"cache", "computed", "coalesced", "stale"}
        assert sources.get("computed", 0) > 0
        assert sum(sources.values()) == len(requests)


# ---------------------------------------------------------------------------
# The answer map


@pytest.fixture
def disk_reads(monkeypatch) -> list[str]:
    """The key of every ``ShardedResultCache.get`` call, in call order."""
    reads: list[str] = []
    get = ShardedResultCache.get

    def counted(cache, fields):
        reads.append(cache.key(fields))
        return get(cache, fields)

    monkeypatch.setattr(ShardedResultCache, "get", counted)
    return reads


def _serve_in_order(config, requests, reads):
    """Answer *requests* one at a time on one server.

    Returns, per request, the served response, the keys of the records
    it read from disk (taken from *reads*, the ``disk_reads`` fixture)
    and how many answers the server held afterwards.
    """

    async def run() -> list:
        answered = []
        async with TuningServer(config=config) as server:
            for request in requests:
                before = len(reads)
                served = await server.submit(request)
                answered.append((served, reads[before:], len(server._answers)))
        return answered

    return asyncio.run(run())


class TestAnswerMap:
    REQUEST = TuneRequest(problem="cc", dataset="cant", scale=1 / 64)

    @pytest.mark.parametrize(
        ("remember_limit", "reads_per_repeat"),
        [(1024, 0), (0, 1)],
        ids=["from-memory", "remember-none"],
    )
    def test_repeats_read_the_disk_only_when_not_remembered(
        self, tmp_path, disk_reads, remember_limit, reads_per_repeat
    ):
        config = ServeConfig(cache_dir=str(tmp_path), remember_limit=remember_limit)
        answered = _serve_in_order(config, [self.REQUEST] * 5, disk_reads)
        assert [s.source for s, _, _ in answered] == ["computed"] + ["cache"] * 4
        assert [len(reads) for _, reads, _ in answered[1:]] == [reads_per_repeat] * 4
        assert {held for _, _, held in answered} == {min(remember_limit, 1)}
        reference = tune(self.REQUEST).canonical_json()
        assert [s.response.canonical_json() for s, _, _ in answered] == [
            reference
        ] * 5

    def test_remember_limit_bounds_the_map(self, tmp_path, disk_reads):
        a, b, c = (
            TuneRequest(problem="cc", dataset="cant", scale=1 / 64, seed=seed)
            for seed in (1, 2, 3)
        )
        config = ServeConfig(cache_dir=str(tmp_path), remember_limit=2)
        answered = _serve_in_order(config, [a, b, c, a, a], disk_reads)
        assert [s.source for s, _, _ in answered] == [
            "computed", "computed", "computed", "cache", "cache",
        ]
        assert max(held for _, _, held in answered) == 2
        # c evicted a; a is read back from disk once, then remembered.
        key = ShardedResultCache(tmp_path).key(a.key_fields())
        assert answered[3][1] == [key]
        assert answered[4][1] == []
        assert answered[3][0].response == answered[0][0].response

    def test_cold_request_reads_its_record_twice(self, tmp_path, monkeypatch):
        # Once under the shared lock in the server, once in the re-check
        # under the exclusive lock; get_or_compute reads nothing more.
        reads: list = []
        get = ResultCache.get

        def counted(cache, fields):
            reads.append(fields)
            return get(cache, fields)

        monkeypatch.setattr(ResultCache, "get", counted)
        config = ServeConfig(cache_dir=str(tmp_path))
        answered = _serve_in_order(config, [self.REQUEST], [])
        assert answered[0][0].source == "computed"
        assert reads == [self.REQUEST.key_fields()] * 2

    def test_fresh_server_reads_each_warm_record_once(self, tmp_path, disk_reads):
        requests = _requests()
        config = ServeConfig(cache_dir=str(tmp_path))
        assert replay(requests, config, concurrency=16).errors == []
        disk_reads.clear()
        warm = replay(requests, config, concurrency=16)
        assert warm.errors == []
        assert warm.canonical() == _reference(requests)
        reads = Counter(disk_reads)
        assert len(reads) == len({r.fingerprint() for r in requests})
        assert set(reads.values()) == {1}
        assert warm.counters["cache_misses"] == 0
        assert warm.counters["hit_rate"] == 1.0


# ---------------------------------------------------------------------------
# Closing


class TestClose:
    def test_close_fails_every_pending_request(self):
        started, release = threading.Event(), threading.Event()

        async def run() -> None:
            server = TuningServer(config=ServeConfig(max_batch=1))
            process = server._process_batch

            def held(batch):
                started.set()
                release.wait(timeout=30)
                return process(batch)

            server._process_batch = held
            await server.start()
            requests = [
                TuneRequest(problem=problem, dataset="cant", scale=1 / 64)
                for problem in ("cc", "spmm", "hh", "cc")
            ]
            # One batch in the compute thread, two queued, one follower.
            tasks = [asyncio.create_task(server.submit(r)) for r in requests]
            assert await asyncio.to_thread(started.wait, 30)
            release.set()
            await server.close()
            done, pending = await asyncio.wait(tasks, timeout=30)
            assert not pending
            for task in done:
                assert isinstance(task.exception(), ServeError)
                assert "server closed" in str(task.exception())
            assert server.stats()["inflight"] == 0

        asyncio.run(run())


    def test_close_stops_the_compute_thread_between_requests(self):
        # 30 distinct cold requests land in one batch.  The first is held
        # in the compute thread until close() has begun; the thread then
        # finishes it and starts no other.
        started, release = threading.Event(), threading.Event()
        requests = [
            TuneRequest(problem="cc", dataset="cant", scale=1 / 64, seed=seed)
            for seed in range(30)
        ]

        async def run() -> TuningServer:
            server = TuningServer(config=ServeConfig(max_batch=32))
            serve_one = server._serve_one

            def held(pending):
                if not started.is_set():
                    started.set()
                    release.wait(timeout=30)
                return serve_one(pending)

            server._serve_one = held
            await server.start()
            tasks = [asyncio.create_task(server.submit(r)) for r in requests]
            assert await asyncio.to_thread(started.wait, 30)
            closing = asyncio.create_task(server.close())
            await asyncio.sleep(0)  # close() has run up to its first await
            release.set()
            await closing
            done, pending = await asyncio.wait(tasks, timeout=30)
            assert not pending
            for task in done:
                assert isinstance(task.exception(), ServeError)
                assert "server closed" in str(task.exception())
            return server

        server = asyncio.run(run())
        assert server.counters.computed < len(requests)
        assert server.stats()["inflight"] == 0


# ---------------------------------------------------------------------------
# Overload shedding


class TestOverload:
    def test_full_queue_sheds_with_typed_error(self):
        async def run() -> None:
            config = ServeConfig(queue_limit=1, max_batch=1)
            async with TuningServer(config=config) as server:
                # Freeze the batcher so the queue cannot drain: the shed
                # path must trigger on queue pressure alone.
                server._batcher.cancel()
                first = asyncio.ensure_future(
                    server.submit(TuneRequest(problem="cc", dataset="cant"))
                )
                await asyncio.sleep(0)  # let it enqueue
                with pytest.raises(ServerOverloadedError):
                    await server.submit(TuneRequest(problem="spmm", dataset="cant"))
                assert server.counters.shed == 1
                first.cancel()

        asyncio.run(run())

    def test_unstarted_server_rejects(self):
        async def run() -> None:
            server = TuningServer()
            with pytest.raises(Exception):
                await server.submit(TuneRequest(problem="cc", dataset="cant"))

        asyncio.run(run())


# ---------------------------------------------------------------------------
# Fault tolerance through the request path


class TestServingFaults:
    def test_task_fault_retried_answers_unchanged(self):
        request = TuneRequest(problem="cc", dataset="cant", scale=1 / 64)
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt_result", index=0, times=1),)
        )
        faulted = replay(
            [request], ServeConfig(fault_plan=plan, max_retries=2), concurrency=1
        )
        assert faulted.errors == []
        assert faulted.counters["retries"] >= 1
        assert faulted.canonical() == _reference([request])

    def test_stale_if_error_serves_last_good(self):
        request = TuneRequest(problem="cc", dataset="cant", scale=1 / 64)
        # Request #0 computes clean (and is remembered); request #1 hits
        # a fault armed past the retry budget and must fall back stale.
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt_result", index=1, times=9),)
        )
        result = replay(
            [request, request],
            ServeConfig(fault_plan=plan, max_retries=1),
            concurrency=1,
        )
        assert result.errors == []
        assert [s.source for s in result.responses] == ["computed", "stale"]
        assert result.counters["stale"] == 1
        assert result.canonical() == _reference([request, request])

    def test_exhausted_retries_without_stale_raise_typed_error(self):
        request = TuneRequest(problem="cc", dataset="cant", scale=1 / 64)
        plan = FaultPlan(
            specs=(FaultSpec(kind="corrupt_result", index=0, times=9),)
        )
        result = replay(
            [request],
            ServeConfig(fault_plan=plan, max_retries=1, stale_if_error=False),
            concurrency=1,
        )
        assert result.responses == [None]
        assert len(result.errors) == 1
        assert "TuneFailedError" in result.errors[0][1]
        assert result.counters["errors"] == 1

    def test_crash_synth_through_serving_path(self):
        # A scale no other test materializes, so the dataset cache cannot
        # satisfy the request before the synthesis fault can fire.
        request = TuneRequest(problem="cc", dataset="cant", scale=0.0123)
        plan = FaultPlan(specs=(FaultSpec(kind="crash_synth", index=0),))
        result = replay(
            [request], ServeConfig(fault_plan=plan, max_retries=2), concurrency=1
        )
        assert result.errors == []
        assert result.counters["retries"] >= 1
        assert result.canonical() == _reference([request])
        # The server disarmed its plan on close.
        assert armed_synth_plan() is None

    def test_tune_failed_error_type(self):
        assert issubclass(TuneFailedError, Exception)
        assert issubclass(ServerOverloadedError, Exception)


# ---------------------------------------------------------------------------
# Load generator determinism


def _per_request_traffic(spec: TrafficSpec) -> list[TimedRequest]:
    """The reference stream: one ``choice`` draw per request."""
    universe, probabilities = request_universe(spec)
    gen = as_generator(stable_seed(spec.seed, "loadgen-traffic"))
    stream: list[TimedRequest] = []
    clock_ms = 0.0
    while len(stream) < spec.n_requests:
        burst = int(gen.geometric(1.0 / spec.burst_mean))
        for _ in range(min(burst, spec.n_requests - len(stream))):
            index = int(gen.choice(len(universe), p=probabilities))
            stream.append(TimedRequest(arrival_ms=clock_ms, request=universe[index]))
        clock_ms += float(gen.exponential(spec.gap_mean_ms))
    return stream


class TestLoadgen:
    def test_traffic_is_pure_function_of_spec(self):
        a = generate_traffic(SPEC)
        b = generate_traffic(SPEC)
        assert [t.to_record() for t in a] == [t.to_record() for t in b]
        shifted = generate_traffic(
            TrafficSpec(**{**SPEC.to_record(), "seed": 8,
                           "problems": tuple(SPEC.problems),
                           "datasets": tuple(SPEC.datasets)})
        )
        assert [t.to_record() for t in shifted] != [t.to_record() for t in a]

    def test_arrivals_are_virtual_and_monotone(self):
        stream = generate_traffic(SPEC)
        arrivals = [t.arrival_ms for t in stream]
        assert arrivals == sorted(arrivals)
        assert all(a >= 0.0 for a in arrivals)

    def test_zipf_skew_prefers_first_dataset(self):
        spec = TrafficSpec(
            n_requests=300,
            seed=3,
            datasets=("cant", "pwtk", "webbase-1M", "netherlands_osm"),
            zipf_alpha=1.2,
        )
        counts: dict[str, int] = {}
        for timed in generate_traffic(spec):
            counts[timed.request.dataset] = counts.get(timed.request.dataset, 0) + 1
        assert counts["cant"] > counts["netherlands_osm"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_requests=st.integers(1, 300),
        seed=st.integers(0, 2**32),
        seed_pool=st.integers(1, 8),
        burst_mean=st.floats(1.0, 64.0),
        zipf_alpha=st.floats(0.05, 4.0),
    )
    def test_one_draw_per_burst_matches_per_request_draws(
        self, n_requests, seed, seed_pool, burst_mean, zipf_alpha
    ):
        spec = TrafficSpec(
            n_requests=n_requests,
            seed=seed,
            seed_pool=seed_pool,
            burst_mean=burst_mean,
            zipf_alpha=zipf_alpha,
        )
        assert generate_traffic(spec) == _per_request_traffic(spec)

    def test_universe_weights_normalized(self):
        universe, probabilities = request_universe(SPEC)
        assert len(universe) == len(probabilities)
        assert abs(float(probabilities.sum()) - 1.0) < 1e-12

    def test_trace_round_trips_through_jsonl(self, tmp_path):
        stream = generate_traffic(SPEC)
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as sink:
            save_requests(stream, sink)
        with open(path, encoding="utf-8") as source:
            loaded = load_requests(source)
        assert loaded == stream
        assert all(isinstance(t, TimedRequest) for t in loaded)

    def test_percentile_nearest_rank(self):
        samples = [float(x) for x in range(1, 101)]
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0
        with pytest.raises(ValidationError):
            percentile([], 50.0)
        with pytest.raises(ValidationError):
            percentile([1.0], 101.0)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            TrafficSpec(n_requests=0)
        with pytest.raises(ValidationError):
            TrafficSpec(datasets=("nonesuch",))
        with pytest.raises(ValidationError):
            TrafficSpec(problems=("sort",))
        with pytest.raises(ValidationError):
            TrafficSpec(seed_pool=0)
