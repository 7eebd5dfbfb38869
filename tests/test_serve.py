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
* The deterministic load generator is a pure function of its spec.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.engine import FaultPlan, FaultSpec
from repro.engine.faults import armed_synth_plan
from repro.serve import (
    ServeConfig,
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
