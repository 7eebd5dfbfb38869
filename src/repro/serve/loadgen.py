"""Deterministic synthetic traffic for the tuning server.

:func:`generate_traffic` renders a :class:`TrafficSpec` into a concrete
request stream: bursty virtual arrivals (geometric burst sizes separated
by exponential gaps) over a request universe whose datasets are
Zipf-weighted — a few hot datasets dominate, the tail is long, exactly
the shape that makes coalescing and caching earn their keep.  Every draw
comes from one :func:`repro.util.rng.stable_seed`-seeded generator, and
arrival times are *virtual* (simulated milliseconds, no wall clock), so
the same spec always yields the same stream — the bench and the CI gate
replay identical traffic run after run.

:func:`drive` / :func:`replay` play a stream against a
:class:`~repro.serve.server.TuningServer` closed-loop at a fixed
concurrency; :func:`percentile` computes the p50/p99 figures the bench
report publishes (the server's histogram keeps only count/sum/min/max,
so quantiles are derived here from raw samples).
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.api import (
    DEFAULT_REQUEST_SCALE,
    PROBLEM_KINDS,
    SCALAR_KINDS,
    TuneRequest,
)
from repro.serve.server import ServeConfig, ServedResponse, TuningServer
from repro.util.errors import ValidationError
from repro.util.rng import as_generator, stable_seed
from repro.workloads.suite import dataset_names

#: Default dataset mix: two banded FEM, one web, one road — structurally
#: diverse enough to exercise every pricing path while staying cheap to
#: materialize at bench scale.
DEFAULT_LOADGEN_DATASETS = ("cant", "pwtk", "webbase-1M", "netherlands_osm")


@dataclass(frozen=True, kw_only=True)
class TrafficSpec:
    """One reproducible traffic scenario (frozen, hashable).

    Attributes
    ----------
    n_requests:
        Stream length.
    seed:
        Master seed; every draw (dataset, problem, request seed, burst
        size, gap) derives from it.
    scale:
        Dataset scale every request carries.
    problems / datasets:
        The request universe's axes (problems uniform, datasets
        Zipf-ranked in the order given — first is hottest).
    zipf_alpha:
        Zipf exponent over dataset ranks; higher = more skew.
    seed_pool:
        Distinct request seeds per (problem, dataset) cell.  The pool
        bounds the universe size, hence the duplicate rate: smaller pool,
        hotter cache.
    repeats:
        Sampling repeats each request asks for.
    burst_mean:
        Mean burst size (geometric); arrivals inside a burst share one
        virtual timestamp.
    gap_mean_ms:
        Mean virtual gap between bursts (exponential).
    """

    n_requests: int = 256
    seed: int = 2017
    scale: float = DEFAULT_REQUEST_SCALE
    # The benchmark mix stays the scalar case studies — the throughput
    # gate's workload must not shift when new tunable kinds land; opt
    # cluster-* kinds in explicitly via ``problems=``.
    problems: tuple[str, ...] = SCALAR_KINDS
    datasets: tuple[str, ...] = DEFAULT_LOADGEN_DATASETS
    zipf_alpha: float = 1.1
    seed_pool: int = 4
    repeats: int = 1
    burst_mean: float = 8.0
    gap_mean_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValidationError(f"n_requests must be >= 1, got {self.n_requests}")
        if not self.problems:
            raise ValidationError("problems must be non-empty")
        for problem in self.problems:
            if problem not in PROBLEM_KINDS:
                raise ValidationError(
                    f"unknown problem kind {problem!r}; expected one of "
                    f"{PROBLEM_KINDS}"
                )
        if not self.datasets:
            raise ValidationError("datasets must be non-empty")
        for dataset in self.datasets:
            if dataset not in dataset_names():
                raise ValidationError(
                    f"unknown dataset {dataset!r}; known: "
                    f"{', '.join(dataset_names())}"
                )
        if self.zipf_alpha <= 0:
            raise ValidationError(f"zipf_alpha must be > 0, got {self.zipf_alpha}")
        if self.seed_pool < 1:
            raise ValidationError(f"seed_pool must be >= 1, got {self.seed_pool}")
        if self.burst_mean < 1:
            raise ValidationError(f"burst_mean must be >= 1, got {self.burst_mean}")
        if self.gap_mean_ms < 0:
            raise ValidationError(
                f"gap_mean_ms must be >= 0, got {self.gap_mean_ms}"
            )

    def to_record(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "seed": self.seed,
            "scale": self.scale,
            "problems": list(self.problems),
            "datasets": list(self.datasets),
            "zipf_alpha": self.zipf_alpha,
            "seed_pool": self.seed_pool,
            "repeats": self.repeats,
            "burst_mean": self.burst_mean,
            "gap_mean_ms": self.gap_mean_ms,
        }


@dataclass(frozen=True, kw_only=True)
class TimedRequest:
    """One request with its virtual arrival time (simulated ms)."""

    arrival_ms: float
    request: TuneRequest

    def to_record(self) -> dict:
        return {"arrival_ms": self.arrival_ms, **self.request.to_record()}

    @classmethod
    def from_record(cls, record: dict) -> "TimedRequest":
        return cls(
            arrival_ms=float(record["arrival_ms"]),
            request=TuneRequest.from_record(record),
        )


def request_universe(spec: TrafficSpec) -> tuple[list[TuneRequest], np.ndarray]:
    """All requests the spec can emit, with their Zipf draw weights.

    Datasets get weight ``1 / (rank + 1) ** alpha`` in the order the spec
    lists them; problems and seed-pool slots are uniform within a
    dataset.  Request seeds derive from the spec seed via
    :func:`~repro.util.rng.stable_seed`, so the universe itself is a pure
    function of the spec.
    """
    requests: list[TuneRequest] = []
    weights: list[float] = []
    for rank, dataset in enumerate(spec.datasets):
        dataset_weight = 1.0 / (rank + 1) ** spec.zipf_alpha
        cell_weight = dataset_weight / (len(spec.problems) * spec.seed_pool)
        for problem in spec.problems:
            for slot in range(spec.seed_pool):
                requests.append(
                    TuneRequest(
                        problem=problem,
                        dataset=dataset,
                        scale=spec.scale,
                        seed=stable_seed(spec.seed, "loadgen", dataset, problem, slot)
                        % 2**31,
                        repeats=spec.repeats,
                    )
                )
                weights.append(cell_weight)
    probabilities = np.asarray(weights, dtype=np.float64)
    return requests, probabilities / probabilities.sum()


def generate_traffic(spec: TrafficSpec) -> list[TimedRequest]:
    """Render the spec into its (deterministic) bursty request stream."""
    universe, probabilities = request_universe(spec)
    gen = as_generator(stable_seed(spec.seed, "loadgen-traffic"))
    stream: list[TimedRequest] = []
    clock_ms = 0.0
    while len(stream) < spec.n_requests:
        burst = int(gen.geometric(1.0 / spec.burst_mean))
        size = min(burst, spec.n_requests - len(stream))
        # One draw per burst takes the same uniforms, in the same order,
        # as one draw per request.
        for index in gen.choice(len(universe), size=size, p=probabilities):
            stream.append(
                TimedRequest(arrival_ms=clock_ms, request=universe[index])
            )
        clock_ms += float(gen.exponential(spec.gap_mean_ms))
    return stream


# -- trace (de)serialization -----------------------------------------------


def save_requests(stream: list[TimedRequest], out=None) -> None:
    """Write a stream as JSONL (stdout when *out* is None)."""
    sink = out if out is not None else sys.stdout
    for timed in stream:
        sink.write(json.dumps(timed.to_record(), sort_keys=True) + "\n")


def load_requests(lines) -> list[TimedRequest]:
    """Parse a JSONL stream back (inverse of :func:`save_requests`)."""
    stream = []
    for line in lines:
        line = line.strip()
        if line:
            stream.append(TimedRequest.from_record(json.loads(line)))
    return stream


# -- driving a server ------------------------------------------------------


def _now_s() -> float:
    """Wall clock for throughput/latency measurement only."""
    return time.perf_counter()  # reprolint: disable=DET001 -- load-test measurement only; never feeds a computed result


@dataclass
class ReplayResult:
    """One replay pass: responses aligned with the input stream.

    ``responses[i]`` is ``None`` where request *i* errored;
    ``errors`` records those as ``(index, repr)``.  ``canonical()``
    exposes the byte-identity view the determinism contracts compare.
    """

    responses: list[ServedResponse | None]
    errors: list[tuple[int, str]] = field(default_factory=list)
    elapsed_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def canonical(self) -> list[str | None]:
        return [
            served.response.canonical_json() if served is not None else None
            for served in self.responses
        ]

    def latencies_ms(self) -> list[float]:
        return [
            served.latency_ms for served in self.responses if served is not None
        ]

    def source_counts(self) -> dict:
        counts: dict[str, int] = {}
        for served in self.responses:
            if served is not None:
                counts[served.source] = counts.get(served.source, 0) + 1
        return counts


async def drive(
    server: TuningServer,
    requests: list[TuneRequest],
    *,
    concurrency: int = 32,
) -> list[ServedResponse | BaseException]:
    """Submit *requests* closed-loop at the given concurrency.

    Results come back aligned with the input (exceptions in place), so
    callers can pair every request with its outcome.
    """
    if concurrency < 1:
        raise ValidationError(f"concurrency must be >= 1, got {concurrency}")
    semaphore = asyncio.Semaphore(concurrency)

    async def one(request: TuneRequest) -> ServedResponse:
        async with semaphore:
            return await server.submit(request)  # reprolint: disable=PAR002 -- asyncio coroutine on this loop, not an executor ship-to-worker

    return await asyncio.gather(
        *(one(request) for request in requests), return_exceptions=True
    )


def replay(
    requests: list[TuneRequest],
    config: ServeConfig | None = None,
    *,
    concurrency: int = 32,
) -> ReplayResult:
    """Run one server for the stream's duration and replay it (sync)."""

    async def run() -> ReplayResult:
        async with TuningServer(config=config or ServeConfig()) as server:
            started_s = _now_s()
            outcomes = await drive(server, requests, concurrency=concurrency)
            elapsed_s = _now_s() - started_s
            result = ReplayResult(
                responses=[], elapsed_s=elapsed_s, counters=server.stats()
            )
            for i, outcome in enumerate(outcomes):
                if isinstance(outcome, BaseException):
                    result.responses.append(None)
                    result.errors.append((i, repr(outcome)))
                else:
                    result.responses.append(outcome)
            return result

    return asyncio.run(run())


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (the convention latency SLOs quote)."""
    if not samples:
        raise ValidationError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValidationError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return float(ordered[rank])
