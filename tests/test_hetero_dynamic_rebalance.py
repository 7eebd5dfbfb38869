"""Tests for repro.hetero.dynamic_rebalance — rounds, updates, stealing.

The load-bearing contract is the rounds=1 anchor: ``DynamicRebalance``
with one round must be *bit-identical* to the static sampled strategy
(same estimate, same single timeline, column for column).  Everything
else — the hindsight update beating a fixed cutoff under drift, the
work-stealing drain, the serialized records — layers on
top of that anchor.
"""

import numpy as np
import pytest

from repro.core.framework import SamplingPartitioner
from repro.core.search import RaceCoarseSearch
from repro.hetero.cc import CcProblem
from repro.hetero.dynamic_rebalance import (
    DynamicRebalance,
    DynamicRebalanceResult,
    RoundRecord,
    per_round_oracle,
    round_bounds,
)
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.obs import runtime
from repro.platform.cluster import ClusterSpec
from repro.sparse.construct import from_coo
from repro.util.errors import ValidationError
from repro.util.rng import as_generator
from repro.workloads.band import banded_matrix
from tests.conftest import random_graph


def ramp_matrix(n, lo, hi, seed):
    """Rows whose nnz ramps from *lo* to *hi* — the drift workload."""
    gen = as_generator(seed)
    lengths = np.minimum(
        gen.poisson(np.linspace(lo, hi, n)), n
    ).astype(np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    total = int(lengths.sum())
    cols = gen.integers(0, n, size=total)
    vals = gen.uniform(0.0, 1.0, size=total)
    return from_coo(rows, cols, vals, (n, n))


def fresh_partitioner():
    """A partitioner whose estimate is reproducible across constructions."""
    return SamplingPartitioner(RaceCoarseSearch(), rng=7)


def clamped_estimate(problem, partitioner):
    grid = problem.threshold_grid()
    est = partitioner.estimate(problem)
    return float(min(max(est.threshold, float(grid[0])), float(grid[-1])))


def assert_timelines_identical(actual, expected):
    """Column-for-column equality — the bit-identity assertion."""
    ca, ce = actual.columns(), expected.columns()
    np.testing.assert_array_equal(ca.starts, ce.starts)
    np.testing.assert_array_equal(ca.durations, ce.durations)
    assert actual.labels() == expected.labels()
    assert [ca.resource_pool[c] for c in ca.resources] == [
        ce.resource_pool[c] for c in ce.resources
    ]
    assert actual.total_ms == expected.total_ms


class TestRoundBounds:
    def test_blocks_tile_the_axis(self):
        bounds = round_bounds(103, 4)
        assert bounds[0][0] == 0 and bounds[-1][1] == 103
        for (_, hi), (lo, _) in zip(bounds[:-1], bounds[1:]):
            assert hi == lo

    def test_more_rounds_than_items_drops_empties(self):
        bounds = round_bounds(3, 8)
        assert len(bounds) == 3
        assert all(hi > lo for lo, hi in bounds)

    def test_zero_length_axis(self):
        assert round_bounds(0, 4) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            round_bounds(10, 0)
        with pytest.raises(ValidationError):
            round_bounds(-1, 2)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"relax": 0.0},
            {"relax": 1.5},
            {"steal_chunks": 0},
            {"steal_overhead_ms": -1.0},
            {"min_share": 0.5},
            {"min_share": -0.1},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            DynamicRebalance(**kwargs)


class TestRoundsOneIsStatic:
    """rounds=1 must reproduce the static sampled strategy bit for bit."""

    def test_spmm_bit_identical(self, machine):
        problem = SpmmProblem(banded_matrix(500, 12.0, rng=3), machine)
        t0 = clamped_estimate(problem, fresh_partitioner())
        static_tl = problem.timeline(t0)

        result = DynamicRebalance(fresh_partitioner(), rounds=1).run(problem)
        assert result.thresholds == ((t0,),)
        assert_timelines_identical(result.timeline, static_tl)
        (record,) = result.rounds
        assert (record.lo, record.hi) == (0, problem.round_axis_n())
        assert record.stolen_rows == 0

    def test_hh_bit_identical(self, machine):
        a = ramp_matrix(400, 5.0, 60.0, seed=11)
        problem = HhCpuProblem(a, machine, name="hh-anchor")
        t0 = clamped_estimate(problem, fresh_partitioner())
        static_tl = problem.timeline(t0)

        result = DynamicRebalance(fresh_partitioner(), rounds=1).run(problem)
        assert result.thresholds == ((t0,),)
        assert_timelines_identical(result.timeline, static_tl)

    def test_vector_bit_identical(self, machine):
        cluster = ClusterSpec.from_machine(machine, n_gpus=2)
        problem = MultiwaySpmmProblem(banded_matrix(600, 10.0, rng=5), cluster)
        vector = (25.0, 70.0)
        static_tl = problem.timeline(vector)

        result = DynamicRebalance(rounds=1).run_vector(problem, vector)
        assert result.thresholds == (vector,)
        assert_timelines_identical(result.timeline, static_tl)

    def test_round_record_carries_lane_observations(self, machine):
        problem = SpmmProblem(banded_matrix(300, 8.0, rng=2), machine)
        result = DynamicRebalance(fresh_partitioner(), rounds=1).run(problem)
        (record,) = result.rounds
        for lane in ("cpu", "gpu"):
            assert record.busy_ms[lane] > 0.0
            assert record.finish_ms[lane] >= record.busy_ms[lane]
        assert record.makespan_ms == result.total_ms


class TestRebalancing:
    def test_hindsight_beats_static_under_drift(self, machine):
        # Blocks need enough rows that one block's hindsight optimum says
        # something about the next — tiny blocks are all straggler noise.
        a = ramp_matrix(2000, 10.0, 200.0, seed=4)
        problem = HhCpuProblem(a, machine, name="drift")
        rounds = 8
        t0 = clamped_estimate(problem, fresh_partitioner())
        static_ms = sum(
            problem.round_block(lo, hi).evaluate_ms(t0)
            for lo, hi in round_bounds(problem.round_axis_n(), rounds)
        )
        dynamic = DynamicRebalance(fresh_partitioner(), rounds=rounds).run(
            problem
        )
        assert dynamic.total_ms < static_ms
        assert len(dynamic.rounds) == rounds
        # The cutoff actually moved after observing the first block.
        trajectory = [r.thresholds[0] for r in dynamic.rounds]
        assert len(set(trajectory)) > 1

    def test_oracle_lower_bounds_every_policy(self, machine):
        a = ramp_matrix(500, 5.0, 100.0, seed=9)
        problem = HhCpuProblem(a, machine, name="oracle")
        rounds = 4
        oracle_ts, oracle_ms = per_round_oracle(problem, rounds)
        assert len(oracle_ts) == rounds
        dynamic = DynamicRebalance(fresh_partitioner(), rounds=rounds).run(
            problem
        )
        assert oracle_ms <= dynamic.total_ms + 1e-9
        bounds = round_bounds(problem.round_axis_n(), rounds)
        for t in (problem.threshold_grid()[0], oracle_ts[0]):
            fixed = sum(
                problem.round_block(lo, hi).evaluate_ms(float(t))
                for lo, hi in bounds
            )
            assert oracle_ms <= fixed + 1e-9

    def test_fallback_probes_idle_device(self):
        """Without batch pricing, a zero-share round probes via min_share."""

        class _Stub:
            name = "stub"

            def threshold_grid(self):
                return np.array([0.0, 100.0])

        strategy = DynamicRebalance(rounds=2, min_share=0.1)
        stub = _Stub()
        # CPU ran nothing (share 0): the next round must give it the floor.
        t = strategy._next_threshold(
            stub, stub, 0.0, {"cpu": 0.0, "gpu": 5.0}, {"cpu": 0.0, "gpu": 5.0}
        )
        assert t == pytest.approx(10.0)
        # Balanced observation moves toward the finish-time equalizer.
        t = strategy._next_threshold(
            stub,
            stub,
            50.0,
            {"cpu": 8.0, "gpu": 2.0},
            {"cpu": 8.0, "gpu": 2.0},
        )
        assert t < 50.0  # CPU is the laggard: shed CPU share


class TestStealing:
    def test_steal_moves_rows_and_never_hurts(self, machine):
        a = ramp_matrix(500, 5.0, 100.0, seed=6)
        # Adversarial interleaving: sorted rows dealt into blocks.
        order = np.argsort(a.row_nnz(), kind="stable")
        half = order.size // 2
        deal = np.empty_like(order)
        deal[0::2] = order[:half][: deal[0::2].size]
        deal[1::2] = order[half:][: deal[1::2].size]
        problem = SpmmProblem(a.select_rows(deal), machine, name="steal")

        plain = DynamicRebalance(fresh_partitioner(), rounds=4).run(problem)
        stealing = DynamicRebalance(
            fresh_partitioner(), rounds=4, steal=True, steal_chunks=8
        ).run(problem)
        assert stealing.stolen_rows > 0
        assert stealing.total_ms <= plain.total_ms + 1e-9

    def test_steal_overhead_discourages_migration(self, machine):
        a = ramp_matrix(400, 5.0, 80.0, seed=8)
        problem = SpmmProblem(a, machine, name="steal-oh")
        cheap = DynamicRebalance(
            fresh_partitioner(), rounds=3, steal=True
        ).run(problem)
        dear = DynamicRebalance(
            fresh_partitioner(), rounds=3, steal=True, steal_overhead_ms=1e6
        ).run(problem)
        assert dear.stolen_rows <= cheap.stolen_rows


class TestRecords:
    def test_round_record_round_trip(self):
        record = RoundRecord(
            index=2,
            lo=10,
            hi=20,
            thresholds=(37.5,),
            makespan_ms=1.25,
            busy_ms={"cpu": 1.0, "gpu": 0.5},
            finish_ms={"cpu": 1.1, "gpu": 0.6},
            stolen_rows=3,
        )
        assert RoundRecord.from_record(record.to_record()) == record

    def test_round_record_reads_legacy_payload(self):
        # Records serialized before finish_ms existed must still load.
        payload = {
            "index": 0,
            "lo": 0,
            "hi": 5,
            "thresholds": [50.0],
            "makespan_ms": 1.0,
            "busy_ms": {"cpu": 1.0},
            "stolen_rows": 0,
        }
        record = RoundRecord.from_record(payload)
        assert record.finish_ms == {}

    def test_result_round_trip_drops_timeline(self, machine):
        problem = SpmmProblem(banded_matrix(300, 8.0, rng=2), machine)
        result = DynamicRebalance(fresh_partitioner(), rounds=2).run(problem)
        assert result.timeline is not None
        restored = DynamicRebalanceResult.from_record(result.to_record())
        assert restored == result
        assert restored.timeline is None
        assert restored.stolen_rows == result.stolen_rows


class TestObsCounters:
    def test_rounds_and_stolen_rows_counted(self, machine):
        a = ramp_matrix(500, 5.0, 100.0, seed=6)
        problem = SpmmProblem(a, machine, name="obs")
        _, metrics = runtime.enable()
        try:
            DynamicRebalance(
                fresh_partitioner(), rounds=3, steal=True
            ).run(problem)
            snap = metrics.snapshot()
        finally:
            runtime.disable()
        assert snap["counters"]["rebalance.rounds"] == 3
        assert snap["counters"].get("rebalance.stolen_rows", 0) >= 0


class TestRoundHooks:
    def test_block_guards_reject_bad_ranges(self, machine):
        spmm = SpmmProblem(banded_matrix(100, 6.0, rng=1), machine)
        cc = CcProblem(random_graph(80, 160, seed=2), machine)
        for problem in (spmm, cc):
            with pytest.raises(ValidationError):
                problem.round_block(-1, 10)
            with pytest.raises(ValidationError):
                problem.round_block(5, 5)
            with pytest.raises(ValidationError):
                problem.round_block(0, problem.round_axis_n() + 1)

    def test_sampled_instances_cannot_slice_rounds(self, machine):
        a = ramp_matrix(300, 5.0, 60.0, seed=3)
        sampled = HhCpuProblem(a, machine).sample(64, rng=0)
        with pytest.raises(ValidationError):
            sampled.round_block(0, 10)
        with pytest.raises(ValidationError):
            SpmmProblem(a, machine).round_queues(50.0, chunks=0)

    def test_hh_all_zero_rows_block_prices(self, machine):
        """Regression: an all-empty block crashed evaluate_many (bincount
        over empty weights yields int64, and the in-place float scaling of
        the pricing buckets then failed to cast)."""
        n = 40
        rows = np.repeat(np.arange(20, dtype=np.int64), 5)
        cols = np.tile(np.arange(5, dtype=np.int64), 20)
        vals = np.ones(rows.size)
        a = from_coo(rows, cols, vals, (n, n))  # rows [20, 40) are empty
        problem = HhCpuProblem(a, machine, name="zero-tail")
        block = problem.round_block(20, 40)
        grid = np.asarray(block.threshold_grid(), dtype=np.float64)
        times = np.asarray(block.evaluate_many(grid), dtype=np.float64)
        assert times.dtype == np.float64
        assert np.all(np.isfinite(times))
        assert block.cpu_share_at(float(grid[0])) == 0.0
        assert block.threshold_for_cpu_share(0.5) == 0.0
        # The whole-run path over the same input must also survive.
        result = DynamicRebalance(fresh_partitioner(), rounds=2).run(problem)
        assert result.total_ms > 0.0

    def test_hh_share_mapping_round_trips(self, machine):
        a = ramp_matrix(300, 5.0, 80.0, seed=12)
        problem = HhCpuProblem(a, machine)
        for t in problem.threshold_grid()[:: max(1, len(problem.threshold_grid()) // 7)]:
            share = problem.cpu_share_at(float(t))
            back = problem.cpu_share_at(problem.threshold_for_cpu_share(share))
            assert back == pytest.approx(share, abs=0.02)
