"""Tests for repro.hetero.dynamic_rebalance — rounds, updates, stealing.

The load-bearing contract is the rounds=1 anchor: ``DynamicRebalance``
with one round must be *bit-identical* to the static sampled strategy
(same estimate, same single timeline, span for span).  Everything
else — the hindsight update beating a fixed cutoff under drift, the
work-stealing drain — layers on top of that anchor.  ``TestRoundsProperties``
checks the anchor and the rounds contracts generatively on small random
spmm, hh, cc and dense-mm instances.
"""

from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.framework import SamplingPartitioner
from repro.core.search import RaceCoarseSearch
from repro.hetero.cc import CcProblem
from repro.hetero.dense_mm import DenseMmProblem
from repro.hetero.dynamic_rebalance import (
    DynamicRebalance,
    per_round_oracle,
    round_bounds,
)
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.spmm import SpmmProblem
from repro.obs import runtime
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
    """Span-for-span exact equality — the bit-identity assertion."""
    assert actual.spans == expected.spans
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

    def test_huge_round_count_builds_only_unit_blocks(self):
        # Built edge by edge this would be a list of 10**12 + 1 entries.
        assert round_bounds(5, 10**12) == [(i, i + 1) for i in range(5)]

    def test_huge_round_count_runs_one_round_per_row(self, machine):
        problem = SpmmProblem(ramp_matrix(40, 2.0, 10.0, seed=1), machine)
        result = DynamicRebalance(fresh_partitioner(), rounds=10**12).run(
            problem
        )
        assert [(r.lo, r.hi) for r in result.rounds] == [
            (i, i + 1) for i in range(40)
        ]

    @pytest.mark.parametrize("rounds", [1, 4])
    def test_empty_axis_runs_one_static_round(self, machine, rounds):
        # Regression: rounds > 1 on an empty axis indexed an empty block list.
        problem = DenseMmProblem(0, machine)
        result = DynamicRebalance(fresh_partitioner(), rounds=rounds).run(
            problem
        )
        assert [(r.lo, r.hi) for r in result.rounds] == [(0, 0)]
        assert_timelines_identical(
            result.timeline, problem.timeline(result.thresholds[0][0])
        )


class TestValidation:
    @pytest.mark.parametrize("kwargs", [{"rounds": 0}])
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


#: Problem kinds with round hooks; every one prices through evaluate_many.
ROUND_KINDS = ("spmm", "hh", "cc", "dense-mm")


def round_instance(kind, n, seed, machine):
    """A small full instance of *kind* whose rounds axis has *n* items."""
    if kind == "spmm":
        return SpmmProblem(ramp_matrix(n, 0.5, 12.0, seed), machine, name="p")
    if kind == "hh":
        return HhCpuProblem(ramp_matrix(n, 0.5, 12.0, seed), machine, name="p")
    if kind == "cc":
        return CcProblem(random_graph(n, 2 * n, seed), machine, name="p")
    return DenseMmProblem(n, machine, name="p")


class TestRoundsProperties:
    """The rounds contracts on small random instances of every kind."""

    @pytest.mark.parametrize("kind", ROUND_KINDS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 48), seed=st.integers(0, 2**16))
    @example(n=1, seed=0)
    def test_rounds_one_is_static(self, machine, kind, n, seed):
        problem = round_instance(kind, n, seed, machine)
        t0 = clamped_estimate(problem, fresh_partitioner())
        static_tl = problem.timeline(t0)

        result = DynamicRebalance(fresh_partitioner(), rounds=1).run(problem)
        assert result.thresholds == ((t0,),)
        assert_timelines_identical(result.timeline, static_tl)

    @pytest.mark.parametrize("kind", ROUND_KINDS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 48),
        seed=st.integers(0, 2**16),
        rounds=st.integers(1, 64),
    )
    @example(n=1, seed=0, rounds=2)
    @example(n=7, seed=1, rounds=7)
    def test_rounds_tile_the_axis_and_sum_to_the_total(
        self, machine, kind, n, seed, rounds
    ):
        problem = round_instance(kind, n, seed, machine)
        result = DynamicRebalance(fresh_partitioner(), rounds=rounds).run(
            problem
        )
        records = result.rounds
        assert len(records) == min(rounds, n)
        assert [r.index for r in records] == list(range(len(records)))
        assert records[0].lo == 0 and records[-1].hi == problem.round_axis_n()
        for prev, nxt in zip(records[:-1], records[1:]):
            assert prev.hi == nxt.lo
        for r in records:
            block = problem if rounds == 1 else problem.round_block(r.lo, r.hi)
            grid = block.threshold_grid()
            (t,) = r.thresholds
            assert float(grid[0]) <= t <= float(grid[-1])
        folded = reduce(add, (r.makespan_ms for r in records), 0.0)
        assert result.total_ms == result.timeline.total_ms == folded

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 48),
        seed=st.integers(0, 2**16),
        rounds=st.integers(2, 16),
    )
    def test_stealing_leaves_the_threshold_path_alone(
        self, machine, n, seed, rounds
    ):
        problem = round_instance("spmm", n, seed, machine)
        plain = DynamicRebalance(fresh_partitioner(), rounds=rounds).run(
            problem
        )
        stealing = DynamicRebalance(
            fresh_partitioner(), rounds=rounds, steal=True
        ).run(problem)
        assert stealing.thresholds == plain.thresholds


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
            fresh_partitioner(), rounds=4, steal=True
        ).run(problem)
        assert stealing.stolen_rows > 0
        assert stealing.total_ms <= plain.total_ms + 1e-9


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
