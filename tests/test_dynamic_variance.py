"""Tests for repro.hetero.dynamic and repro.core.variance."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.oracle import exhaustive_oracle
from repro.core.search import CoarseToFineSearch
from repro.core.variance import estimate_distribution
from repro.hetero.cc import CcProblem
from repro.hetero.dynamic import best_dynamic_schedule, simulate_dynamic_spmm
from repro.hetero.spmm import SpmmProblem
from repro.platform.costmodel import PROFILE_SPGEMM
from repro.util.errors import ValidationError
from repro.workloads.band import banded_matrix
from tests.conftest import random_graph


@pytest.fixture()
def spmm(machine):
    return SpmmProblem(banded_matrix(1200, 15.0, rng=1), machine, name="band")


class TestDynamicScheduler:
    def test_all_chunks_assigned(self, spmm):
        r = simulate_dynamic_spmm(spmm, 100)
        assert r.cpu_chunks + r.gpu_chunks == r.n_chunks == 12
        assert 0.0 <= r.cpu_share_percent <= 100.0

    def test_timeline_consistent_with_total(self, spmm):
        r = simulate_dynamic_spmm(spmm, 100)
        assert r.timeline.total_ms == pytest.approx(r.total_ms)
        assert len(r.timeline) == r.n_chunks

    def test_no_device_double_booked(self, spmm):
        r = simulate_dynamic_spmm(spmm, 60)
        for resource in ("cpu", "gpu"):
            spans = sorted(
                (s for s in r.timeline.spans if s.resource == resource),
                key=lambda s: s.start_ms,
            )
            for a, b in zip(spans, spans[1:]):
                assert b.start_ms >= a.end_ms - 1e-9

    def test_single_chunk_runs_on_faster_device(self, spmm):
        r = simulate_dynamic_spmm(spmm, spmm.a.n_rows)
        assert r.n_chunks == 1
        assert r.cpu_chunks + r.gpu_chunks == 1

    def test_fine_chunks_pay_overhead(self, spmm):
        coarse = simulate_dynamic_spmm(spmm, 300)
        ultra_fine = simulate_dynamic_spmm(spmm, 2)
        assert ultra_fine.total_ms > coarse.total_ms

    def test_best_schedule_minimizes_over_grid(self, spmm):
        best = best_dynamic_schedule(spmm, chunk_grid=[10, 100, 600])
        for c in (10, 100, 600):
            assert best.total_ms <= simulate_dynamic_spmm(spmm, c).total_ms + 1e-9

    def test_competitive_with_static_on_uniform_band(self, spmm):
        oracle = exhaustive_oracle(spmm)
        best = best_dynamic_schedule(spmm)
        assert 0.5 * oracle.best_time_ms < best.total_ms < 2.0 * oracle.best_time_ms

    def test_rejects_bad_chunk(self, spmm):
        with pytest.raises(ValidationError):
            simulate_dynamic_spmm(spmm, 0)

    def test_chunks_priced_with_problem_profile(self, machine):
        # The static split and the dynamic baseline must price the same
        # kernel: a half-efficiency profile slows both down.
        a = banded_matrix(2000, 12.0, rng=3)
        slow = replace(
            PROFILE_SPGEMM,
            cpu_efficiency=PROFILE_SPGEMM.cpu_efficiency / 2,
            gpu_efficiency=PROFILE_SPGEMM.gpu_efficiency / 2,
        )
        fast = simulate_dynamic_spmm(SpmmProblem(a, machine), 100)
        halved = simulate_dynamic_spmm(SpmmProblem(a, machine, profile=slow), 100)
        assert halved.total_ms > 1.5 * fast.total_ms


class TestVariance:
    @pytest.fixture()
    def problem(self, machine):
        gen = np.random.default_rng(2)
        n = 2000
        u = np.arange(n - 1)
        cu = gen.integers(0, n - 1, size=2 * n)
        cv = np.minimum(cu + gen.integers(2, 10, size=2 * n), n - 1)
        keep = cu != cv
        from repro.graphs.graph import Graph

        g = Graph(n, np.concatenate([u, cu[keep]]), np.concatenate([u + 1, cv[keep]]))
        return CcProblem(g, machine)

    def test_distribution_summary(self, problem):
        dist = estimate_distribution(
            problem, CoarseToFineSearch(), draws=6, rng=3
        )
        assert dist.n_draws == 6
        assert dist.low <= dist.mean <= dist.high
        assert dist.spread >= 0.0
        assert dist.std >= 0.0

    def test_interval_contains_oracle_for_stable_problem(self, problem):
        oracle = exhaustive_oracle(problem)
        dist = estimate_distribution(
            problem, CoarseToFineSearch(), draws=8, rng=4
        )
        assert dist.low - 3.0 <= oracle.threshold <= dist.high + 3.0

    def test_larger_samples_do_not_increase_spread_much(self, problem):
        small = estimate_distribution(
            problem, CoarseToFineSearch(), draws=6, sample_size=12, rng=5
        )
        large = estimate_distribution(
            problem, CoarseToFineSearch(), draws=6, sample_size=300, rng=5
        )
        assert large.spread <= small.spread + 2.0

    def test_rejects_bad_params(self, problem):
        with pytest.raises(ValidationError):
            estimate_distribution(problem, CoarseToFineSearch(), draws=1)
        with pytest.raises(ValidationError):
            estimate_distribution(
                problem, CoarseToFineSearch(), draws=3, confidence=1.5
            )
