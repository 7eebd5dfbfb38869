"""Tests for repro.hetero.spmm — Algorithm 2."""

import numpy as np
import pytest

from repro.core.framework import SamplingPartitioner
from repro.core.oracle import exhaustive_oracle
from repro.core.search import RaceCoarseSearch
from repro.hetero.spmm import SpmmProblem
from repro.sparse.construct import random_uniform
from repro.sparse.spgemm import load_vector, spgemm
from repro.util.errors import ValidationError
from repro.workloads.band import banded_matrix
from tests.conftest import random_sparse


@pytest.fixture()
def problem(machine):
    return SpmmProblem(banded_matrix(600, 10.0, rng=1), machine, name="band")


class TestSplitGeometry:
    def test_split_row_respects_work_share(self, problem):
        lv = problem._row_mults
        total = lv.sum()
        for r in (10.0, 30.0, 50.0, 80.0):
            i = problem.split_row(r)
            assert lv[:i].sum() >= (r / 100.0) * total - 1e-9
            if i > 0:
                assert lv[: i - 1].sum() < (r / 100.0) * total

    def test_split_boundaries(self, problem):
        assert problem.split_row(0.0) == 0
        assert problem.split_row(100.0) == problem.a.n_rows

    def test_split_rejects_out_of_range(self, problem):
        with pytest.raises(ValidationError):
            problem.split_row(101.0)


class TestExecution:
    @pytest.mark.parametrize("r", [0.0, 25.0, 50.0, 100.0])
    def test_partitioned_product_is_exact(self, machine, r):
        a = random_sparse(80, 80, 0.1, seed=2)
        problem = SpmmProblem(a, machine)
        result = problem.run(r)
        assert result.product.allclose(spgemm(a, a))

    def test_split_row_reported(self, machine):
        a = random_sparse(60, 60, 0.1, seed=3)
        result = SpmmProblem(a, machine).run(40.0)
        assert 0 <= result.split_row <= 60
        assert result.total_ms > 0

    def test_rejects_incompatible_explicit_b(self, machine):
        a = random_sparse(10, 10, 0.3, seed=4)
        b = random_sparse(20, 20, 0.3, seed=5)
        with pytest.raises(ValidationError):
            SpmmProblem(a, machine, b=b)


class TestPricing:
    def test_evaluate_matches_timeline(self, problem):
        for r in (0.0, 31.0, 70.0, 100.0):
            assert problem.evaluate_ms(r) == pytest.approx(
                problem.timeline(r).total_ms
            )

    def test_gpu_only_has_result_transfer(self, problem):
        tl = problem.timeline(0.0)
        assert any(s.resource == "pcie" for s in tl.spans)

    def test_cpu_only_has_no_gpu_or_transfer(self, problem):
        tl = problem.timeline(100.0)
        assert all(s.resource == "cpu" for s in tl.spans)

    def test_interior_optimum_for_band(self, machine):
        # Banded matrices have uniform work: balance should land between
        # pure-CPU and pure-GPU.
        problem = SpmmProblem(banded_matrix(2000, 25.0, rng=6), machine)
        oracle = exhaustive_oracle(problem)
        assert 10.0 < oracle.threshold < 60.0

    def test_ultrasparse_rows_favor_cpu(self, machine):
        # Rows with ~2 nonzeros waste a GPU warp quantum each; the optimum
        # shifts far toward the CPU relative to a dense-band instance.
        thin = SpmmProblem(random_uniform(3000, 3000, 2.0, rng=7), machine)
        band = SpmmProblem(banded_matrix(3000, 25.0, rng=8), machine)
        assert exhaustive_oracle(thin).threshold > exhaustive_oracle(band).threshold

    def test_naive_static_matches_flops_ratio(self, problem, machine):
        assert problem.naive_static_threshold() == pytest.approx(
            100.0 * (1 - machine.gpu_peak_share)
        )

    def test_phase1_setup_positive(self, problem):
        assert problem.phase1_setup_ms() > 0.0


class TestSamplingAndRace:
    def test_sample_is_principal_submatrix(self, problem):
        sub = problem.sample(150, rng=0)
        assert sub.a.shape == (150, 150)
        assert sub.work_scale == pytest.approx((600 / 150) ** 3)
        assert sub.row_scale == pytest.approx((600 / 150) ** 2)
        assert sub.machine.gpu.kernel_launch_us == 0.0

    def test_default_sample_is_quarter(self, problem):
        assert problem.default_sample_size() == 150

    def test_race_probe_reasonable(self, problem):
        sub = problem.sample(150, rng=1)
        threshold, cost = sub.race_probe()
        assert 0.0 <= threshold <= 100.0
        assert cost > 0.0

    def test_race_probe_balances_rates(self, problem):
        # The probe's threshold must equalize the two devices' times.
        sub = problem.sample(150, rng=2)
        t, _ = sub.race_probe()
        k = sub.split_row(t)
        cpu = sub._cpu_ms(sub.machine.cpu, k)
        gpu = sub._gpu_ms(sub.machine.gpu, k, sub.a.n_rows)
        assert cpu == pytest.approx(gpu, rel=0.3)

    def test_probe_cost_unscaled(self, problem):
        sub = problem.sample(150, rng=3)
        # The probe's real cost is far below the scaled decision value.
        assert sub.probe_cost_ms() < sub.evaluate_ms(50.0)
        with pytest.raises(ValidationError):
            problem.probe_cost_ms()

    def test_estimate_when_the_sample_keeps_every_row(self, machine):
        # Regression: the default sample of a two-row input keeps both rows,
        # so it scales nothing; probe_cost_ms refused it and estimate raised.
        problem = SpmmProblem(random_sparse(2, 2, 0.9, seed=1), machine)
        assert not problem.sample(problem.default_sample_size(), rng=0).is_sample
        est = SamplingPartitioner(RaceCoarseSearch(), rng=7).estimate(problem)
        assert 0.0 <= est.threshold <= 100.0
        assert est.estimation_cost_ms > 0.0

    def test_deterministic_sample_positions(self, problem):
        b0 = problem.deterministic_sample(100, 0)
        b3 = problem.deterministic_sample(100, 3)
        assert b0.a.shape == (100, 100) and b3.a.shape == (100, 100)
        assert not np.array_equal(b0.a.indptr, b3.a.indptr) or not np.array_equal(
            b0.a.indices, b3.a.indices
        )


class TestEndToEnd:
    def test_estimate_tracks_oracle_on_band(self, machine):
        problem = SpmmProblem(banded_matrix(1600, 20.0, rng=9), machine)
        oracle = exhaustive_oracle(problem)
        est = SamplingPartitioner(RaceCoarseSearch(), rng=11).estimate(problem)
        assert abs(est.threshold - oracle.threshold) <= 10.0
        slowdown = problem.evaluate_ms(est.threshold) / oracle.best_time_ms
        assert slowdown < 1.25
