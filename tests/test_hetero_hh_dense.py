"""Tests for repro.hetero.hh_cpu (Algorithm 3) and repro.hetero.dense_mm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import SamplingPartitioner
from repro.core.oracle import exhaustive_oracle
from repro.core.search import CoarseToFineSearch, GradientDescentSearch
from repro.hetero.dense_mm import DenseMmProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.sparse.spgemm import spgemm
from repro.util.errors import ValidationError
from repro.workloads.scalefree import scalefree_matrix
from tests.conftest import random_sparse


def heaviest_rows_scan(problem: HhCpuProblem, target: float) -> float:
    """The scan ``naive_static_threshold`` ran itself before it delegated
    to ``threshold_for_cpu_share``."""
    order = np.argsort(problem._d_rows)[::-1]  # heaviest rows first
    work_sorted = problem._row_mults[order]
    total = problem._total_mults
    if total == 0:
        return 0.0
    shares = np.cumsum(work_sorted) / total
    k = int(np.searchsorted(shares, target, side="right"))
    if k == 0:
        return float(problem._d_rows.max())
    if k >= problem._d_rows.size:
        return 0.0
    return max(0.0, float(problem._d_rows[order[k - 1]]) - 1.0)


@pytest.fixture()
def sf_problem(machine):
    return HhCpuProblem(
        scalefree_matrix(800, 12.0, alpha=2.2, rng=1), machine, name="sf"
    )


class TestHhExecution:
    @pytest.mark.parametrize("t", [0.0, 5.0, 50.0])
    def test_four_phase_product_exact(self, machine, t):
        a = random_sparse(70, 70, 0.12, seed=2)
        problem = HhCpuProblem(a, machine)
        result = problem.run(t)
        assert np.allclose(result.product.to_dense(), spgemm(a, a).to_dense())

    def test_high_row_count_matches_threshold(self, machine):
        a = random_sparse(50, 50, 0.2, seed=3)
        problem = HhCpuProblem(a, machine)
        t = float(np.median(a.row_nnz()))
        result = problem.run(t)
        assert result.n_high_rows == int((a.row_nnz() > t).sum())

    def test_requires_square(self, machine):
        with pytest.raises(ValidationError):
            HhCpuProblem(random_sparse(4, 6, 0.5, seed=4), machine)

    def test_run_rejected_on_row_sample(self, sf_problem):
        sub = sf_problem.sample(30, rng=0)
        with pytest.raises(ValidationError):
            sub.run(2.0)


class TestHhPricing:
    def test_grid_is_density_axis(self, sf_problem):
        grid = sf_problem.threshold_grid()
        assert grid[0] == 0.0
        assert grid[-1] <= sf_problem._d_rows.max()
        assert grid.size <= 102

    def test_gpu_only_threshold_clears_all_rows(self, sf_problem):
        t = sf_problem.gpu_only_threshold()
        assert not np.any(sf_problem._d_rows > t)

    def test_interior_beats_both_extremes(self, sf_problem):
        oracle = exhaustive_oracle(sf_problem)
        assert oracle.best_time_ms <= sf_problem.evaluate_ms(0.0)
        assert oracle.best_time_ms <= sf_problem.evaluate_ms(
            sf_problem.gpu_only_threshold()
        )

    def test_work_split_conserved(self, sf_problem):
        # cpu2+cpu3+gpu2+gpu3 must always equal the total flops.
        total = 2.0 * sf_problem._total_mults
        for t in (0.0, 4.0, 20.0, 100.0):
            s = sf_problem._split(t)
            parts = sum(float(s[k].sum()) for k in ("cpu2", "cpu3", "gpu2", "gpu3"))
            assert parts == pytest.approx(total)

    def test_monster_row_bounds_cpu(self, machine):
        # A single massive row on the CPU cannot be split across threads.
        a = scalefree_matrix(500, 10.0, alpha=1.8, rng=5)
        problem = HhCpuProblem(a, machine)
        work = np.array([2.0 * problem._row_mults.max()])
        t_one = problem._cpu_chunked(work, np.ones(1))
        t_spread = problem._cpu_chunked(np.full(40, work[0] / 40), np.ones(40))
        assert t_one > t_spread

    def test_evaluate_matches_timeline(self, sf_problem):
        for t in (0.0, 10.0, sf_problem.gpu_only_threshold()):
            assert sf_problem.evaluate_ms(t) == pytest.approx(
                sf_problem.timeline(t).total_ms
            )

    def test_negative_threshold_rejected(self, sf_problem):
        with pytest.raises(ValidationError):
            sf_problem.evaluate_ms(-1.0)

    def test_naive_static_work_share(self, sf_problem, machine):
        t = sf_problem.naive_static_threshold()
        high = sf_problem._d_rows > t
        share = sf_problem._row_mults[high].sum() / sf_problem._total_mults
        # The high-row share must be near (at most a few points above) the
        # CPU peak fraction.
        assert share <= (1 - machine.gpu_peak_share) + 0.10

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(1, 120),
        st.integers(0, 2**16),
        st.sampled_from(["full", "rows", "importance", "fold"]),
    )
    def test_naive_static_is_the_replaced_scan(self, machine, n, seed, method):
        problem = HhCpuProblem(scalefree_matrix(n, 5.0, alpha=2.2, rng=seed), machine)
        if method != "full":
            problem = problem.sample(max(1, n // 4), rng=seed, method=method)
        target = 1.0 - problem.machine.gpu_peak_share
        assert problem.naive_static_threshold() == heaviest_rows_scan(problem, target)

    @pytest.mark.parametrize(
        "bad",
        [-1.0, np.nan, np.inf, 2.5],
        ids=["negative", "nan", "inf", "fractional"],
    )
    def test_b_density_must_hold_row_nnz_counts(self, sf_problem, bad):
        # Batch pricing keys each nonzero on its integer contribution, so a
        # density vector that is not a row-nnz vector fails at construction.
        a = sf_problem.a.select_rows(np.arange(10))
        density = sf_problem.a.row_nnz().astype(np.float64)
        density[3] = bad
        with pytest.raises(ValidationError, match="b_density"):
            HhCpuProblem(a, sf_problem.machine, b_density=density)
        with pytest.raises(ValidationError, match="b_density"):
            HhCpuProblem(a, sf_problem.machine, b_density=np.full_like(density, bad))


class TestHhSampling:
    def test_row_sample_keeps_density_axis(self, sf_problem):
        sub = sf_problem.sample(40, rng=1)
        parent_densities = set(sf_problem._d_rows.tolist())
        assert set(sub._d_rows.tolist()) <= parent_densities

    def test_sample_scale_and_machine(self, sf_problem):
        sub = sf_problem.sample(40, rng=2)
        assert sub.work_scale == pytest.approx(800 / 40)
        assert sub.machine.cpu.kernel_launch_us == 0.0

    def test_default_sample_size_sqrt(self, sf_problem):
        assert sf_problem.default_sample_size() == 28  # isqrt(800)

    def test_extrapolation_context(self, sf_problem):
        ctx = sf_problem.extrapolation_context(28)
        assert ctx["sample_dimension"] == 28
        assert ctx["dimension_ratio"] == pytest.approx(800 / 28)

    def test_probe_cost_small(self, sf_problem):
        sub = sf_problem.sample(28, rng=3)
        assert 0.0 < sub.probe_cost_ms() < sf_problem.evaluate_ms(0.0)

    def test_estimate_when_the_sample_keeps_every_row(self, machine):
        # Regression: the default sample of a two-row input keeps both rows,
        # so it scales nothing; probe_cost_ms refused it and estimate raised.
        problem = HhCpuProblem(random_sparse(2, 2, 0.9, seed=1), machine)
        assert not problem.sample(problem.default_sample_size(), rng=0).is_sample
        partitioner = SamplingPartitioner(GradientDescentSearch(), rng=7)
        est = partitioner.estimate(problem)
        assert np.isfinite(est.threshold)
        assert est.estimation_cost_ms > 0.0

    def test_estimate_tracks_oracle(self, machine):
        a = scalefree_matrix(3000, 15.0, alpha=2.3, rng=6)
        problem = HhCpuProblem(a, machine)
        oracle = exhaustive_oracle(problem)
        est = SamplingPartitioner(GradientDescentSearch(), rng=8).estimate(problem)
        t = min(max(est.threshold, 0.0), problem.gpu_only_threshold())
        slowdown = problem.evaluate_ms(t) / oracle.best_time_ms
        assert slowdown < 1.35


class TestDenseMm:
    def test_product_exact(self, machine):
        problem = DenseMmProblem(50, machine)
        result = problem.run(40.0, rng=0)
        assert result.product.shape == (50, 50)

    def test_static_close_to_oracle(self, machine):
        problem = DenseMmProblem(4096, machine)
        oracle = exhaustive_oracle(problem)
        gap = abs(problem.naive_static_threshold() - oracle.threshold)
        assert gap <= 5.0  # the Figure-1 claim

    def test_sampling_estimate_matches_oracle(self, machine):
        problem = DenseMmProblem(2048, machine)
        oracle = exhaustive_oracle(problem)
        est = SamplingPartitioner(CoarseToFineSearch(), rng=1).estimate(problem)
        assert abs(est.threshold - oracle.threshold) <= 2.0

    def test_times_scale_superquadratically(self, machine):
        # Compute is cubic, the result transfer quadratic: doubling n must
        # cost between 4x and 8x.
        t1 = DenseMmProblem(1000, machine).evaluate_ms(0.0)
        t2 = DenseMmProblem(2000, machine).evaluate_ms(0.0)
        assert 4.0 < t2 / t1 <= 8.0

    def test_rejects_negative_dimension(self, machine):
        with pytest.raises(ValidationError):
            DenseMmProblem(-1, machine)

    def test_threshold_bounds(self, machine):
        problem = DenseMmProblem(100, machine)
        with pytest.raises(ValidationError):
            problem.evaluate_ms(120.0)
