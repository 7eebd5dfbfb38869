"""Tests for repro.hetero.multiway_cc — the threshold-vector extension."""

import numpy as np
import pytest

from repro.graphs.components import components_union_find, count_components
from repro.graphs.graph import Graph
from repro.graphs.partition import CutProfile
from repro.hetero.cc import CcProblem
from repro.hetero.multiway_cc import (
    MultiwayCcProblem,
    RangeCutProfile,
    coordinate_descent,
)
from repro.platform.cluster import ClusterSpec
from repro.util.errors import ValidationError
from tests.conftest import random_graph


def local_graph(n: int, seed: int) -> Graph:
    """Path plus short chords: spatially local, one component."""
    gen = np.random.default_rng(seed)
    u = np.arange(n - 1)
    cu = gen.integers(0, n - 1, size=2 * n)
    cv = np.minimum(cu + gen.integers(2, 12, size=2 * n), n - 1)
    keep = cu != cv
    return Graph(n, np.concatenate([u, cu[keep]]), np.concatenate([u + 1, cv[keep]]))


@pytest.fixture()
def problem(machine):
    return MultiwayCcProblem(
        local_graph(3000, 1), ClusterSpec.from_machine(machine, n_gpus=2)
    )


class TestRangeCutProfile:
    def test_within_matches_scalar_profile(self):
        g = random_graph(200, 300, seed=2)
        rp = RangeCutProfile(g)
        sp = CutProfile(g)
        for pct in (0, 10, 47, 80, 100):
            k = rp.cut_index(pct)
            assert rp.within(0, pct) == sp.m_cpu(k)
            assert rp.within(pct, 100) == sp.m_gpu(k)

    def test_ranges_partition_edges_plus_cross(self):
        g = random_graph(150, 250, seed=3)
        rp = RangeCutProfile(g)
        for cuts in [(30, 70), (10, 10), (0, 100), (50, 50)]:
            a, b = cuts
            within = rp.within(0, a) + rp.within(a, b) + rp.within(b, 100)
            assert within <= g.m
        assert rp.within(0, 100) == g.m

    def test_empty_range(self):
        g = random_graph(50, 80, seed=4)
        assert RangeCutProfile(g).within(40, 40) == 0

    def test_bad_range_rejected(self):
        g = random_graph(20, 30, seed=5)
        with pytest.raises(ValidationError):
            RangeCutProfile(g).within(50, 40)

    def test_degree_sum(self):
        g = random_graph(100, 160, seed=6)
        rp = RangeCutProfile(g)
        degs = g.degrees()
        a, b = rp.cut_index(20), rp.cut_index(70)
        assert rp.degree_sum(20, 70) == degs[a:b].sum()


class TestVectorPricing:
    def test_vector_validated(self, problem):
        with pytest.raises(ValidationError):
            problem.evaluate_ms([50.0])  # wrong arity
        with pytest.raises(ValidationError):
            problem.evaluate_ms([70.0, 30.0])  # decreasing
        with pytest.raises(ValidationError):
            problem.evaluate_ms([10.0, 120.0])  # out of range

    def test_degenerate_vectors_match_scalar_problem(self, problem, machine):
        # (t, 100) gives GPU 1 everything above t and GPU 2 nothing — the
        # same computation as the scalar problem at gpu share 100 - t.
        scalar = CcProblem(problem.graph, machine)
        multi = problem.evaluate_ms([11.0, 100.0])
        single = scalar.evaluate_ms(89.0)
        assert multi == pytest.approx(single, rel=0.05)

    def test_two_gpus_beat_one_on_local_graph(self, problem):
        one_gpu = problem.evaluate_ms([11.0, 100.0])
        best, val, _ = coordinate_descent(problem)
        assert val < one_gpu

    def test_evaluate_matches_timeline(self, problem):
        for vec in ([0.0, 50.0], [10.0, 55.0], [100.0, 100.0]):
            assert problem.evaluate_ms(vec) == pytest.approx(
                problem.timeline(vec).total_ms
            )

    def test_naive_static_vector_monotone(self, problem):
        vec = problem.naive_static_thresholds()
        assert len(vec) == 2
        assert 0 <= vec[0] <= vec[1] <= 100

    def test_rejects_bad_construction(self, machine):
        with pytest.raises(ValidationError):
            MultiwayCcProblem(
                local_graph(100, 7), ClusterSpec.from_machine(machine, n_gpus=0)
            )


class TestCoordinateDescent:
    def test_improves_on_start(self, problem):
        start = (50.0, 75.0)
        best, val, evals = coordinate_descent(problem, start=start)
        assert val <= problem.evaluate_ms(start)
        assert evals > 0

    def test_result_vector_valid(self, problem):
        best, _, _ = coordinate_descent(problem)
        assert list(best) == sorted(best)
        assert all(0 <= t <= 100 for t in best)


class TestExecution:
    @pytest.mark.parametrize("vec", [(0.0, 0.0), (10.0, 55.0), (33.0, 66.0), (100.0, 100.0)])
    def test_components_correct(self, machine, vec):
        g = random_graph(400, 700, seed=8)
        problem = MultiwayCcProblem(g, ClusterSpec.from_machine(machine, n_gpus=2))
        result = problem.run(vec)
        assert result.n_components == count_components(components_union_find(g))

    def test_labels_match_reference(self, machine):
        g = random_graph(300, 500, seed=9)
        problem = MultiwayCcProblem(g, ClusterSpec.from_machine(machine, n_gpus=3))
        result = problem.run([20.0, 40.0, 70.0])
        assert np.array_equal(result.labels, components_union_find(g))


class TestSampling:
    def test_sample_estimate_near_full_optimum(self, problem):
        sub = problem.sample(problem.default_sample_size(), rng=2)
        assert sub.n_gpus == problem.n_gpus
        est, _, _ = coordinate_descent(sub)
        best, best_val, _ = coordinate_descent(problem)
        est_val = problem.evaluate_ms(est)
        assert est_val <= 1.3 * best_val

    def test_sampling_cost_positive(self, problem):
        assert problem.sampling_cost_ms(50) > 0
