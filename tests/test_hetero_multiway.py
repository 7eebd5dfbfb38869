"""Tests for repro.hetero.multiway_cc — the threshold-vector extension."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graphs.components import components_union_find, count_components
from repro.graphs.graph import Graph
from repro.graphs.partition import CutProfile
from repro.hetero.cc import CcProblem
from repro.core.cut_vector import coordinate_descent
from repro.hetero.multiway_cc import MultiwayCcProblem, RangeCutProfile
from repro.platform.cluster import ClusterSpec
from repro.platform.machine import paper_testbed
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


class TestVectorPricing:
    def test_vector_validated(self, problem):
        with pytest.raises(ValidationError):
            problem.evaluate_ms([50.0])  # wrong arity
        with pytest.raises(ValidationError):
            problem.evaluate_ms([70.0, 30.0])  # decreasing
        with pytest.raises(ValidationError):
            problem.evaluate_ms([10.0, 120.0])  # out of range

    def test_degenerate_vectors_match_scalar_problem(self, problem):
        # A p=2 cluster runs the scalar problem's own vertex-range kernel.
        # With 100 dividing n both geometries pick the same vertex cut at
        # every grid point (GPU share t is CPU cut 100 - t), so prices,
        # spans (up to lane names) and labels agree bit for bit, on the
        # full instance and on its sampled miniature.
        machine = paper_testbed(time_scale=3.7)
        grid = np.arange(0.0, 101.0)
        for topology in ("shared", "dedicated"):
            cluster = ClusterSpec.from_machine(machine, topology=topology)
            lane = {"gpu": "gpu0", "pcie": cluster.interconnect.resource_for(1)}
            label = {
                "phase2/cc-gpu-sv": "phase2/cc-gpu0-sv",
                "phase2/h2d-cpu-labels": "phase2/h2d-labels",
            }
            scalar = CcProblem(problem.graph, machine)
            multi = MultiwayCcProblem(problem.graph, cluster)
            pairs = [
                (scalar, multi),
                (scalar.sample(500, rng=7), multi.sample(500, rng=7)),
            ]
            for scalar, multi in pairs:
                assert [multi.evaluate_ms([100.0 - t]) for t in grid] == [
                    scalar.evaluate_ms(t) for t in grid
                ]
                assert (
                    multi.evaluate_many((100.0 - grid)[:, None]).tobytes()
                    == scalar.evaluate_many(grid).tobytes()
                )
                for t in grid:
                    expected = [
                        (
                            lane.get(s.resource, s.resource),
                            label.get(s.label, s.label),
                            s.start_ms,
                            s.duration_ms,
                        )
                        for s in scalar.timeline(t).spans
                    ]
                    got = [
                        (s.resource, s.label, s.start_ms, s.duration_ms)
                        for s in multi.timeline([100.0 - t]).spans
                    ]
                    assert got == expected
                    assert np.array_equal(
                        multi.run([100.0 - t]).labels, scalar.run(t).labels
                    )

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


@st.composite
def raw_edge_lists(draw, max_n=40):
    """``(n, pairs)``: an edge list that may repeat edges and hold self loops."""
    n = draw(st.integers(0, max_n))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = draw(
        st.lists(st.tuples(vertex, vertex), max_size=0 if n == 0 else 3 * n)
    )
    return n, pairs


def _as_graph(n, pairs) -> Graph:
    """Duplicates fold in the Graph constructor; self loops are dropped the
    way ``Dataset.as_graph`` drops the matrix diagonal."""
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    keep = u != v
    return Graph(n, u[keep], v[keep])


def _spans(timeline, lane=None, label=None):
    lane, label = lane or {}, label or {}
    return [
        (
            lane.get(s.resource, s.resource),
            label.get(s.label, s.label),
            s.start_ms,
            s.duration_ms,
        )
        for s in timeline.spans
    ]


class TestP2Property:
    """Generative check of the p=2 fold on degenerate graphs."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edges=raw_edge_lists(), sampled=st.booleans())
    @example(edges=(0, []), sampled=False)
    @example(edges=(1, [(0, 0)]), sampled=True)
    @example(edges=(7, []), sampled=True)  # every vertex isolated
    @example(edges=(5, [(0, 1), (1, 0), (1, 1), (3, 4), (0, 1)]), sampled=False)
    def test_p2_multiway_equals_scalar_at_same_cut(self, edges, sampled):
        graph = _as_graph(*edges)
        machine = paper_testbed(time_scale=3.7)
        scalar = CcProblem(graph, machine)
        multi = MultiwayCcProblem(graph, ClusterSpec.from_machine(machine))
        if sampled and graph.n:
            size = scalar.default_sample_size()
            scalar, multi = scalar.sample(size, rng=3), multi.sample(size, rng=3)
        n = multi.graph.n
        grid = np.arange(0.0, 101.0)
        # The scalar cuts at n - round(n t / 100), the vector at round(n c / 100).
        share_at_cut = {scalar._cut_index(t): t for t in grid}
        lane = {"gpu": "gpu0"}
        label = {
            "phase2/cc-gpu-sv": "phase2/cc-gpu0-sv",
            "phase2/h2d-cpu-labels": "phase2/h2d-labels",
        }
        for c in grid:
            t = share_at_cut.get(int(round(n * c / 100.0)))
            if t is None:
                continue
            assert multi.evaluate_ms([c]) == scalar.evaluate_ms(t)
            expected = _spans(scalar.timeline(t), lane, label)
            assert _spans(multi.timeline([c])) == expected
        for k, t in share_at_cut.items():
            c = next(c for c in grid if int(round(n * c / 100.0)) == k)
            assert np.array_equal(multi.run([c]).labels, scalar.run(t).labels)
        # Batched pricing equals the scalar Timeline for both classes.
        assert scalar.evaluate_many(grid).tobytes() == np.array(
            [scalar.evaluate_ms(t) for t in grid]
        ).tobytes()
        assert multi.evaluate_many(grid[:, None]).tobytes() == np.array(
            [multi.evaluate_ms([c]) for c in grid]
        ).tobytes()
