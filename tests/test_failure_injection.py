"""Failure injection: degenerate and pathological inputs across the stack.

Every problem class must either handle a degenerate instance gracefully
(empty, singleton, all-isolated, zero-work) or reject it with a
ValidationError — never crash with a bare numpy error or return NaN/inf.
"""

import math

import numpy as np
import pytest

from repro.core.autotune import autotune
from repro.core.cut_vector import coordinate_descent
from repro.core.framework import SamplingPartitioner
from repro.core.oracle import exhaustive_oracle
from repro.core.search import CoarseToFineSearch, GradientDescentSearch
from repro.graphs.graph import Graph
from repro.hetero.cc import CcProblem
from repro.hetero.dense_mm import DenseMmProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.multiway_cc import MultiwayCcProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import ClusterSpec
from repro.sparse.construct import from_dense, identity
from repro.sparse.csr import CsrMatrix
from repro.util.errors import ReproError


def empty_graph(n: int = 0) -> Graph:
    return Graph(n, np.array([], dtype=int), np.array([], dtype=int))


def empty_matrix(n: int) -> CsrMatrix:
    return from_dense(np.zeros((n, n)))


def finite(x: float) -> bool:
    return np.isfinite(x) and x >= 0.0


class TestDegenerateGraphs:
    def test_zero_vertex_graph(self, machine):
        p = CcProblem(empty_graph(0), machine)
        assert p.evaluate_ms(50.0) == 0.0
        assert p.run(50.0).n_components == 0

    def test_single_vertex_graph(self, machine):
        p = CcProblem(empty_graph(1), machine)
        for t in (0.0, 50.0, 100.0):
            assert finite(p.evaluate_ms(t))
        assert p.run(0.0).n_components == 1

    def test_all_isolated_vertices(self, machine):
        p = CcProblem(empty_graph(500), machine)
        oracle = exhaustive_oracle(p)
        assert finite(oracle.best_time_ms)
        assert p.run(oracle.threshold).n_components == 500

    def test_star_graph_hub_atomicity(self, machine):
        # One vertex adjacent to everything: the hub's traversal bounds the
        # CPU regardless of cut, and nothing may be NaN.
        n = 400
        g = Graph(n, np.zeros(n - 1, dtype=int), np.arange(1, n))
        p = CcProblem(g, machine)
        times = [p.evaluate_ms(float(t)) for t in range(0, 101, 10)]
        assert all(finite(t) for t in times)
        assert p.run(50.0).n_components == 1

    def test_two_vertex_sample(self, machine):
        g = empty_graph(100)
        p = CcProblem(g, machine)
        sub = p.sample(2, rng=0)
        assert finite(sub.evaluate_ms(50.0))

    def test_multiway_on_empty_graph(self, machine):
        p = MultiwayCcProblem(empty_graph(0), ClusterSpec.from_machine(machine, n_gpus=2))
        assert p.evaluate_ms([30.0, 60.0]) == 0.0

    def test_multiway_coordinate_descent_on_tiny_graph(self, machine):
        g = Graph(3, np.array([0]), np.array([1]))
        p = MultiwayCcProblem(g, ClusterSpec.from_machine(machine, n_gpus=2))
        vec, val, _ = coordinate_descent(p, max_sweeps=2)
        assert finite(val)


class TestDegenerateMatrices:
    def test_zero_matrix_spmm(self, machine):
        p = SpmmProblem(empty_matrix(50), machine)
        for r in (0.0, 50.0, 100.0):
            assert finite(p.evaluate_ms(r))
        assert p.run(50.0).product.nnz == 0

    def test_zero_matrix_oracle(self, machine):
        oracle = exhaustive_oracle(SpmmProblem(empty_matrix(30), machine))
        assert finite(oracle.best_time_ms)

    def test_identity_matrix_spmm(self, machine):
        p = SpmmProblem(identity(200), machine)
        result = p.run(40.0)
        assert result.product.allclose(identity(200))

    def test_single_row_matrix(self, machine):
        a = from_dense(np.array([[1.0, 2.0], [0.0, 0.0]]))
        p = SpmmProblem(a, machine)
        assert finite(p.evaluate_ms(50.0))

    def test_zero_matrix_hh(self, machine):
        p = HhCpuProblem(empty_matrix(40), machine)
        assert p.gpu_only_threshold() == 0.0
        assert finite(p.evaluate_ms(0.0))
        assert p.naive_static_threshold() == 0.0

    def test_uniform_density_hh_grid_is_tiny(self, machine):
        # Every row identical: the grid has exactly two meaningful cutoffs.
        a = from_dense(np.tril(np.ones((30, 30)))[:, ::-1] * 0 + np.eye(30))
        p = HhCpuProblem(from_dense(np.eye(30)), machine)
        grid = p.threshold_grid()
        assert grid.size == 2  # 0 and 1

    def test_one_monster_row_hh(self, machine):
        dense = np.zeros((100, 100))
        dense[0, :] = 1.0
        dense[np.arange(100), np.arange(100)] = 1.0
        p = HhCpuProblem(from_dense(dense), machine)
        oracle = exhaustive_oracle(p)
        assert finite(oracle.best_time_ms)

    def test_zero_dimension_dense(self, machine):
        p = DenseMmProblem(0, machine)
        assert p.evaluate_ms(50.0) == 0.0


class TestDegenerateSampling:
    def test_sampling_zero_work_matrix(self, machine):
        p = SpmmProblem(empty_matrix(60), machine)
        estimate = SamplingPartitioner(CoarseToFineSearch(), rng=0).estimate(p)
        assert 0.0 <= estimate.threshold <= 100.0
        assert finite(estimate.estimation_cost_ms)

    def test_sampling_isolated_graph(self, machine):
        p = CcProblem(empty_graph(400), machine)
        estimate = SamplingPartitioner(CoarseToFineSearch(), rng=1).estimate(p)
        assert 0.0 <= estimate.threshold <= 100.0

    def test_hh_sample_larger_than_matrix(self, machine):
        p = HhCpuProblem(identity(20), machine)
        sub = p.sample(50, rng=2)  # clamped to 20
        assert sub.a.n_rows == 20

    def test_gradient_descent_on_flat_landscape(self, machine):
        p = HhCpuProblem(identity(100), machine)
        est = SamplingPartitioner(GradientDescentSearch(), rng=3).estimate(p)
        assert finite(p.evaluate_ms(min(max(est.threshold, 0.0), 1.0)))

    def test_autotune_on_degenerates(self, machine):
        for problem in (
            CcProblem(empty_graph(200), machine),
            SpmmProblem(identity(100), machine),
            HhCpuProblem(identity(100), machine),
        ):
            tuned = autotune(problem, rng=4)
            assert finite(tuned.phase2_ms)


class TestErrorTypesAreLibraryErrors:
    """Every rejection must surface as a ReproError, never a bare numpy one."""

    def test_bad_inputs_raise_repro_errors(self, machine):
        cases = [
            lambda: CcProblem(empty_graph(10), machine).evaluate_ms(150.0),
            lambda: SpmmProblem(identity(10), machine).split_row(-1.0),
            lambda: HhCpuProblem(identity(10), machine).evaluate_ms(-2.0),
            lambda: MultiwayCcProblem(
                empty_graph(10), ClusterSpec.from_machine(machine, n_gpus=2)
            ).evaluate_ms([90.0, 10.0]),
            lambda: DenseMmProblem(10, machine).evaluate_ms(101.0),
        ]
        for case in cases:
            with pytest.raises(ReproError):
                case()
