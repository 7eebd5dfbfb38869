"""Scalar <-> batch pricing equivalence (docs/PERFORMANCE.md's contract).

``evaluate_many`` is a pure performance optimization: for every problem
that opts in, pricing a grid through the batched tables must agree with
the scalar ``evaluate_ms`` loop point for point (to 1e-9 relative — the
full-instance paths are bit-exact; the Hansen-Hurwitz sampled paths may
reorder one weighted sum) and must select the identical winning
threshold.  The searches and the oracle switch paths on
``has_batch_pricing``, so these tests are what lets the fast path replace
the scalar sweep everywhere without changing a single result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.oracle import exhaustive_oracle
from repro.core.problem import evaluate_grid, has_batch_pricing
from repro.core.search import (
    CoarseToFineSearch,
    ExhaustiveSearch,
    RaceCoarseSearch,
)
from repro.hetero.cc import CcProblem
from repro.hetero.dense_mm import DenseMmProblem
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.multiway_cc import MultiwayCcProblem, coordinate_descent
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import ClusterSpec
from repro.workloads.band import banded_matrix
from repro.workloads.scalefree import scalefree_matrix
from tests.conftest import random_graph, random_sparse
from tests.test_hetero_multiway import local_graph

#: Full-instance paths replicate the scalar arithmetic operation for
#: operation (bit-exact); the sampled scale-free path may reorder one
#: representation-weighted sum, so the contract is 1e-9 relative.
REL_TOL = 1e-9


class _ScalarOnlyView:
    """A problem with its ``evaluate_many`` hook hidden.

    Forces every search back onto the scalar path while delegating the
    rest of the protocol, so batch-vs-scalar runs differ in nothing but
    the pricing path.
    """

    def __init__(self, problem) -> None:
        self._problem = problem

    def __getattr__(self, attr: str):
        if attr == "evaluate_many":
            raise AttributeError(attr)
        return getattr(self._problem, attr)


def scalar_sweep(problem, grid: np.ndarray) -> np.ndarray:
    return np.array([problem.evaluate_ms(float(t)) for t in grid])


def first_strict_min(values: np.ndarray) -> int:
    """Index the searches' tie-break selects: the first strict minimum."""
    return int(np.argmin(values))


def assert_grid_equivalent(problem, grid=None) -> None:
    grid = (
        np.asarray(problem.threshold_grid(), dtype=np.float64)
        if grid is None
        else np.asarray(grid, dtype=np.float64)
    )
    assert has_batch_pricing(problem)
    batch = np.asarray(problem.evaluate_many(grid), dtype=np.float64)
    scalar = scalar_sweep(problem, grid)
    assert batch.shape == grid.shape
    np.testing.assert_allclose(batch, scalar, rtol=REL_TOL, atol=0.0)
    assert first_strict_min(batch) == first_strict_min(scalar)


class TestThresholdProblems:
    """One-threshold problems: full instances and sampled sub-problems."""

    @pytest.mark.parametrize("seed", [3, 19, 401])
    def test_cc_full_and_sampled(self, machine, seed):
        problem = CcProblem(random_graph(400, 900, seed=seed), machine)
        assert_grid_equivalent(problem)
        sub = problem.sample(150, rng=np.random.default_rng(seed))
        assert_grid_equivalent(sub)

    @pytest.mark.parametrize("seed", [5, 23, 77])
    def test_spmm_full_and_sampled(self, machine, seed):
        problem = SpmmProblem(random_sparse(150, 150, 0.08, seed=seed), machine)
        assert_grid_equivalent(problem)
        sub = problem.sample(60, rng=np.random.default_rng(seed))
        assert_grid_equivalent(sub)

    @pytest.mark.parametrize("seed", [1, 9])
    def test_hh_full(self, machine, seed):
        problem = HhCpuProblem(
            scalefree_matrix(500, 10.0, alpha=2.2, rng=seed), machine
        )
        assert_grid_equivalent(problem)

    @pytest.mark.parametrize("method", ["rows", "importance", "fold"])
    def test_hh_sampled_representation_weights(self, machine, method):
        # Sampled instances carry non-uniform representation weights
        # (Hansen-Hurwitz), the one path where the batched sum may reorder.
        problem = HhCpuProblem(
            scalefree_matrix(600, 11.0, alpha=2.3, rng=4),
            machine,
            sampling_method=method,
        )
        sub = problem.sample(150, rng=np.random.default_rng(42))
        assert_grid_equivalent(sub)

    def test_dense_mm(self, machine):
        assert_grid_equivalent(DenseMmProblem(256, machine))

    def test_off_grid_and_unsorted_thresholds(self, machine):
        # evaluate_many must not assume grid membership, ordering, or
        # uniqueness of its input thresholds.
        problem = SpmmProblem(random_sparse(120, 120, 0.1, seed=8), machine)
        ts = np.array([73.25, 0.0, 100.0, 12.5, 12.5, 99.9, 0.1])
        assert_grid_equivalent(problem, ts)

    def test_multidimensional_threshold_array(self, machine):
        problem = CcProblem(random_graph(300, 700, seed=6), machine)
        grid = np.asarray(problem.threshold_grid(), dtype=np.float64)
        ts = grid[:20].reshape(4, 5)
        batch = np.asarray(problem.evaluate_many(ts))
        assert batch.shape == (4, 5)
        np.testing.assert_allclose(
            batch.ravel(), scalar_sweep(problem, ts.ravel()), rtol=REL_TOL, atol=0.0
        )


class TestMultiwayProblems:
    """Vector-threshold problems: rows of non-decreasing cut vectors."""

    @staticmethod
    def random_vectors(n_gpus: int, count: int, seed: int) -> np.ndarray:
        gen = np.random.default_rng(seed)
        return np.sort(gen.integers(0, 101, size=(count, n_gpus)), axis=1).astype(
            np.float64
        )

    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_multiway_cc(self, machine, n_gpus):
        problem = MultiwayCcProblem(
            local_graph(1500, 1), ClusterSpec.from_machine(machine, n_gpus=n_gpus)
        )
        vectors = self.random_vectors(n_gpus, 40, seed=n_gpus)
        batch = np.asarray(problem.evaluate_many(vectors))
        scalar = np.array([problem.evaluate_ms(v) for v in vectors])
        np.testing.assert_allclose(batch, scalar, rtol=REL_TOL, atol=0.0)

    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_multiway_cc_sampled(self, machine, n_gpus):
        problem = MultiwayCcProblem(
            local_graph(1500, 2), ClusterSpec.from_machine(machine, n_gpus=n_gpus)
        )
        sub = problem.sample(400, rng=np.random.default_rng(7))
        vectors = self.random_vectors(n_gpus, 30, seed=10 + n_gpus)
        batch = np.asarray(sub.evaluate_many(vectors))
        scalar = np.array([sub.evaluate_ms(v) for v in vectors])
        np.testing.assert_allclose(batch, scalar, rtol=REL_TOL, atol=0.0)

    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_multiway_spmm(self, machine, n_gpus):
        problem = MultiwaySpmmProblem(
            banded_matrix(900, 12.0, rng=3),
            ClusterSpec.from_machine(machine, n_gpus=n_gpus),
        )
        vectors = self.random_vectors(n_gpus, 40, seed=20 + n_gpus)
        batch = np.asarray(problem.evaluate_many(vectors))
        scalar = np.array([problem.evaluate_ms(v) for v in vectors])
        np.testing.assert_allclose(batch, scalar, rtol=REL_TOL, atol=0.0)

    def test_coordinate_descent_matches_scalar_only(self, machine):
        problem = MultiwayCcProblem(
            local_graph(1200, 5), ClusterSpec.from_machine(machine, n_gpus=2)
        )
        batched = coordinate_descent(problem)
        scalar = coordinate_descent(_ScalarOnlyView(problem))
        assert batched == scalar  # vector, value, and evaluation count


class TestSearchPathEquivalence:
    """Every search must return identical results on either pricing path."""

    @pytest.mark.parametrize(
        "strategy",
        [ExhaustiveSearch(), CoarseToFineSearch(), RaceCoarseSearch()],
        ids=lambda s: type(s).__name__,
    )
    def test_cc_search(self, machine, strategy):
        problem = CcProblem(random_graph(350, 800, seed=13), machine)
        batched = strategy.minimize(problem)
        scalar = strategy.minimize(_ScalarOnlyView(problem))
        assert batched == scalar  # dataclass equality: every field, exactly

    @pytest.mark.parametrize(
        "strategy",
        [ExhaustiveSearch(), RaceCoarseSearch()],
        ids=lambda s: type(s).__name__,
    )
    def test_spmm_search(self, machine, strategy):
        problem = SpmmProblem(random_sparse(130, 130, 0.09, seed=17), machine)
        batched = strategy.minimize(problem)
        scalar = strategy.minimize(_ScalarOnlyView(problem))
        assert batched == scalar

    def test_oracle_matches_scalar_only_serial(self, machine):
        problem = SpmmProblem(random_sparse(110, 110, 0.1, seed=21), machine)
        assert exhaustive_oracle(problem) == exhaustive_oracle(
            _ScalarOnlyView(problem)
        )


class TestEvaluateGridDispatch:
    """The evaluate_grid chokepoint: dispatch, fallback, and validation."""

    def test_scalar_only_fallback(self):
        class ScalarOnly:
            name = "scalar-only"

            def evaluate_ms(self, threshold: float) -> float:
                return 1.0 + (float(threshold) - 3.0) ** 2

        problem = ScalarOnly()
        assert not has_batch_pricing(problem)
        grid = np.array([0.0, 2.0, 3.0, 7.0])
        np.testing.assert_array_equal(
            evaluate_grid(problem, grid), scalar_sweep(problem, grid)
        )

    def test_batched_dispatch(self, machine):
        problem = DenseMmProblem(128, machine)
        grid = np.asarray(problem.threshold_grid(), dtype=np.float64)
        np.testing.assert_array_equal(
            evaluate_grid(problem, grid), problem.evaluate_many(grid)
        )

    def test_shape_mismatch_rejected(self):
        class Broken:
            name = "broken"

            def evaluate_ms(self, threshold: float) -> float:
                return 1.0

            def evaluate_many(self, thresholds: np.ndarray) -> np.ndarray:
                return np.zeros(thresholds.size + 1)

        with pytest.raises(ValueError, match="evaluate_many returned shape"):
            evaluate_grid(Broken(), np.array([1.0, 2.0]))
