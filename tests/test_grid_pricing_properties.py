"""Whole-grid batch pricing properties for the spmm, dense-mm and multiway
spmm problems.

``tests/test_batch_pricing.py`` checks these pricers on fixed seeds, and
``tests/test_analysis_hazards.py`` checks one-row batches.  Here a
generated full instance prices its whole candidate set in one
``evaluate_many`` call: the 101-point ``threshold_grid()`` for spmm and
dense-mm, a cut-vector lattice for multiway spmm.  Each answer must equal
the scalar ``evaluate_ms`` at the same point bit for bit (the full-instance
contract in docs/PERFORMANCE.md §3).  The hh pricer has its own file,
``tests/test_pricing_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.cut_vector import cut_vector_lattice
from repro.hetero.dense_mm import DenseMmProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import cluster_testbed
from repro.platform.machine import paper_testbed
from tests.conftest import random_sparse

#: Derandomized, so CI runs the same examples every time.
CI = settings(max_examples=150, deadline=None, derandomize=True)

MACHINE = paper_testbed(time_scale=1 / 16)


def assert_grid_bitwise(problem, grid: np.ndarray) -> None:
    batch = problem.evaluate_many(grid)
    scalar = np.array([problem.evaluate_ms(point) for point in grid.tolist()])
    assert batch.shape == (len(grid),)
    assert batch.tobytes() == scalar.tobytes()


@st.composite
def square_matrices(draw):
    """Square random patterns, empty ones included, at a few densities."""
    n = draw(st.integers(1, 60))
    density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.4]))
    return random_sparse(n, n, density, seed=draw(st.integers(0, 2**16)))


@CI
@given(square_matrices())
def test_spmm_whole_grid(a):
    problem = SpmmProblem(a, MACHINE)
    assert_grid_bitwise(problem, problem.threshold_grid())


@CI
@given(st.integers(0, 600), st.sampled_from([1 / 16, 1 / 64, 1.0]))
@example(0, 1 / 16)
def test_dense_mm_whole_grid(n, time_scale):
    problem = DenseMmProblem(n, paper_testbed(time_scale=time_scale))
    assert_grid_bitwise(problem, problem.threshold_grid())


@CI
@given(
    square_matrices(),
    st.sampled_from([(1, 1), (2, 5), (3, 10)]),
    st.sampled_from(["shared", "dedicated"]),
    st.booleans(),
)
def test_multiway_spmm_whole_lattice(a, shape, topology, mixed):
    n_gpus, stride = shape
    cluster = cluster_testbed(
        n_gpus=n_gpus, time_scale=1 / 16, topology=topology, mixed=mixed
    )
    problem = MultiwaySpmmProblem(a, cluster)
    lattice = cut_vector_lattice(n_gpus, stride)
    batch = problem.evaluate_many(lattice)
    scalar = np.array([problem.evaluate_ms(list(v)) for v in lattice])
    assert batch.shape == (len(lattice),)
    assert batch.tobytes() == scalar.tobytes()
