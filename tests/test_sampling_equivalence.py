"""Sampling equivalence: each sample-sized path against the path it replaced.

``Graph.subgraph`` gathers each kept vertex's run of the sorted edge list;
``CcProblem.round_block`` slices the edge list between two binary
searches; ``CcProblem.sample`` reads degrees from the cut profile's degree
prefix; and ``_restrict_columns`` maps columns through a position array
and builds its CSR without ``from_coo``.  Each must reproduce, array for
array and bit for bit, what the replaced code gave: the subgraph through
an n-entry vertex-position map (and, as a second reference, through two
``searchsorted`` passes), ``subgraph(arange(lo, hi))`` for a round block,
``Graph.degrees()`` for sample weights, and the ``searchsorted`` column
lookup fed to ``from_coo``.  Those stay here as references.  The inputs
include empty, single-vertex, all-vertex, isolated-vertex and
empty-column cases.  The work-count test pins the saving itself: a cold
fig3 or fig4 computes no full degree vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments import fig3_cc, fig4_cc_sensitivity
from repro.graphs.graph import Graph
from repro.hetero.cc import CcProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.machine import paper_testbed
from repro.sparse import sampling as sampling_module
from repro.sparse.construct import from_coo
from repro.sparse.sampling import _restrict_columns, deterministic_block, sample_submatrix
from repro.util.rng import as_generator
from tests.test_construction_equivalence import (
    assert_same_csr,
    assert_same_graph,
    dataset,
    eager_graph,
    patterns,
)
from tests.test_engine_determinism import BASE

MACHINE = paper_testbed(time_scale=3.7)
DATASETS = ["cant", "asia_osm", "webbase-1M"]


# -- the replaced implementations ------------------------------------------


def position_map_subgraph(graph, vs):
    """``Graph.subgraph`` through an n-entry vertex-position map."""
    vs = np.asarray(vs, dtype=np.int64)
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[vs] = np.arange(vs.size, dtype=np.int64)
    pos_u = pos[graph.edge_u]
    pos_v = pos[graph.edge_v]
    keep = (pos_u >= 0) & (pos_v >= 0)
    return eager_graph(vs.size, pos_u[keep], pos_v[keep])


def searchsorted_subgraph(graph, vs):
    """``Graph.subgraph`` through two ``searchsorted`` passes."""
    vs = np.asarray(vs, dtype=np.int64)
    if vs.size == 0:
        return eager_graph(0, np.empty(0, np.int64), np.empty(0, np.int64))
    pos_u = np.minimum(np.searchsorted(vs, graph.edge_u), vs.size - 1)
    pos_v = np.minimum(np.searchsorted(vs, graph.edge_v), vs.size - 1)
    keep = (vs[pos_u] == graph.edge_u) & (vs[pos_v] == graph.edge_v)
    return eager_graph(vs.size, pos_u[keep], pos_v[keep])


def degree_sample(problem, size, rng, method):
    """``CcProblem.sample``'s draw and weights from ``Graph.degrees()``.

    Returns the kept vertices, their weights (``None`` for ``literal``)
    and the represented work (``None`` unless ``importance``).
    """
    graph = problem.graph
    size = min(size, graph.n)
    gen = as_generator(rng)
    degrees = graph.degrees().astype(np.float64)
    rep = None
    if method == "importance":
        work = 1.0 + degrees
        keys = gen.random(graph.n) ** (1.0 / work)
        vs = np.sort(np.argpartition(keys, -size)[-size:])
        p = work / work.sum()
        rep = work[vs] / (size * p[vs])
    else:
        vs = np.sort(gen.choice(graph.n, size=size, replace=False))
    return vs, None if method == "literal" else degrees[vs], rep


def searchsorted_restrict(a, cols_sel):
    """``_restrict_columns`` through ``searchsorted`` and ``from_coo``."""
    if cols_sel.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return from_coo(empty, empty, np.empty(0), (a.n_rows, 0))
    pos = np.searchsorted(cols_sel, a.indices)
    pos_clip = np.minimum(pos, cols_sel.size - 1)
    keep = cols_sel[pos_clip] == a.indices
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())[keep]
    return from_coo(rows, pos_clip[keep], a.data[keep], (a.n_rows, cols_sel.size))


# -- comparison helpers -----------------------------------------------------


def assert_same_subgraph(graph, vs):
    """``graph.subgraph(vs)`` equals both references."""
    for reference in (position_map_subgraph, searchsorted_subgraph):
        assert_same_graph(graph.subgraph(vs), reference(graph, vs))


def as_csr_arrays(matrix):
    return matrix.indptr, matrix.indices, matrix.data


# -- strategies -------------------------------------------------------------


@st.composite
def graphs(draw, min_n=0):
    """A graph of up to 30 vertices (some isolated) from a raw edge list."""
    n = draw(st.integers(min_n, 30))
    pairs = []
    if n >= 2:
        vertex = st.integers(0, n - 1)
        pairs = draw(
            st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=80)
        )
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    return Graph(n, u, v)


@st.composite
def graphs_and_vertices(draw):
    """A graph and a sorted, unique vertex subset of it."""
    graph = draw(graphs())
    chosen = draw(st.lists(st.booleans(), min_size=graph.n, max_size=graph.n))
    return graph, np.flatnonzero(chosen)


@st.composite
def graphs_and_blocks(draw):
    """A graph of at least one vertex and a vertex block ``[lo, hi)``."""
    graph = draw(graphs(min_n=1))
    lo = draw(st.integers(0, graph.n - 1))
    hi = draw(st.integers(lo + 1, graph.n))
    return graph, lo, hi


@st.composite
def matrices_and_columns(draw):
    """A sparse pattern (empty rows and columns, explicit zeros, maybe one
    dense row) and a sorted, unique column subset."""
    n_rows = draw(st.integers(0, 9))
    n_cols = draw(st.integers(0, 9))
    a = draw(patterns(n_rows, n_cols, dense_row=draw(st.booleans())))
    chosen = draw(st.lists(st.booleans(), min_size=n_cols, max_size=n_cols))
    return a, np.flatnonzero(chosen)


def _path(n):
    return Graph(n, np.arange(n - 1), np.arange(1, n))


#: A path on 0..3 plus isolated vertices 4 and 5.
_ISOLATED = Graph(6, np.array([0, 1, 2]), np.array([1, 2, 3]))


def _matrix(dense):
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense != 0)
    return from_coo(rows, cols, dense[rows, cols], dense.shape)


# -- Graph.subgraph ---------------------------------------------------------


class TestSubgraph:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graphs_and_vertices())
    @example((_path(5), np.empty(0, dtype=np.int64)))  # empty
    @example((_path(5), np.array([2])))  # one vertex
    @example((_path(5), np.arange(5)))  # every vertex
    @example((Graph(1, np.empty(0), np.empty(0)), np.array([0])))  # n = 1
    @example((_ISOLATED, np.array([3, 4, 5])))  # isolated vertices kept
    @example((_ISOLATED, np.array([0, 2, 4])))  # no edge survives
    def test_matches_searchsorted(self, case):
        assert_same_subgraph(*case)

    @pytest.mark.parametrize("name", DATASETS)
    def test_dataset_samples(self, name):
        graph = dataset(name, 1 / 64).as_graph()
        rng = np.random.default_rng(5)
        root = int(np.sqrt(graph.n))
        samples = [
            np.empty(0, dtype=np.int64),
            np.array([graph.n // 2]),
            np.arange(graph.n),
            np.sort(rng.choice(graph.n, size=root, replace=False)),
            np.sort(rng.choice(graph.n, size=4 * root, replace=False)),
            np.sort(rng.choice(graph.n, size=graph.n // 2, replace=False)),
        ]
        for vs in samples:
            assert_same_subgraph(graph, vs)


# -- CcProblem.round_block --------------------------------------------------


class TestRoundBlock:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graphs_and_blocks())
    @example((_path(5), 0, 5))  # the whole graph
    @example((_path(5), 2, 3))  # one vertex
    @example((Graph(1, np.empty(0), np.empty(0)), 0, 1))  # n = 1
    @example((_ISOLATED, 4, 6))  # isolated vertices only
    @example((_ISOLATED, 3, 5))  # edges end inside, start outside
    def test_matches_subgraph_of_the_range(self, case):
        graph, lo, hi = case
        block = CcProblem(graph, MACHINE).round_block(lo, hi)
        vs = np.arange(lo, hi)
        assert_same_graph(block.graph, position_map_subgraph(graph, vs))
        assert_same_graph(graph.subgraph(vs), position_map_subgraph(graph, vs))

    def test_dataset_rounds(self):
        graph = dataset("netherlands_osm", 1 / 64).as_graph()
        problem = CcProblem(graph, MACHINE)
        bounds = np.linspace(0, graph.n, 5).astype(int)
        for lo, hi in [*zip(bounds[:-1], bounds[1:]), (0, graph.n), (7, 8)]:
            vs = np.arange(lo, hi)
            assert_same_graph(
                problem.round_block(lo, hi).graph, position_map_subgraph(graph, vs)
            )


# -- CcProblem.sample -------------------------------------------------------


def assert_same_sample(problem, size, seed, method):
    """The sample equals one drawn with ``Graph.degrees()`` weights."""
    sample = problem.sample(size, rng=seed, method=method)
    vs, weights, rep = degree_sample(problem, size, seed, method)
    assert_same_graph(sample.graph, position_map_subgraph(problem.graph, vs))
    if weights is None:
        assert sample.vertex_weights is None
        return
    assert sample.vertex_weights.tobytes() == weights.tobytes()
    reference = CcProblem(
        sample.graph,
        sample.machine,
        vertex_weights=weights,
        work_scale=sample.work_scale,
        rep_work=rep,
    )
    grid = np.arange(0.0, 101.0)
    assert sample.evaluate_many(grid).tobytes() == reference.evaluate_many(grid).tobytes()


class TestSampleWeights:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        graphs(min_n=1),
        st.sampled_from(["uniform", "importance", "literal"]),
        st.integers(0, 3),
        st.integers(1, 9),
    )
    @example(Graph(1, np.empty(0), np.empty(0)), "uniform", 0, 1)  # n = 1
    @example(_ISOLATED, "importance", 1, 6)  # every vertex
    @example(_ISOLATED, "uniform", 2, 0)  # empty sample
    def test_weights_are_the_original_degrees(self, graph, method, seed, size):
        assert_same_sample(CcProblem(graph, MACHINE), size, seed, method)

    @pytest.mark.parametrize("method", ["uniform", "importance", "literal"])
    @pytest.mark.parametrize("name", DATASETS)
    def test_dataset_samples(self, name, method):
        problem = CcProblem(dataset(name, 1 / 64).as_graph(), MACHINE)
        for seed in (0, 1):
            assert_same_sample(problem, problem.default_sample_size(), seed, method)


# -- _restrict_columns ------------------------------------------------------


class TestRestrictColumns:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(matrices_and_columns())
    @example((_matrix(np.zeros((3, 0))), np.empty(0, dtype=np.int64)))  # no columns
    @example((_matrix(np.zeros((0, 4))), np.array([1, 3])))  # no rows
    @example((_matrix(np.zeros((4, 4))), np.array([0, 2])))  # no entries
    @example((_matrix(np.eye(1)), np.array([0])))  # n = 1
    @example((_matrix([[1, 0, 2], [0, 0, 0], [3, 0, 4]]), np.array([1])))  # empty column
    @example((_matrix([[1, 2, 3], [0, 0, 0], [4, 0, 5]]), np.arange(3)))  # every column
    @example((_matrix([[1, 2, 3], [0, 0, 0], [4, 0, 5]]), np.empty(0, np.int64)))
    def test_matches_searchsorted_and_from_coo(self, case):
        a, cols = case
        got = _restrict_columns(a, cols)
        assert got.shape == (a.n_rows, cols.size)
        assert_same_csr(got, as_csr_arrays(searchsorted_restrict(a, cols)))

    @pytest.mark.parametrize("name", ["cant", "pwtk", "webbase-1M"])
    def test_every_sampler_on_datasets(self, name, monkeypatch):
        a = dataset(name, 1 / 64).matrix
        size = a.n_rows // 4

        def samples():
            principal = SpmmProblem(a, MACHINE).sample(size, rng=3, method="principal")
            return [
                principal.a,
                sample_submatrix(a, size, rng=4),
                sample_submatrix(a, 0, rng=4),
                deterministic_block(a, size, 3),
                deterministic_block(a, a.n_rows, 0, grid=1),
            ]

        got = samples()
        monkeypatch.setattr(sampling_module, "_restrict_columns", searchsorted_restrict)
        for matrix, reference in zip(got, samples()):
            assert matrix.shape == reference.shape
            assert_same_csr(matrix, as_csr_arrays(reference))


# -- work counts ------------------------------------------------------------


class TestWorkCounts:
    @pytest.mark.parametrize("study", [fig3_cc, fig4_cc_sensitivity], ids=["fig3", "fig4"])
    def test_cold_cc_studies_compute_no_degree_vector(self, monkeypatch, study):
        counts = Counter()

        def counting(name, method):
            def wrapper(self, *args, **kwargs):
                counts[name] += 1
                return method(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(Graph, "degrees", counting("degrees", Graph.degrees))
        monkeypatch.setattr(CcProblem, "sample", counting("sample", CcProblem.sample))
        study.run(replace(BASE, cache_dir=None))
        assert counts["sample"] > 0
        assert counts["degrees"] == 0
