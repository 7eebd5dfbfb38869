"""Construction equivalence: each fast path against the path it replaced.

``from_coo`` sorts one packed int64 key in place (a stable argsort or
``np.lexsort`` for shapes too large to pack); ``CsrMatrix`` checks per-row order with one O(nnz)
mask; ``Graph`` sorts index pairs on one fused key; a Table II dataset's
graph is its CSR's strict upper triangle; and ``estimate_compression``
counts every sampled row's distinct output columns with stamps, without a
sort.  Each must reproduce, array for array and bit for bit, the two-key
``np.lexsort`` / ``np.isin`` / per-row ``np.unique`` implementation it
replaced; those stay here as references (the samplers' references live
in ``tests/test_sampling_equivalence.py``).  The Table II
generators must keep their patterns symmetric, which the upper-triangle
graph relies on.  The work-count tests pin the savings themselves: one
load vector and one compression estimate per operand, and no graph
adjacency that nothing reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import lru_cache
from importlib import import_module

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments import config as config_module, fig3_cc, fig4_cc_sensitivity
from repro.experiments import table1_summary
from repro.graphs.graph import Graph
from repro.hetero import hh_cpu as hh_module, spmm as spmm_module
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.spmm import SpmmProblem
from repro.sparse.construct import from_coo, from_dense
from repro.sparse.csr import CsrMatrix
from repro.sparse.io import write_matrix_market
from repro.sparse.spgemm import (
    estimate_compression,
    load_vector,
    self_compression,
    self_load_vector,
)
from repro.util.errors import ValidationError
from repro.util.pairs import packed_shift, pair_key
from repro.util.prefix import ranges_gather
from repro.util.rng import as_generator
from repro.workloads.dataset import Dataset, dataset_from_matrix_market
from repro.workloads.suite import dataset_names, load_dataset
from tests.test_engine_determinism import BASE

# ``repro.sparse.spgemm`` the module; the package re-exports the function
# under the same name.
spgemm_module = import_module("repro.sparse.spgemm")

SCALES = (1 / 16, 1 / 64)
DATASETS = [(name, scale) for scale in SCALES for name in dataset_names()]
DATASET_IDS = [f"{name}@1/{round(1 / scale)}" for name, scale in DATASETS]


# -- the replaced implementations ------------------------------------------


def lexsort_from_coo(rows, cols, vals, shape, sum_duplicates=True):
    """``from_coo`` as a two-key lexsort: ``(indptr, indices, data)``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if np.any(dup):
            if not sum_duplicates:
                raise ValidationError("duplicate coordinates present")
            first = np.concatenate(([True], ~dup))
            seg_ids = np.cumsum(first) - 1
            summed = np.zeros(int(seg_ids[-1]) + 1, dtype=np.float64)
            np.add.at(summed, seg_ids, vals)
            rows, cols, vals = rows[first], cols[first], summed
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return indptr, cols, vals


def isin_validate(indptr, indices, data, shape):
    """``CsrMatrix``'s checks with the ``np.isin`` order test: the message or None."""
    n_rows, n_cols = shape
    if n_rows < 0 or n_cols < 0:
        return f"negative shape {shape}"
    if indptr.ndim != 1 or indptr.size != n_rows + 1:
        return f"indptr must have {n_rows + 1} entries, got {indptr.size}"
    if indptr[0] != 0:
        return "indptr[0] must be 0"
    if np.any(np.diff(indptr) < 0):
        return "indptr must be non-decreasing"
    nnz = int(indptr[-1])
    if indices.shape != (nnz,) or data.shape != (nnz,):
        return f"indices/data must have {nnz} entries, got {indices.size}/{data.size}"
    if nnz:
        if int(indices.min()) < 0 or int(indices.max()) >= n_cols:
            return "column index out of range"
        descents = np.flatnonzero(np.diff(indices) <= 0) + 1
        if not np.all(np.isin(descents, indptr[1:-1])):
            return "column indices must be sorted and unique per row"
    return None


def lexsort_edges(u, v):
    """``Graph``'s canonical, deduplicated edge list by two-key lexsort."""
    lo = np.minimum(np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
    hi = np.maximum(np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
    if lo.size:
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        keep = np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
        lo, hi = lo[keep], hi[keep]
    return lo, hi


def eager_graph(n, u, v):
    """``Graph`` built eagerly: ``(edge_u, edge_v, indptr, adjacency)``."""
    lo, hi = lexsort_edges(u, v)
    both_src = np.concatenate([lo, hi])
    both_dst = np.concatenate([hi, lo])
    counts = np.bincount(both_src, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    adjacency = both_dst[np.argsort(both_src, kind="stable")]
    return lo, hi, indptr, adjacency


def row_loop_estimate(a, b, max_rows=256, rng=None):
    """``estimate_compression`` with one ``np.unique`` per sampled row."""
    lv = load_vector(a, b)
    if float(lv.sum()) == 0:
        return 1.0
    if rng is None:
        rng = (a.n_rows * 1_000_003 + a.nnz * 101 + b.nnz) % (2**63)
    rng = as_generator(rng)
    candidates = np.flatnonzero(lv > 0)
    rows = rng.choice(candidates, size=min(max_rows, candidates.size), replace=False)
    sampled_mults = 0.0
    sampled_nnz = 0.0
    b_row_nnz = b.row_nnz()
    for i in rows:
        cols_a, _ = a.row(int(i))
        if cols_a.size == 0:
            continue
        expand_counts = b_row_nnz[cols_a]
        out_cols = b.indices[ranges_gather(b.indptr[cols_a], expand_counts)]
        sampled_mults += float(out_cols.size)
        sampled_nnz += float(np.unique(out_cols).size)
    if sampled_mults == 0:
        return 1.0
    return float(np.clip(sampled_nnz / sampled_mults, 0.0, 1.0))


# -- comparison helpers -----------------------------------------------------


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def assert_same_csr(matrix, reference):
    indptr, indices, data = reference
    assert_same_array(matrix.indptr, indptr.astype(np.int64))
    assert_same_array(matrix.indices, indices)
    assert matrix.data.tobytes() == data.tobytes()


def assert_same_graph(graph, reference):
    """Every array and derived value of *graph* equals the eager build's.

    Degrees and byte counts are read first: they must not build the CSR.
    """
    edge_u, edge_v, indptr, adjacency = reference
    assert_same_array(graph.edge_u, edge_u)
    assert_same_array(graph.edge_v, edge_v)
    assert_same_array(graph.degrees(), np.diff(indptr))
    assert graph.memory_bytes() == indptr.nbytes + adjacency.nbytes
    assert graph._indptr is None and graph._adjacency is None
    assert_same_array(graph.indptr, indptr)
    assert_same_array(graph.adjacency, adjacency)


def dataset_edges(ds):
    m = ds.matrix
    rows = np.repeat(np.arange(m.n_rows, dtype=np.int64), m.row_nnz())
    off = rows != m.indices
    return m.n_rows, rows[off], m.indices[off]


def dataset(name, scale):
    return config_module._cached_dataset(name, scale)


def guard_triples(n_rows, n_cols):
    """Six unsorted triples at the extremes of a huge shape, (1, 0) among
    them twice."""
    rows = np.array([3, 1, 0, 1, 1, 0], dtype=np.int64) % n_rows
    cols = np.array([n_cols - 1, 0, n_cols - 1, n_cols - 2, 0, 5], dtype=np.int64)
    return rows, cols, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


# -- strategies -------------------------------------------------------------


@st.composite
def coo_triples(draw):
    """COO triples on a small grid, so coordinates repeat often."""
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(0, 12))
    size = draw(st.integers(0, 60)) if n_rows and n_cols else 0

    def column(values):
        return draw(st.lists(values, min_size=size, max_size=size))

    rows = column(st.integers(0, max(n_rows - 1, 0)))
    cols = column(st.integers(0, max(n_cols - 1, 0)))
    vals = column(st.floats(-1e6, 1e6, allow_nan=False))
    return rows, cols, vals, (n_rows, n_cols)


@st.composite
def row_major_triples(draw):
    """COO triples already in row-major order, duplicates or not."""
    rows, cols, vals, shape = draw(coo_triples())
    order = np.lexsort((cols, rows))
    rows, cols, vals = (np.asarray(x)[order] for x in (rows, cols, vals))
    if draw(st.booleans()) and rows.size:
        keep = np.concatenate(([True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])))
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return rows.astype(np.int64), cols.astype(np.int64), vals.astype(np.float64), shape


@st.composite
def csr_arrays(draw):
    """``(indptr, indices, shape)`` with empty rows, equal neighbours and
    descents both mid-row and at row starts."""
    n_rows = draw(st.integers(0, 8))
    n_cols = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(0, 5), min_size=n_rows, max_size=n_rows))
    rows = []
    for length in lengths:
        row = draw(st.lists(st.integers(0, n_cols - 1), min_size=length, max_size=length))
        rows.append(sorted(set(row)) if draw(st.booleans()) else row)
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    return indptr, indices, (n_rows, n_cols)


@st.composite
def edge_lists(draw):
    """Edges without self loops, repeated in both orientations."""
    n = draw(st.integers(2, 30))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=80,
        )
    )
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    repeats = draw(st.lists(st.integers(0, len(pairs)), max_size=20)) if pairs else []
    oriented = [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)]
    oriented += [oriented[i % len(oriented)][::-1] for i in repeats]
    u = np.array([a for a, _ in oriented], dtype=np.int64)
    v = np.array([b for _, b in oriented], dtype=np.int64)
    return n, u, v


@st.composite
def patterns(draw, n_rows, n_cols, dense_row=False):
    """A sparse pattern with empty rows, explicit zeros and maybe a full row."""
    cells = draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 0.0, 1.5, -2.0, 0.0]),
            min_size=n_rows * n_cols,
            max_size=n_rows * n_cols,
        )
    )
    present = draw(
        st.lists(st.booleans(), min_size=n_rows * n_cols, max_size=n_rows * n_cols)
    )
    mask = np.array(present, dtype=bool).reshape(n_rows, n_cols)
    if dense_row and n_rows:
        mask[draw(st.integers(0, n_rows - 1))] = True
    rows, cols = np.nonzero(mask)
    vals = np.array(cells, dtype=np.float64).reshape(n_rows, n_cols)[rows, cols]
    return from_coo(rows, cols, vals, (n_rows, n_cols))


@st.composite
def operand_pairs(draw):
    """``(A, B)`` with ``A.n_cols == B.n_rows``; square or rectangular."""
    n = draw(st.integers(0, 9))
    k = draw(st.integers(0, 9))
    p = draw(st.integers(0, 9))
    a = draw(patterns(n, k, dense_row=draw(st.booleans())))
    b = draw(patterns(k, p, dense_row=draw(st.booleans())))
    return a, b


# -- from_coo ---------------------------------------------------------------


class TestFromCoo:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(coo_triples())
    def test_summed_duplicates_match_lexsort(self, triples):
        rows, cols, vals, shape = triples
        assert_same_csr(
            from_coo(rows, cols, vals, shape), lexsort_from_coo(rows, cols, vals, shape)
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(coo_triples())
    def test_duplicates_raise_exactly_when_lexsort_raises(self, triples):
        rows, cols, vals, shape = triples
        try:
            reference = lexsort_from_coo(rows, cols, vals, shape, sum_duplicates=False)
        except ValidationError:
            with pytest.raises(ValidationError, match="duplicate"):
                from_coo(rows, cols, vals, shape, sum_duplicates=False)
        else:
            matrix = from_coo(rows, cols, vals, shape, sum_duplicates=False)
            assert_same_csr(matrix, reference)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (3, 3), (0, 2**64)])
    def test_empty_input(self, shape):
        empty = np.empty(0, dtype=np.int64)
        matrix = from_coo(empty, empty, np.empty(0), shape)
        assert_same_csr(matrix, lexsort_from_coo(empty, empty, np.empty(0), shape))
        assert matrix.shape == shape and matrix.nnz == 0

    @pytest.mark.parametrize(
        "shape, fused",
        [
            ((2, 2**62 - 1), True),  # largest key 2**63 - 3
            ((2, 2**62), False),  # n_rows * n_cols == 2**63
            ((4, 2**62), False),
        ],
    )
    def test_key_overflow_guard(self, shape, fused):
        n_rows, n_cols = shape
        rows, cols, vals = guard_triples(n_rows, n_cols)
        assert (pair_key(rows, cols, n_rows, n_cols) is not None) is fused
        assert_same_csr(
            from_coo(rows, cols, vals, shape), lexsort_from_coo(rows, cols, vals, shape)
        )

    @pytest.mark.parametrize(
        "shape, packed",
        [
            ((2, 2**58), True),  # 59 key bits + 3 position bits = 62
            ((2, 2**59), True),  # 60 + 3 = 63: the widest packed key
            ((3, 2**59), False),  # 61 + 3 = 64: the key fits, the packed value not
            ((2, 2**60), False),
            ((2, 2**62 - 1), False),
        ],
    )
    def test_packed_guard(self, shape, packed):
        n_rows, n_cols = shape
        rows, cols, vals = guard_triples(n_rows, n_cols)
        assert pair_key(rows, cols, n_rows, n_cols) is not None
        assert (packed_shift(n_rows, n_cols, rows.size) is not None) is packed
        assert_same_csr(
            from_coo(rows, cols, vals, shape), lexsort_from_coo(rows, cols, vals, shape)
        )
        pairs = list(zip(rows.tolist(), cols.tolist()))
        keep = np.array([pairs.index(p) == i for i, p in enumerate(pairs)])
        with pytest.raises(ValidationError, match="duplicate"):
            from_coo(rows, cols, vals, shape, sum_duplicates=False)
        matrix = from_coo(rows[keep], cols[keep], vals[keep], shape, sum_duplicates=False)
        assert_same_csr(matrix, lexsort_from_coo(rows[keep], cols[keep], vals[keep], shape))

    def test_packed_shift_counts_position_bits(self):
        assert packed_shift(1, 2**63 - 1, 1) == 0  # one entry needs no position
        assert packed_shift(1, 2**63 - 1, 2) is None
        assert packed_shift(2**20, 2**20, 2**23) == 23  # 40 + 23 = 63
        assert packed_shift(2**20, 2**20, 2**23 + 1) is None
        assert packed_shift(0, 5, 0) == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(row_major_triples(), st.booleans())
    def test_row_major_input(self, triples, sum_duplicates):
        rows, cols, vals, shape = triples
        try:
            reference = lexsort_from_coo(rows, cols, vals, shape, sum_duplicates)
        except ValidationError:
            with pytest.raises(ValidationError, match="duplicate"):
                from_coo(rows, cols, vals, shape, sum_duplicates)
            return
        matrix = from_coo(rows, cols, vals, shape, sum_duplicates)
        assert_same_csr(matrix, reference)
        # The matrix owns its arrays even when the input was in order.
        for given in (rows, cols, vals):
            assert not np.shares_memory(matrix.indices, given)
            assert not np.shares_memory(matrix.data, given)


# -- CsrMatrix validation ---------------------------------------------------


class TestValidate:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(csr_arrays())
    @example(([0, 2, 4], [0, 1, 0, 1], (2, 2)))  # descent at a row start: valid
    @example(([0, 2, 2, 4], [0, 1, 0, 1], (3, 2)))  # across an empty row: valid
    @example(([0, 4], [0, 1, 0, 1], (1, 2)))  # descent mid-row
    @example(([0, 2, 4], [1, 1, 0, 1], (2, 2)))  # equal neighbours in a row
    @example(([0, 2, 4], [0, 1, 1, 1], (2, 2)))  # across rows, then in one
    @example(([0, 0, 0], [], (2, 2)))
    def test_accepts_and_rejects_what_isin_did(self, arrays):
        indptr, indices, shape = (
            np.asarray(arrays[0], dtype=np.int64),
            np.asarray(arrays[1], dtype=np.int64),
            arrays[2],
        )
        data = np.ones(indices.size)
        message = isin_validate(indptr, indices, data, shape)
        if message is None:
            CsrMatrix(indptr, indices, data, shape)
        else:
            with pytest.raises(ValidationError) as info:
                CsrMatrix(indptr, indices, data, shape)
            assert str(info.value) == message


# -- Graph ------------------------------------------------------------------


class TestGraph:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(edge_lists())
    def test_matches_the_eager_lexsort_build(self, edges):
        n, u, v = edges
        assert_same_graph(Graph(n, u, v), eager_graph(n, u, v))

    def test_empty_and_edgeless(self):
        empty = np.empty(0, dtype=np.int64)
        for n in (0, 1, 5):
            assert_same_graph(Graph(n, empty, empty), eager_graph(n, empty, empty))

    def test_key_overflow_falls_back_to_lexsort(self):
        # n * n = 2**64: the fused key could overflow.  Only the edge list
        # is compared; the CSR (and degrees) would need 2**32 entries.
        n = 2**32
        u = np.array([n - 1, 5, 0, 2**31, 5, n - 2], dtype=np.int64)
        v = np.array([0, n - 1, n - 1, 7, n - 1, n - 1], dtype=np.int64)
        assert pair_key(u, v, n, n) is None
        graph = Graph(n, u, v)
        edge_u, edge_v = lexsort_edges(u, v)
        assert_same_array(graph.edge_u, edge_u)
        assert_same_array(graph.edge_v, edge_v)
        assert graph.m == 4

    @pytest.mark.parametrize("name, scale", DATASETS, ids=DATASET_IDS)
    def test_dataset_graphs(self, name, scale):
        n, u, v = dataset_edges(dataset(name, scale))
        assert_same_graph(Graph(n, u, v), eager_graph(n, u, v))

    @pytest.mark.parametrize("name, scale", DATASETS, ids=DATASET_IDS)
    def test_dataset_as_graph_reads_the_upper_triangle(self, name, scale):
        fresh = load_dataset(name, scale=scale)  # its graph is not built yet
        assert fresh._symmetric
        assert_same_graph(fresh.as_graph(), eager_graph(*dataset_edges(fresh)))

    def test_other_datasets_take_the_general_path(self, tmp_path):
        # A non-symmetric pattern: its upper triangle alone would miss the
        # edge {0, 2}, stored only as (2, 0); the diagonal entry is no edge.
        matrix = from_coo(
            [0, 2, 3, 1, 1, 0], [1, 0, 1, 3, 1, 1], np.arange(1.0, 7.0), (4, 4)
        )
        write_matrix_market(matrix, tmp_path / "general.mtx")
        for ds in (
            dataset_from_matrix_market(str(tmp_path / "general.mtx")),
            Dataset("hand-built", "external", matrix, 4, 6),
        ):
            assert not ds._symmetric
            assert_same_graph(ds.as_graph(), eager_graph(*dataset_edges(ds)))
            assert ds.as_graph().m == 3


class TestTableIISymmetry:
    """The upper-triangle graph is exact only for symmetric patterns."""

    @pytest.mark.parametrize("name, scale", DATASETS, ids=DATASET_IDS)
    def test_pattern_is_symmetric(self, name, scale):
        m = dataset(name, scale).matrix
        t = m.transpose()
        assert_same_array(t.indptr, m.indptr)
        assert_same_array(t.indices, m.indices)


# -- estimate_compression ---------------------------------------------------


class TestEstimateCompression:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(operand_pairs(), st.integers(0, 12), st.none() | st.integers(0, 99))
    def test_matches_the_row_loop(self, operands, max_rows, seed):
        a, b = operands
        assert estimate_compression(a, b, max_rows, seed) == row_loop_estimate(
            a, b, max_rows, seed
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 9).flatmap(lambda n: patterns(n, n, dense_row=True)))
    def test_self_product_with_a_dense_row(self, a):
        assert estimate_compression(a, a) == row_loop_estimate(a, a)

    @pytest.mark.parametrize(
        "dense",
        [
            np.zeros((0, 0)),
            np.zeros((4, 4)),  # no stored entries at all
            np.eye(1),
            np.ones((5, 5)),
            np.vstack([np.ones((1, 6)), np.zeros((5, 6))]),  # one dense row
        ],
        ids=["0x0", "empty", "1x1", "full", "one-dense-row"],
    )
    def test_degenerate_operands(self, dense):
        a = from_dense(dense)
        explicit_zeros = from_dense(0.0 * dense, keep_explicit_zeros=True)
        for m in (a, explicit_zeros):
            for max_rows in (0, 1, 256):
                want = row_loop_estimate(m, m, max_rows)
                assert estimate_compression(m, m, max_rows) == want

    def test_rectangular_product(self):
        rng = np.random.default_rng(3)

        def uniform(n_rows, n_cols, size):
            rows, cols = rng.integers(0, n_rows, size), rng.integers(0, n_cols, size)
            return from_coo(rows, cols, rng.random(size), (n_rows, n_cols))

        a, b = uniform(40, 25, 300), uniform(25, 70, 200)
        for max_rows in (1, 7, 40, 256):
            want = row_loop_estimate(a, b, max_rows)
            assert estimate_compression(a, b, max_rows) == want

    @pytest.mark.parametrize("name, scale", DATASETS, ids=DATASET_IDS)
    def test_dataset_self_products(self, name, scale):
        a = dataset(name, scale).matrix
        assert estimate_compression(a, a) == row_loop_estimate(a, a)

    def test_self_compression_is_the_estimate_kept_on_the_operand(self):
        a = from_coo([0, 0, 1, 2], [0, 2, 1, 0], [1.0, 2.0, 3.0, 4.0], (3, 3))
        assert a._self_product is None
        ratio = self_compression(a)
        assert ratio == estimate_compression(a, a)
        assert a._self_product.compression == ratio
        a._self_product.compression = 0.25  # a kept value is reused
        assert self_compression(a) == 0.25

    def test_one_read_only_load_vector_per_operand(self):
        a = dataset("webbase-1M", 1 / 64).matrix
        fresh = CsrMatrix(a.indptr, a.indices, a.data, a.shape)
        load = self_load_vector(fresh)
        assert_same_array(load, load_vector(fresh, fresh))
        assert not load.flags.writeable
        assert self_load_vector(fresh) is load
        assert estimate_compression(fresh, fresh) == row_loop_estimate(fresh, fresh)
        assert fresh._self_product.compression is None  # a direct call keeps nothing


# -- work counts ------------------------------------------------------------


@pytest.fixture
def fresh_datasets(monkeypatch):
    """A private dataset memo, so every operand starts with no estimate."""
    memo = lru_cache(maxsize=None)(lambda name, scale: load_dataset(name, scale=scale))
    monkeypatch.setattr(config_module, "_cached_dataset", memo)
    return memo


@pytest.fixture
def estimates(monkeypatch) -> list:
    """``(a, b)`` of every compression estimate, wherever it is called from."""
    calls: list = []
    estimate = spgemm_module.estimate_compression

    def counting(a, b, *args, **kwargs):
        calls.append((a, b))
        return estimate(a, b, *args, **kwargs)

    for module in (spgemm_module, spmm_module, hh_module):
        if hasattr(module, "estimate_compression"):
            monkeypatch.setattr(module, "estimate_compression", counting)
    return calls


class TestWorkCounts:
    def test_cold_table1_estimates_each_operand_once(
        self, fresh_datasets, estimates, monkeypatch
    ):
        loads: list = []
        load = spgemm_module.load_vector

        def counting_load(a, b):
            loads.append((a, b))
            return load(a, b)

        monkeypatch.setattr(spgemm_module, "load_vector", counting_load)
        problems: list = []
        for cls in (SpmmProblem, HhCpuProblem):

            def recording(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                problems.append(self)

            monkeypatch.setattr(cls, "__init__", recording)
        table1_summary.run(BASE)
        matrices = {n: fresh_datasets(n, BASE.scale).matrix for n in BASE.datasets}
        assert len(estimates) == len(matrices)
        for a, b in estimates:
            assert b is a and any(a is m for m in matrices.values())
        for name, matrix in matrices.items():
            full = [p for p in problems if p.a is matrix]
            assert Counter(type(p) for p in full) == {SpmmProblem: 1, HhCpuProblem: 1}
            memo = matrix._self_product
            assert {p._compression for p in full} == {memo.compression}
            # One A x A load vector, shared by both problems and the estimate.
            assert all(p._row_mults is memo.load for p in full)
            assert sum(a is matrix and b is matrix for a, b in loads) == 1

    @pytest.mark.parametrize("study", [fig3_cc, fig4_cc_sensitivity], ids=["fig3", "fig4"])
    def test_cold_cc_studies_build_no_adjacency(self, fresh_datasets, monkeypatch, study):
        # Every graph, from the constructor or Graph._canonical (dataset
        # graphs and subgraphs), is filled in by Graph._set.
        counts = Counter()
        for name in ("_set", "_build_csr"):

            def counting(self, *args, _method=getattr(Graph, name), _name=name, **kw):
                counts[_name] += 1
                return _method(self, *args, **kw)

            monkeypatch.setattr(Graph, name, counting)
        study.run(replace(BASE, cache_dir=None))
        assert counts["_set"] > 0
        assert counts["_build_csr"] == 0
