"""The :class:`Dataset` wrapper.

Table II serves every case study: viewed as a matrix (n rows, NNZ nonzeros)
it feeds the spmm studies; viewed as a graph (n vertices, m edges) it feeds
CC.  A :class:`Dataset` holds the symmetric sparse matrix and derives the
graph view on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph
from repro.sparse.csr import CsrMatrix
from repro.util.errors import ValidationError


@dataclass
class Dataset:
    """One named instance with both matrix and graph views.

    Attributes
    ----------
    name:
        Table II name (``"cant"``, ``"asia_osm"``, ...).
    kind:
        Structure class: ``"fem"``, ``"lattice"``, ``"mesh"``, ``"web"``,
        ``"road"``.
    matrix:
        The (structurally symmetric) sparse matrix.
    paper_n / paper_nnz:
        The original dataset's size from Table II, for reporting scale.
    """

    name: str
    kind: str
    matrix: CsrMatrix
    paper_n: int
    paper_nnz: int
    _graph: Graph | None = field(default=None, repr=False, compare=False)
    # Set by load_dataset: every Table II generator symmetrizes its pattern
    # (pinned by tests/test_construction_equivalence.py).
    _symmetric: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.matrix.n_rows != self.matrix.n_cols:
            raise ValidationError(f"dataset {self.name} matrix must be square")

    @property
    def n(self) -> int:
        return self.matrix.n_rows

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def as_graph(self) -> Graph:
        """The undirected graph on the matrix's off-diagonal pattern.

        Cached, and built in one pass for the Table II datasets: their
        patterns are symmetric, so the canonical edge list is the CSR's
        strict upper triangle, already unique and sorted in CSR order.
        Any other dataset (a MatrixMarket file, a hand-built one) takes
        ``Graph``'s fused-key sort and dedup.  The graph's CSR adjacency is
        built only if something reads it.
        """
        if self._graph is None:
            m = self.matrix
            rows = np.repeat(np.arange(m.n_rows, dtype=np.int64), m.row_nnz())
            cols = m.indices
            if self._symmetric:
                upper = rows < cols
                self._graph = Graph._canonical(m.n_rows, rows[upper], cols[upper])
            else:
                off = rows != cols
                self._graph = Graph(m.n_rows, rows[off], cols[off])
        return self._graph

    def describe(self) -> str:
        g = self.as_graph()
        return (
            f"{self.name} ({self.kind}): n={self.n:,} nnz={self.nnz:,} "
            f"m={g.m:,} [paper: n={self.paper_n:,} nnz={self.paper_nnz:,}]"
        )


def dataset_from_matrix_market(
    path: str, name: str | None = None, kind: str = "external"
) -> Dataset:
    """Wrap a real MatrixMarket file (e.g. a University of Florida download)
    as a :class:`Dataset`, so every experiment can run on the paper's actual
    inputs when they are available.

    Rectangular matrices are rejected (the studies multiply ``A`` by itself
    and cut a square vertex axis).
    """
    from pathlib import Path

    from repro.sparse.io import read_matrix_market

    matrix = read_matrix_market(path)
    label = name or Path(path).stem
    return Dataset(
        name=label,
        kind=kind,
        matrix=matrix,
        paper_n=matrix.n_rows,
        paper_nnz=matrix.nnz,
    )
