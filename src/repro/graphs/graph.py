"""The CSR graph container.

An undirected simple graph stored as its deduplicated, canonical edge list,
with the CSR adjacency structure built from it on first use.  Vertex
*order* is significant and preserved: the paper's Algorithm 1 cuts the
graph at a vertex index, so the generator-provided ordering (spatial for
road networks, crawl-like for web graphs) is part of the instance.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError
from repro.util.pairs import unique_pairs
from repro.util.prefix import ranges_gather

_INDEX = np.int64


class Graph:
    """Undirected simple graph: a canonical edge list plus CSR on demand.

    Parameters
    ----------
    n:
        Number of vertices (vertices are ``0 .. n-1``).
    edge_u, edge_v:
        Endpoint arrays of the undirected edge list.  Self loops are
        rejected; duplicate edges (in either orientation) are folded.

    Notes
    -----
    :attr:`edge_u` < :attr:`edge_v` holds edge by edge, and the edges are
    sorted by ``(edge_u, edge_v)``.  The adjacency arrays store both
    orientations (each edge appears twice), the standard CSR-graph layout;
    :attr:`m` counts undirected edges once.  They are built on the first
    read of :attr:`indptr` or :attr:`adjacency` (the reference labellers
    and :meth:`neighbors`); degrees and byte counts follow from the edge
    list without them.
    """

    __slots__ = ("n", "edge_u", "edge_v", "_indptr", "_adjacency")

    def __init__(self, n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        if n < 0:
            raise ValidationError("n must be non-negative")
        u = np.asarray(edge_u, dtype=_INDEX)
        v = np.asarray(edge_v, dtype=_INDEX)
        if u.shape != v.shape or u.ndim != 1:
            raise ValidationError("edge_u/edge_v must be equal-length 1-D arrays")
        if u.size:
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
                raise ValidationError("edge endpoint out of range")
            if np.any(u == v):
                raise ValidationError("self loops are not allowed")
        # Canonicalize (lo, hi) and deduplicate with one sort.
        lo, hi = unique_pairs(np.minimum(u, v), np.maximum(u, v), n, n)
        self._set(n, lo, hi)

    def _set(self, n: int, lo: np.ndarray, hi: np.ndarray) -> None:
        self.n = int(n)
        self.edge_u = lo
        self.edge_v = hi
        self._indptr: np.ndarray | None = None
        self._adjacency: np.ndarray | None = None

    @classmethod
    def _canonical(cls, n: int, lo: np.ndarray, hi: np.ndarray) -> "Graph":
        """A graph on edges already canonical, unique and sorted (no checks)."""
        graph = cls.__new__(cls)
        graph._set(n, lo, hi)
        return graph

    def _build_csr(self) -> None:
        """The CSR adjacency with both orientations, from the edge list."""
        lo, hi = self.edge_u, self.edge_v
        both_src = np.concatenate([lo, hi])
        both_dst = np.concatenate([hi, lo])
        counts = np.bincount(both_src, minlength=self.n)
        self._indptr = np.concatenate(([0], np.cumsum(counts))).astype(_INDEX)
        order = np.argsort(both_src, kind="stable")
        self._adjacency = both_dst[order]

    # -- queries ---------------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """``(n + 1,)`` CSR row pointers of the adjacency (built on first read)."""
        if self._indptr is None:
            self._build_csr()
        return self._indptr

    @property
    def adjacency(self) -> np.ndarray:
        """``(2m,)`` neighbor lists, vertex by vertex (built on first read)."""
        if self._adjacency is None:
            self._build_csr()
        return self._adjacency

    @property
    def m(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.edge_u.size)

    def degrees(self) -> np.ndarray:
        """Per-vertex degree."""
        n = self.n
        return np.bincount(self.edge_u, minlength=n) + np.bincount(self.edge_v, minlength=n)

    def neighbors(self, v: int) -> np.ndarray:
        """View of vertex *v*'s adjacency list."""
        if not 0 <= v < self.n:
            raise ValidationError(f"vertex {v} out of range [0, {self.n})")
        return self.adjacency[self.indptr[v] : self.indptr[v + 1]]

    def memory_bytes(self) -> int:
        """Bytes of the CSR arrays — what a PCIe transfer ships."""
        return 8 * (self.n + 1) + 16 * self.m

    def subgraph(self, vertices: np.ndarray) -> "Graph":
        """Induced subgraph on *vertices*, relabeled to ``0..len-1``: O(s log m
        + k log s) for ``s`` kept vertices with ``k`` upper edges.

        *vertices* must be sorted and unique; relative order (and therefore
        the partition-relevant vertex ordering) is preserved.  The cost
        follows the sample, not the graph: two binary searches per kept
        vertex find its run of the sorted edge list, and one per gathered
        edge tests the far endpoint.  Past about ``n / 32`` kept vertices
        a pass over all ``m`` edges is cheaper (docs/PERFORMANCE.md §12);
        the samplers keep at most ``4√n``, and
        :meth:`~repro.hetero.cc.CcProblem.round_block` slices its
        contiguous ranges without this method.
        """
        vs = np.asarray(vertices, dtype=_INDEX)
        if vs.size == 0:
            return Graph._canonical(0, np.empty(0, _INDEX), np.empty(0, _INDEX))
        if np.any(np.diff(vs) <= 0):
            raise ValidationError("vertices must be sorted and unique")
        if vs[0] < 0 or vs[-1] >= self.n:
            raise ValidationError("vertex out of range")
        # The edges are sorted by (edge_u, edge_v): each kept vertex's upper
        # edges are one run, the runs come in vertex order, and relabeling
        # by position in vs is increasing, so kept edges stay canonical and
        # in order.
        starts = np.searchsorted(self.edge_u, vs, side="left")
        counts = np.searchsorted(self.edge_u, vs, side="right") - starts
        far = self.edge_v[ranges_gather(starts, counts)]
        pos = np.minimum(np.searchsorted(vs, far), vs.size - 1)
        keep = vs[pos] == far
        near = np.repeat(np.arange(vs.size, dtype=_INDEX), counts)
        return Graph._canonical(vs.size, near[keep], pos[keep])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, edges: np.ndarray) -> Graph:
    """Build a :class:`Graph` from an ``(m, 2)`` edge array."""
    edges = np.asarray(edges, dtype=_INDEX)
    if edges.size == 0:
        return Graph(n, np.empty(0, dtype=_INDEX), np.empty(0, dtype=_INDEX))
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValidationError(f"expected (m, 2) edge array, got {edges.shape}")
    return Graph(n, edges[:, 0], edges[:, 1])
