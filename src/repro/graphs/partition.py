"""Vertex-threshold partitioning (Phase I of Algorithm 1).

Two views of the same cut live here:

* :func:`split_by_vertex` *materializes* a partition: the CPU and GPU
  subgraphs (relabeled to local ids) and the cross edges, used when the
  hybrid algorithm actually executes.
* :class:`CutProfile` *prices* partitions: after an O(n + m) precomputation
  it answers "how many edges fall inside the CPU part / inside the GPU part
  / across the cut at threshold k" in O(1).  The exhaustive-search oracle
  sweeps 101 thresholds per instance; without this profile each sweep point
  would rescan the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.util.errors import ValidationError

_INDEX = np.int64


@dataclass(frozen=True)
class VertexPartition:
    """A materialized cut at ``n_cpu`` (CPU owns vertices ``[0, n_cpu)``).

    ``cross_u``/``cross_v`` hold cross edges in *original* vertex ids
    (``cross_u`` on the CPU side, ``cross_v`` on the GPU side).
    """

    n_cpu: int
    cpu_graph: Graph
    gpu_graph: Graph
    cross_u: np.ndarray
    cross_v: np.ndarray

    @property
    def n_cross(self) -> int:
        return int(self.cross_u.size)


def split_by_vertex(graph: Graph, n_cpu: int) -> VertexPartition:
    """Cut *graph* so the CPU gets the first *n_cpu* vertices (Alg. 1, lines 2-5)."""
    if not 0 <= n_cpu <= graph.n:
        raise ValidationError(f"n_cpu={n_cpu} out of range [0, {graph.n}]")
    u, v = graph.edge_u, graph.edge_v  # canonical: u <= v
    in_cpu = v < n_cpu  # both endpoints below the cut
    in_gpu = u >= n_cpu  # both endpoints at or above the cut
    crossing = ~(in_cpu | in_gpu)
    cpu_graph = Graph(n_cpu, u[in_cpu], v[in_cpu])
    gpu_graph = Graph(graph.n - n_cpu, u[in_gpu] - n_cpu, v[in_gpu] - n_cpu)
    return VertexPartition(
        n_cpu=n_cpu,
        cpu_graph=cpu_graph,
        gpu_graph=gpu_graph,
        cross_u=u[crossing],
        cross_v=v[crossing],
    )


class CutProfile:
    """O(1)-per-threshold edge accounting for vertex cuts of one graph.

    For a cut at ``k`` (CPU owns ``[0, k)``):

    * ``m_cpu(k)`` — edges with both endpoints below ``k``;
    * ``m_gpu(k)`` — edges with both endpoints at or above ``k``;
    * ``m_cross(k)`` — the rest;
    * ``cpu_degree_sum(k)`` / ``gpu_degree_sum(k)`` — adjacency-list volume
      each side scans (cross-edge stubs included, as a real traversal would
      touch them).
    """

    def __init__(self, graph: Graph) -> None:
        n = graph.n
        self._n = n
        self._m = graph.m
        hi = graph.edge_v  # max endpoint of each canonical edge
        lo = graph.edge_u  # min endpoint
        # edges_below[k] = #edges with max endpoint < k.
        self._edges_below = np.concatenate(
            ([0], np.cumsum(np.bincount(hi, minlength=n)))
        ).astype(_INDEX)
        # edges_at_or_above[k] = #edges with min endpoint >= k.
        below_min = np.concatenate(
            ([0], np.cumsum(np.bincount(lo, minlength=n)))
        ).astype(_INDEX)
        self._edges_at_or_above = self._m - below_min
        degrees = graph.degrees()
        self._degree_prefix = np.concatenate(([0], np.cumsum(degrees))).astype(_INDEX)
        self._degree_prefix_max = (
            np.concatenate(([0], np.maximum.accumulate(degrees)))
            if n
            else np.zeros(1, dtype=_INDEX)
        ).astype(_INDEX)

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def _check(self, k: int) -> None:
        if not 0 <= k <= self._n:
            raise ValidationError(f"cut {k} out of range [0, {self._n}]")

    def m_cpu(self, k: int) -> int:
        self._check(k)
        return int(self._edges_below[k])

    def m_gpu(self, k: int) -> int:
        self._check(k)
        return int(self._edges_at_or_above[k])

    def m_cross(self, k: int) -> int:
        self._check(k)
        return self._m - self.m_cpu(k) - self.m_gpu(k)

    def cpu_degree_sum(self, k: int) -> int:
        self._check(k)
        return int(self._degree_prefix[k])

    def gpu_degree_sum(self, k: int) -> int:
        self._check(k)
        return int(self._degree_prefix[self._n] - self._degree_prefix[k])

    def cpu_chunk_degree_sums(self, k: int, chunks: int) -> np.ndarray:
        """Adjacency volume of each of *chunks* contiguous equal-vertex chunks
        of ``[0, k)`` (naive chunking; kept for analysis and tests)."""
        self._check(k)
        if chunks < 1:
            raise ValidationError("chunks must be >= 1")
        bounds = np.linspace(0, k, chunks + 1).astype(_INDEX)
        return np.diff(self._degree_prefix[bounds]).astype(np.float64)

    def max_degree_below(self, k: int) -> int:
        """Largest vertex degree among ``[0, k)`` — the chunk atomicity floor.

        Work-balanced chunking (Algorithm 1 line 6 as any competent
        implementation writes it: equal adjacency volume per thread, not
        equal vertex counts) evens chunk sums out, but a single vertex's
        traversal cannot be split, so the heaviest chunk is at least the
        heaviest vertex.
        """
        self._check(k)
        return int(self._degree_prefix_max[k])

    # -- vectorized accessors (batched threshold pricing) --------------------

    def _check_many(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=_INDEX)
        # Viewed unsigned, a negative cut wraps above n: one reduction
        # checks both bounds.
        if ks.size and int(ks.view(np.uint64).max()) > self._n:
            raise ValidationError(f"cuts out of range [0, {self._n}]")
        return ks

    def m_cpu_many(self, ks: np.ndarray) -> np.ndarray:
        """``m_cpu`` over an array of cuts (one table gather)."""
        return self._edges_below[self._check_many(ks)]

    def m_gpu_many(self, ks: np.ndarray) -> np.ndarray:
        """``m_gpu`` over an array of cuts."""
        return self._edges_at_or_above[self._check_many(ks)]

    def m_cross_many(self, ks: np.ndarray) -> np.ndarray:
        """``m_cross`` over an array of cuts."""
        ks = self._check_many(ks)
        return self._m - self._edges_below[ks] - self._edges_at_or_above[ks]

    def cpu_degree_sum_many(self, ks: np.ndarray) -> np.ndarray:
        """``cpu_degree_sum`` over an array of cuts."""
        return self._degree_prefix[self._check_many(ks)]

    def max_degree_below_many(self, ks: np.ndarray) -> np.ndarray:
        """``max_degree_below`` over an array of cuts."""
        return self._degree_prefix_max[self._check_many(ks)]
