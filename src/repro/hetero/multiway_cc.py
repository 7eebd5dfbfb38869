"""Multi-device extension: hybrid CC on one CPU plus ``p - 1`` accelerators.

The paper claims its technique "can be extended easily to other
heterogeneous computing platforms ... the values of the threshold(s) now
can be treated as a vector, unlike a scalar in the simple CPU+GPU case"
(Section II) but never builds that case.  This module does: Algorithm 1
generalized to a :class:`~repro.platform.cluster.ClusterSpec` of ``p``
heterogeneous devices, with the vertex axis cut into ``p`` contiguous
ranges by a *threshold vector* of cumulative percentages.

* Threshold vector ``(c_1, …, c_{p-1})`` with ``0 <= c_1 <= … <= 100``:
  the CPU owns vertices below ``c_1`` percent, accelerator ``i`` owns the
  range ``[c_i, c_{i+1})`` (the last one up to 100).  Percent ``c`` is
  vertex ``round(n * c / 100)``.
* This module only turns the vector into vertex cuts: pricing, the
  Phase-II timeline, execution and sampling are the scalar
  :class:`~repro.hetero.cc.CcProblem`'s vertex-range methods run on the
  cluster, each range priced on its *own* device spec, so unequal
  accelerators pull the optimum away from equal shares.  A merge pass on
  the fastest accelerator joins the per-range labelings over every
  cross-range edge, after the foreign labels ship over that device's
  interconnect link.
* Identify uses cyclic coordinate descent
  (:func:`repro.core.cut_vector.coordinate_descent`): each coordinate is a
  1-D search with the others held fixed, repeated until no coordinate
  moves — the natural vector generalization of the paper's 1-D searches.

Problems are built from a :class:`ClusterSpec` only;
:meth:`ClusterSpec.from_machine` widens a 2-device machine.  A ``p = 2``
cluster prices exactly like :class:`~repro.hetero.cc.CcProblem` on that
machine wherever the two geometries pick the same vertex cut (the scalar
problem rounds the GPU share instead: ``n - round(n * t / 100)``).

The scalar problem counts the edges inside the CPU prefix and the last
suffix; the accelerator ranges in between need "edges within [a, b)" for
arbitrary percent ranges, which a :class:`RangeCutProfile` answers in O(1)
from a 2-D dominance count over the 101-point percent grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.problem import check_thresholds
from repro.graphs.graph import Graph
from repro.graphs.shiloach_vishkin import SvResult
from repro.hetero.cc import CcProblem
from repro.platform.cluster import ClusterSpec
from repro.platform.machine import HeterogeneousMachine
from repro.platform.timeline import Timeline
from repro.util.errors import ValidationError
from repro.util.rng import RngLike


def _gpu_cluster(cluster: ClusterSpec, class_name: str) -> ClusterSpec:
    """Check a multiway problem's platform: a cluster of GPU accelerators."""
    if not isinstance(cluster, ClusterSpec):
        raise ValidationError(
            f"{class_name} needs a ClusterSpec, got {type(cluster).__name__}; "
            "ClusterSpec.from_machine(machine, n_gpus=...) widens a 2-device "
            "machine"
        )
    for d in cluster.accelerators:
        if d.kind != "gpu":
            raise ValidationError(
                f"{class_name} accelerators must be GPUs, got {d.kind!r}"
            )
    return cluster


_INDEX = np.int64

#: Number of percent grid points (0..100 inclusive).
_GRID = 101


class RangeCutProfile:
    """O(1) edge counts for arbitrary percent ranges of the vertex axis.

    ``within(a, b)`` = edges with both endpoints in percent range
    ``[a, b)``; built from a 2-D cumulative histogram of each edge's
    (min-endpoint bucket, max-endpoint bucket).
    """

    def __init__(self, graph: Graph) -> None:
        # cuts[c] = first vertex at or above c percent.
        self.cuts = np.array(
            [int(round(graph.n * c / 100.0)) for c in range(_GRID)], dtype=_INDEX
        )
        lo_bucket = np.searchsorted(self.cuts, graph.edge_u, side="right") - 1
        hi_bucket = np.searchsorted(self.cuts, graph.edge_v, side="right") - 1
        hist = np.bincount(
            lo_bucket * _GRID + hi_bucket, minlength=_GRID * _GRID
        ).reshape(_GRID, _GRID)
        self._cum = hist.cumsum(axis=0).cumsum(axis=1)

    def cut_index(self, percent: int) -> int:
        return int(self.cuts[percent])

    def within(self, a: int, b: int) -> int:
        """Edges with both endpoints in percent range [a, b)."""
        if not 0 <= a <= b <= 100:
            raise ValidationError(f"bad percent range [{a}, {b})")
        if a == b:
            return 0
        # Buckets a..b-1 inclusive on both axes.
        lo, hi = a, b - 1
        total = self._cum[hi, hi]
        left = self._cum[lo - 1, hi] if lo else 0
        top = self._cum[hi, lo - 1] if lo else 0
        corner = self._cum[lo - 1, lo - 1] if lo else 0
        return int(total - left - top + corner)

    def within_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`within` over aligned percent-range arrays.

        Callers guarantee ``0 <= a <= b <= 100`` elementwise (the threshold
        vectors were validated already); empty ranges yield 0.
        """
        a = np.asarray(a, dtype=_INDEX)
        b = np.asarray(b, dtype=_INDEX)
        lo = a
        hi = b - 1
        # Negative indices from empty/leftmost ranges wrap harmlessly: the
        # np.where masks discard those lanes.
        total = self._cum[hi, hi]
        left = np.where(lo > 0, self._cum[lo - 1, hi], 0)
        top = np.where(lo > 0, self._cum[hi, lo - 1], 0)
        corner = np.where(lo > 0, self._cum[lo - 1, lo - 1], 0)
        return np.where(a == b, 0, total - left - top + corner)


@dataclass(frozen=True)
class MultiwayCcRunResult:
    """Outcome of executing the generalized Algorithm 1."""

    thresholds: tuple[float, ...]
    labels: np.ndarray
    n_components: int
    merge_sv: SvResult | None
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


class MultiwayCcProblem:
    """Connected components across the devices of a :class:`ClusterSpec`.

    Wraps a scalar :class:`CcProblem` for all per-vertex precomputation,
    pricing and execution; the vector threshold only changes where its
    vertex axis is cut.  Device 0 (the host CPU) runs the DFS-style range;
    accelerator ``i`` runs Shiloach-Vishkin on its own range, priced on its
    own spec and traced on lane ``gpu{i}``.  The label transfer ahead of
    the merge runs on the interconnect's resource for the merge device.
    """

    def __init__(
        self,
        graph: Graph,
        cluster: ClusterSpec,
        name: str = "multiway-cc",
        base: CcProblem | None = None,
    ) -> None:
        cluster = _gpu_cluster(cluster, "MultiwayCcProblem")
        self.cluster = cluster
        self.n_gpus = cluster.n_devices - 1
        self.name = name
        if base is not None:
            self._base = base
        else:
            # The base problem only needs the host spec, one accelerator
            # spec and a link; give it the cluster's 2-device view.
            self._base = CcProblem(
                graph,
                HeterogeneousMachine(
                    cpu=cluster.devices[0],
                    gpu=cluster.devices[1],
                    link=cluster.links[0],
                ),
                name=name,
            )
        self._ranges = RangeCutProfile(self._base.graph)
        ic = cluster.interconnect
        self._lanes = tuple(
            (
                f"gpu{i}",
                f"phase2/cc-gpu{i}-sv",
                ic.resource_for(i + 1),
                "phase2/h2d-labels",
            )
            for i in range(self.n_gpus)
        )

    @property
    def graph(self) -> Graph:
        return self._base.graph

    @property
    def n_cuts(self) -> int:
        """Vector length — the device-neutral alias for ``n_gpus``."""
        return self.n_gpus

    # -- threshold geometry ------------------------------------------------------

    def _check_vector(self, thresholds: Sequence[float]) -> list[int]:
        """The vector rounded to integer percent cuts, validated."""
        if len(thresholds) != self.n_gpus:
            raise ValidationError(
                f"expected {self.n_gpus} thresholds, got {len(thresholds)}"
            )
        check_thresholds(thresholds)
        cuts = [int(round(t)) for t in thresholds]
        if any(b < a for a, b in zip(cuts, cuts[1:])):
            raise ValidationError(
                f"thresholds must be non-decreasing, got {thresholds}"
            )
        return cuts

    def _vertex_cuts(self, thresholds: Sequence[float]) -> tuple[list[int], list[int]]:
        """Vertex cuts for the vector, plus the edge counts of the
        accelerator ranges between the first and the last cut."""
        pcts = self._check_vector(thresholds)
        cuts = [self._ranges.cut_index(c) for c in pcts]
        interior = [self._ranges.within(a, b) for a, b in zip(pcts, pcts[1:])]
        return cuts, interior

    # -- vector-threshold problem interface --------------------------------------------

    def evaluate_ms(self, thresholds: Sequence[float]) -> float:
        return self.timeline(thresholds).total_ms

    def evaluate_many(self, threshold_vectors: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms` over rows of threshold vectors.

        *threshold_vectors* has shape ``(batch, n_gpus)``; each row is one
        non-decreasing percent vector, priced by the base problem's batched
        vertex-range pricing.
        """
        vs = np.asarray(threshold_vectors, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.n_gpus:
            raise ValidationError(
                f"expected threshold vectors of shape (batch, {self.n_gpus}), "
                f"got {vs.shape}"
            )
        pcts = np.round(check_thresholds(vs)).astype(_INDEX)
        if bool(np.any(np.diff(pcts, axis=1) < 0)):
            raise ValidationError("thresholds must be non-decreasing")
        return self._base._cut_prices(
            self.cluster,
            self._ranges.cuts[pcts],
            self._ranges.within_many(pcts[:, :-1], pcts[:, 1:]),
        )

    def timeline(self, thresholds: Sequence[float]) -> Timeline:
        cuts, interior = self._vertex_cuts(thresholds)
        return self._base._cut_timeline(self.cluster, cuts, self._lanes, interior)

    def coordinate_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def naive_static_thresholds(self) -> tuple[float, ...]:
        """Cumulative peak-FLOPS cuts (:meth:`ClusterSpec.naive_static_cuts`)."""
        return self.cluster.naive_static_cuts()

    def sample(self, size: int, rng: RngLike = None) -> "MultiwayCcProblem":
        """Degree-weighted induced sample, as in the scalar CC problem."""
        sub = self._base.sample(size, rng=rng)
        return MultiwayCcProblem(
            sub.graph, self.cluster.without_fixed_overheads(), name=sub.name, base=sub
        )

    def sampling_cost_ms(self, size: int) -> float:
        return self._base.sampling_cost_ms(size)

    def default_sample_size(self) -> int:
        return self._base.default_sample_size()

    # -- real execution -------------------------------------------------------------------

    def run(self, thresholds: Sequence[float]) -> MultiwayCcRunResult:
        """Execute the generalized algorithm and merge all ranges."""
        cuts, interior = self._vertex_cuts(thresholds)
        labels, _, merge_sv = self._base._cut_labels(cuts)
        return MultiwayCcRunResult(
            thresholds=tuple(float(t) for t in thresholds),
            labels=labels,
            n_components=int(np.unique(labels).size),
            merge_sv=merge_sv,
            timeline=self._base._cut_timeline(
                self.cluster, cuts, self._lanes, interior
            ),
        )
