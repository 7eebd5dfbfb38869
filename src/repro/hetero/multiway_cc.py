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
  range ``[c_i, c_{i+1})`` (the last one up to 100).  Each range prices on
  its *own* device spec, so unequal accelerators pull the optimum away
  from equal shares.
* Phase II runs all devices overlapped; a merge pass on the fastest
  accelerator joins the per-range labelings over every cross-range edge,
  after the foreign labels ship over that device's interconnect link.
* Identify uses cyclic coordinate descent
  (:func:`repro.core.cut_vector.coordinate_descent`): each coordinate is a
  1-D search with the others held fixed, repeated until no coordinate
  moves — the natural vector generalization of the paper's 1-D searches.

Problems are built from a :class:`ClusterSpec` only;
:meth:`ClusterSpec.from_machine` widens a 2-device machine.  Unlike the
spmm pair, a ``p = 2`` cluster does not price exactly like
:class:`~repro.hetero.cc.CcProblem`: the accelerator's Shiloach-Vishkin
sweep here counts its range's whole adjacency volume (cross edges
included), where the scalar problem counts internal edges only.

Pricing needs "edges within [a, b)" for arbitrary percent ranges; a
:class:`RangeCutProfile` precomputes a 2-D dominance count over the
101-point percent grid so every range query is O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cut_vector import cuts_for_shares, shares_for_cuts
from repro.graphs.graph import Graph
from repro.graphs.shiloach_vishkin import (
    SvResult,
    modeled_sv_iterations,
    shiloach_vishkin,
    sv_on_edges,
)
from repro.hetero.cc import (
    MERGE_EFFECTIVE_PASSES,
    SV_EFFECTIVE_PASSES,
    PROFILE_EDGE_SCAN,
    modeled_merge_iterations,
)
from repro.platform.cluster import ClusterSpec
from repro.platform.costmodel import (
    PROFILE_CC,
    PROFILE_MERGE,
    effective_rate_per_ms,
)
from repro.platform.timeline import Timeline
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

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
_BYTES_PER_VERTEX = 8

#: Number of percent grid points (0..100 inclusive).
_GRID = 101


class RangeCutProfile:
    """O(1) edge counts for arbitrary percent ranges of the vertex axis.

    ``within(a, b)`` = edges with both endpoints in percent range
    ``[a, b)``; built from a 2-D cumulative histogram of each edge's
    (min-endpoint bucket, max-endpoint bucket).
    """

    def __init__(self, graph: Graph) -> None:
        self._n = graph.n
        self._m = graph.m
        # cut_positions[c] = first vertex at or above c percent.
        self._cuts = np.array(
            [int(round(graph.n * c / 100.0)) for c in range(_GRID)], dtype=_INDEX
        )
        if graph.m:
            lo_bucket = np.searchsorted(self._cuts, graph.edge_u, side="right") - 1
            hi_bucket = np.searchsorted(self._cuts, graph.edge_v, side="right") - 1
            hist = np.zeros((_GRID, _GRID), dtype=np.int64)
            np.add.at(hist, (lo_bucket, hi_bucket), 1)
            self._cum = hist.cumsum(axis=0).cumsum(axis=1)
        else:
            self._cum = np.zeros((_GRID, _GRID), dtype=np.int64)
        degrees = graph.degrees()
        self._degree_prefix = np.concatenate(([0], np.cumsum(degrees))).astype(_INDEX)
        self._degree_prefix_max = np.concatenate(
            ([0], np.maximum.accumulate(degrees) if graph.n else [])
        ).astype(_INDEX)

    def cut_index(self, percent: int) -> int:
        return int(self._cuts[percent])

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

    def degree_sum(self, a: int, b: int) -> int:
        """Adjacency volume of percent range [a, b)."""
        return int(
            self._degree_prefix[self.cut_index(b)]
            - self._degree_prefix[self.cut_index(a)]
        )

    def max_degree_below(self, percent: int) -> int:
        return int(self._degree_prefix_max[self.cut_index(percent)])

    @property
    def m(self) -> int:
        return self._m


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

    Device 0 (the host CPU) runs the DFS-style range; every accelerator
    runs Shiloach-Vishkin on its own range, priced on its *own* spec.
    """

    def __init__(
        self,
        graph: Graph,
        cluster: ClusterSpec,
        name: str = "multiway-cc",
        vertex_weights: np.ndarray | None = None,
        work_scale: float = 1.0,
    ) -> None:
        cluster = _gpu_cluster(cluster, "MultiwayCcProblem")
        if work_scale <= 0:
            raise ValidationError("work_scale must be positive")
        self.graph = graph
        self.cluster = cluster
        self.n_gpus = cluster.n_devices - 1
        self.name = name
        self.work_scale = float(work_scale)
        self._profile = RangeCutProfile(graph)
        if vertex_weights is not None:
            vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
            if vertex_weights.shape != (graph.n,):
                raise ValidationError(f"vertex_weights must have shape ({graph.n},)")
            atom = 1.0 + vertex_weights
            rep = self.work_scale * atom
            self._rep_prefix = np.concatenate(([0.0], np.cumsum(rep)))
            self._atom_prefix_max = np.concatenate(
                ([0.0], np.maximum.accumulate(atom))
            )
        else:
            self._rep_prefix = None
            self._atom_prefix_max = None
        self.vertex_weights = vertex_weights

    @property
    def n_cuts(self) -> int:
        """Vector length — the device-neutral alias for ``n_gpus``."""
        return self.n_gpus

    # -- threshold geometry ------------------------------------------------------

    def _check_vector(self, thresholds: Sequence[float]) -> list[int]:
        if len(thresholds) != self.n_gpus:
            raise ValidationError(
                f"expected {self.n_gpus} thresholds, got {len(thresholds)}"
            )
        cuts = [int(round(t)) for t in thresholds]
        prev = 0
        for c in cuts:
            if not 0 <= c <= 100:
                raise ValidationError(f"threshold {c} out of [0, 100]")
            if c < prev:
                raise ValidationError(
                    f"thresholds must be non-decreasing, got {thresholds}"
                )
            prev = c
        return cuts

    def _ranges(self, thresholds: Sequence[float]) -> list[tuple[int, int]]:
        """Percent ranges per device: CPU first, then each GPU."""
        cuts = self._check_vector(thresholds)
        bounds = [0, *cuts, 100]
        return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]

    # -- pricing --------------------------------------------------------------------

    def _range_vertices(self, a: int, b: int) -> int:
        return self._profile.cut_index(b) - self._profile.cut_index(a)

    def _range_work(self, a: int, b: int) -> float:
        if self._rep_prefix is not None:
            lo = self._profile.cut_index(a)
            hi = self._profile.cut_index(b)
            return float(self._rep_prefix[hi] - self._rep_prefix[lo])
        return self.work_scale * float(
            self._range_vertices(a, b) + self._profile.degree_sum(a, b)
        )

    def _cpu_ms(self, a: int, b: int) -> float:
        work = self._range_work(a, b)
        if work == 0:
            return 0.0
        cpu = self.cluster.devices[0]
        rate = effective_rate_per_ms(cpu, PROFILE_CC)
        threads = cpu.threads
        if self._atom_prefix_max is not None:
            atom = float(self._atom_prefix_max[self._profile.cut_index(b)])
        else:
            atom = 1.0 + self._profile.max_degree_below(b)
        heaviest = max(work / threads, atom)
        return heaviest / (rate / threads) + cpu.kernel_launch_us * 1e-3

    def _gpu_ms(self, device: int, a: int, b: int) -> float:
        """SV time for range [a, b) on accelerator *device* (0-based)."""
        work = self._range_work(a, b)
        if work == 0:
            return 0.0
        gpu = self.cluster.devices[device + 1]
        n_range = max(self._range_vertices(a, b), 2)
        rate = effective_rate_per_ms(gpu, PROFILE_CC)
        sweep = SV_EFFECTIVE_PASSES * work / rate
        launches = modeled_sv_iterations(n_range) * gpu.kernel_launch_us * 1e-3
        return sweep + launches

    def _pipeline(self, thresholds: Sequence[float]) -> Timeline:
        ranges = self._ranges(thresholds)
        tl = Timeline()
        if self.graph.n == 0:
            return tl
        tasks = []
        cpu_range = ranges[0]
        if self._range_vertices(*cpu_range) > 0:
            tasks.append(("cpu", "phase2/cc-cpu-dfs", self._cpu_ms(*cpu_range)))
        for i, rng in enumerate(ranges[1:]):
            if self._range_vertices(*rng) > 0:
                tasks.append(
                    (f"gpu{i}", f"phase2/cc-gpu{i}-sv", self._gpu_ms(i, *rng))
                )
        tl.overlap(tasks)
        # Merge on the fastest accelerator over every cross-range edge;
        # non-resident labels ship over that device's link first.
        within = sum(self._profile.within(a, b) for a, b in ranges)
        cross = self._profile.m - within
        active = sum(1 for r in ranges if self._range_vertices(*r) > 0)
        if active > 1:
            mi = self.cluster.merge_device_index()
            merge_dev = self.cluster.devices[mi]
            foreign_vertices = self.graph.n - self._range_vertices(*ranges[mi])
            tl.run(
                self.cluster.interconnect.resource_for(mi),
                "phase2/h2d-labels",
                self.cluster.link_for(mi).transfer_ms(
                    foreign_vertices * _BYTES_PER_VERTEX
                ),
            )
            merge_rate = effective_rate_per_ms(merge_dev, PROFILE_MERGE)
            merge_ms = (
                MERGE_EFFECTIVE_PASSES * (2.0 * cross + 1.0) / merge_rate
                + modeled_merge_iterations(cross)
                * merge_dev.kernel_launch_us
                * 1e-3
            )
            tl.run(f"gpu{mi - 1}", "phase2/merge-cross-edges", merge_ms)
        return tl

    # -- vector-threshold problem interface --------------------------------------------

    def evaluate_ms(self, thresholds: Sequence[float]) -> float:
        return self._pipeline(thresholds).total_ms

    def evaluate_many(self, threshold_vectors: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms` over rows of threshold vectors.

        *threshold_vectors* has shape ``(batch, n_gpus)``; each row is one
        non-decreasing percent vector.  Every range quantity the scalar
        pipeline derives from :class:`RangeCutProfile` is a table gather, so
        the whole batch prices in a handful of array operations.
        """
        vs = np.asarray(threshold_vectors, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.n_gpus:
            raise ValidationError(
                f"expected threshold vectors of shape (batch, {self.n_gpus}), "
                f"got {vs.shape}"
            )
        batch = vs.shape[0]
        if batch == 0:
            return np.zeros(0, dtype=np.float64)
        cuts = np.round(vs).astype(_INDEX)
        if int(cuts.min()) < 0 or int(cuts.max()) > 100:
            raise ValidationError("thresholds must be in [0, 100]")
        if bool(np.any(np.diff(cuts, axis=1) < 0)):
            raise ValidationError("thresholds must be non-decreasing")
        if self.graph.n == 0:
            return np.zeros(batch, dtype=np.float64)
        prof = self._profile
        bounds = np.concatenate(
            (
                np.zeros((batch, 1), dtype=_INDEX),
                cuts,
                np.full((batch, 1), 100, dtype=_INDEX),
            ),
            axis=1,
        )
        idx = prof._cuts[bounds]  # vertex cut indices, (batch, n_gpus + 2)
        nv = idx[:, 1:] - idx[:, :-1]  # vertices per range
        if self._rep_prefix is not None:
            work = self._rep_prefix[idx[:, 1:]] - self._rep_prefix[idx[:, :-1]]
        else:
            deg = prof._degree_prefix[idx[:, 1:]] - prof._degree_prefix[idx[:, :-1]]
            work = self.work_scale * (nv + deg).astype(np.float64)
        cpu = self.cluster.devices[0]
        rate_c = effective_rate_per_ms(cpu, PROFILE_CC)
        threads = cpu.threads
        if self._atom_prefix_max is not None:
            atom = self._atom_prefix_max[idx[:, 1]]
        else:
            atom = 1.0 + prof._degree_prefix_max[idx[:, 1]].astype(np.float64)
        cpu_ms = (
            np.maximum(work[:, 0] / threads, atom) / (rate_c / threads)
            + cpu.kernel_launch_us * 1e-3
        )
        # Ranges with vertices always carry work (work_scale > 0), so the
        # scalar path's per-device zero-work early-outs reduce to nv masks.
        n_range = np.maximum(nv[:, 1:], 2)
        sv_iters = np.ceil(np.log2(n_range)).astype(_INDEX) + 1
        longest = np.where(nv[:, 0] > 0, cpu_ms, 0.0)
        for i in range(self.n_gpus):
            gpu = self.cluster.devices[i + 1]
            rate_g = effective_rate_per_ms(gpu, PROFILE_CC)
            gpu_ms = (
                SV_EFFECTIVE_PASSES * work[:, i + 1] / rate_g
                + sv_iters[:, i] * gpu.kernel_launch_us * 1e-3
            )
            longest = np.maximum(
                longest, np.where(nv[:, i + 1] > 0, gpu_ms, 0.0)
            )
        within = prof.within_many(bounds[:, :-1], bounds[:, 1:]).sum(axis=1)
        cross = prof.m - within
        active = (nv > 0).sum(axis=1)
        mi = self.cluster.merge_device_index()
        merge_dev = self.cluster.devices[mi]
        foreign = self.graph.n - nv[:, mi]
        transfer = self.cluster.link_for(mi).transfer_ms_many(
            foreign * _BYTES_PER_VERTEX
        )
        uniq, inverse = np.unique(cross, return_inverse=True)
        merge_iters = np.array(
            [modeled_merge_iterations(int(c)) for c in uniq], dtype=_INDEX
        )[inverse].reshape(cross.shape)
        merge_rate = effective_rate_per_ms(merge_dev, PROFILE_MERGE)
        merge_ms = (
            MERGE_EFFECTIVE_PASSES * (2.0 * cross + 1.0) / merge_rate
            + merge_iters * merge_dev.kernel_launch_us * 1e-3
        )
        return np.where(active > 1, (longest + transfer) + merge_ms, longest)

    def timeline(self, thresholds: Sequence[float]) -> Timeline:
        return self._pipeline(thresholds)

    def coordinate_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def sample(self, size: int, rng: RngLike = None) -> "MultiwayCcProblem":
        """Degree-weighted induced sample, as in the scalar CC problem."""
        size = min(size, self.graph.n)
        gen = as_generator(rng)
        vs = np.sort(gen.choice(self.graph.n, size=size, replace=False))
        sub = self.graph.subgraph(vs)
        return MultiwayCcProblem(
            sub,
            self.cluster.without_fixed_overheads(),
            name=f"{self.name}/sample{size}",
            vertex_weights=self.graph.degrees()[vs].astype(np.float64),
            work_scale=self.graph.n / max(size, 1),
        )

    def sampling_cost_ms(self, size: int) -> float:
        avg_deg = 2.0 * self.graph.m / max(self.graph.n, 1)
        work = float(size) * (1.0 + avg_deg) + self.graph.n / 8.0
        return work / effective_rate_per_ms(
            self.cluster.devices[0], PROFILE_EDGE_SCAN
        )

    def default_sample_size(self) -> int:
        return max(2, math.isqrt(self.graph.n))

    def naive_static_thresholds(self) -> tuple[float, ...]:
        """Cumulative peak-FLOPS cuts (:meth:`ClusterSpec.naive_static_cuts`)."""
        return self.cluster.naive_static_cuts()

    # -- rounds (repro.hetero.dynamic_rebalance) ------------------------------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (vertices)."""
        return self.graph.n

    def round_block(self, lo: int, hi: int) -> "MultiwayCcProblem":
        """The induced subgraph on vertices ``[lo, hi)``, same cluster."""
        if self.vertex_weights is not None or self.work_scale != 1.0:
            raise ValidationError("round_block is defined for full instances")
        if not 0 <= lo < hi <= self.graph.n:
            raise ValidationError(f"bad vertex block [{lo}, {hi})")
        sub = self.graph.subgraph(np.arange(lo, hi, dtype=_INDEX))
        return MultiwayCcProblem(
            sub, self.cluster, name=f"{self.name}/verts[{lo}:{hi})"
        )

    def device_shares_at(self, thresholds: Sequence[float]) -> tuple[float, ...]:
        """Per-device vertex shares implied by a cumulative cut vector."""
        return shares_for_cuts(self._check_vector(thresholds))

    def thresholds_for_device_shares(
        self, shares: Sequence[float]
    ) -> tuple[float, ...]:
        """Cumulative cut vector giving each device its requested share."""
        return cuts_for_shares(shares, self.n_gpus + 1)

    # -- real execution -------------------------------------------------------------------

    def run(self, thresholds: Sequence[float]) -> MultiwayCcRunResult:
        """Execute the generalized algorithm and merge all ranges."""
        ranges = self._ranges(thresholds)
        n = self.graph.n
        labels = np.empty(n, dtype=_INDEX)
        bounds = [self._profile.cut_index(p) for p in [0, *[b for _, b in ranges]]]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                sub = self.graph.subgraph(np.arange(lo, hi, dtype=_INDEX))
                labels[lo:hi] = shiloach_vishkin(sub).labels + lo
        # Merge over all edges whose endpoints fall in different ranges.
        range_of = np.searchsorted(np.array(bounds[1:]), np.arange(n), side="right")
        crossing = range_of[self.graph.edge_u] != range_of[self.graph.edge_v]
        merge_sv = None
        if np.any(crossing):
            merge_sv = sv_on_edges(
                n,
                labels[self.graph.edge_u[crossing]],
                labels[self.graph.edge_v[crossing]],
            )
            labels = merge_sv.labels[labels]
        return MultiwayCcRunResult(
            thresholds=tuple(float(t) for t in thresholds),
            labels=labels,
            n_components=int(np.unique(labels).size) if n else 0,
            merge_sv=merge_sv,
            timeline=self._pipeline(thresholds),
        )


# The identify search moved to the framework layer so any cut-vector
# problem (not just CC) can use it; re-exported here because this module
# introduced it and the historical import path is public API.
from repro.core.cut_vector import coordinate_descent  # noqa: E402  (re-export)

__all__ = [
    "RangeCutProfile",
    "MultiwayCcProblem",
    "MultiwayCcRunResult",
    "coordinate_descent",
]
