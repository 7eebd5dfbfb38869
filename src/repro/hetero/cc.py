"""Algorithm 1 — hybrid connected components (paper Section III).

Phase I cuts the vertex set: the CPU owns a prefix of the vertices, the GPU
the suffix, sized by the threshold.  Phase II finds components of the CPU
subgraph with chunked sequential DFS (one chunk per thread), of the GPU
subgraph with Shiloach-Vishkin, overlapped; a GPU pass over the cross edges
then merges the two labelings.

The reported **threshold is the GPU's vertex share in percent** — the axis
the paper plots (NaiveStatic lands at 88, NaiveAverage near 90).
Algorithm 1's ``n_cpu`` is simply ``n - n_gpu``.

Pricing model (see DESIGN.md §5 and the methodology notes in
EXPERIMENTS.md):

* The graph is dual-resident (host + device copies made at load time), so
  only split-dependent traffic — the CPU labels shipped for the merge —
  crosses PCIe during a run.
* CPU: Algorithm 1 line 6 chunking is *work balanced* (equal adjacency
  volume per thread); the heaviest chunk is bounded below by the heaviest
  single vertex (a traversal of one vertex's neighborhood is atomic).
* GPU: Shiloach-Vishkin is charged a constant number of effective full
  passes over the subgraph plus one launch per modeled O(log n) round.
* Sampled (identify) instances carry the *original degrees* of the sampled
  vertices as weights and price the full instance they represent
  (represented work with true per-vertex atomicity floors) on an
  overhead-free machine: an induced √n subgraph keeps almost no edges, so
  without the weights the identify step would be blind to the input's
  degree profile, and with fixed launch constants it would degenerate to a
  boundary threshold.  Uniform, importance (PPS-by-work), and literal
  (ablation) samplers are available.

:class:`CcProblem` prices any threshold in O(1)-ish using a
:class:`~repro.graphs.partition.CutProfile` and can :meth:`run` the real
algorithm to produce verified component labels.

The pricing, timeline and execution code works on a list of vertex cuts
over a :class:`~repro.platform.cluster.ClusterSpec`, so the CPU+GPU split
is the ``p = 2`` case of one kernel: this problem runs it on its 2-device
view with one cut, and :class:`~repro.hetero.multiway_cc.MultiwayCcProblem`
runs the same methods on a ``p``-device cluster with a cut vector.  An
accelerator range ``[lo, hi)`` sweeps ``(hi - lo) + 2 * (edges inside the
range)`` units; edges that cross a cut are left to the merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.problem import check_thresholds
from repro.graphs.graph import Graph
from repro.graphs.partition import CutProfile
from repro.graphs.shiloach_vishkin import (
    SvResult,
    modeled_sv_iterations,
    shiloach_vishkin,
    sv_on_edges,
)
from repro.platform.costmodel import (
    PROFILE_CC,
    PROFILE_MERGE,
    KernelProfile,
    PricingTables,
    effective_rate_per_ms,
)
from repro.platform.cluster import ClusterSpec, coerce_machine
from repro.platform.device import DeviceSpec
from repro.platform.machine import HeterogeneousMachine
from repro.platform.timeline import Timeline
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

_INDEX = np.int64

#: Bytes per vertex shipped over PCIe (a component label).
_BYTES_PER_VERTEX = 8

#: Trace lanes of the one accelerator: compute resource and label, then
#: the resource and label of the label transfer ahead of the merge.
_SCALAR_LANES = (("gpu", "phase2/cc-gpu-sv", "pcie", "phase2/h2d-cpu-labels"),)

#: Effective full passes over the GPU subgraph's edges+labels across all
#: Shiloach-Vishkin rounds.  The active set shrinks geometrically after the
#: first hooking round, so total traversal is a small constant multiple of
#: one pass; the *per-round launch latency* still scales with the modeled
#: O(log n) round count.
SV_EFFECTIVE_PASSES = 3.0

#: Same notion for the cross-edge merge (its contracted graph is shallow).
MERGE_EFFECTIVE_PASSES = 2.0

#: Streaming row-gather + membership filter during sample construction.
PROFILE_EDGE_SCAN = KernelProfile(
    name="edge-scan",
    cpu_efficiency=0.25,
    gpu_efficiency=0.25,
    bound="memory",
    bytes_per_unit=16.0,
)


@dataclass(frozen=True)
class CcRunResult:
    """Outcome of actually executing Algorithm 1.

    ``labels`` are canonical (minimum vertex id per component) over the
    full graph; ``n_components`` counts them.  ``gpu_sv``/``merge_sv`` carry
    the observed Shiloach-Vishkin round counts.
    """

    threshold: float
    labels: np.ndarray
    n_components: int
    gpu_sv: SvResult | None
    merge_sv: SvResult | None
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


def modeled_merge_iterations(n_cross_edges: int) -> int:
    """Hooking rounds modeled for the cross-edge merge: ``ceil(log2(c)) + 1``."""
    if n_cross_edges < 0:
        raise ValidationError("cross edge count must be non-negative")
    if n_cross_edges <= 1:
        return 1
    return int(math.ceil(math.log2(n_cross_edges))) + 1


class CcProblem:
    """Connected components of one graph on one machine.

    Parameters
    ----------
    graph:
        The input graph; vertex order is part of the instance.
    machine:
        Simulated platform.
    name:
        Dataset label for reports.
    vertex_weights:
        Original-graph degrees of this (sampled) instance's vertices; set
        by :meth:`sample`, ``None`` for full instances.
    """

    def __init__(
        self,
        graph: Graph,
        machine: "HeterogeneousMachine | ClusterSpec",
        name: str = "cc",
        vertex_weights: np.ndarray | None = None,
        work_scale: float = 1.0,
        rep_work: np.ndarray | None = None,
        sampling_method: str = "uniform",
        profile: KernelProfile | None = None,
    ) -> None:
        if work_scale <= 0:
            raise ValidationError("work_scale must be positive")
        if sampling_method not in ("uniform", "importance", "literal"):
            raise ValidationError(
                f"unknown sampling_method {sampling_method!r}"
            )
        self.graph = graph
        # A 2-device ClusterSpec works anywhere the legacy machine does.
        self.machine = coerce_machine(machine)
        # The p=2 cut-vector view every pricing path runs on.
        self._cluster = ClusterSpec.from_machine(self.machine)
        self.name = name
        self.work_scale = float(work_scale)
        self.sampling_method = sampling_method
        # The traversal kernel profile; injectable so a calibrated machine
        # drives the pricing (see repro.platform.calibration).
        self.profile = profile if profile is not None else PROFILE_CC
        self._cut = CutProfile(graph)
        if vertex_weights is not None:
            vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
            if vertex_weights.shape != (graph.n,):
                raise ValidationError(
                    f"vertex_weights must have shape ({graph.n},)"
                )
            # Per-vertex atomicity floor: the true traversal work of one
            # vertex (a vertex's own DFS visit cannot be split).
            atom = 1.0 + vertex_weights
            # Represented work: what this sampled vertex stands for in the
            # full instance.  Uniform sampling: each of the s draws stands
            # for n/s vertices of its own weight.  Importance (PPS) draws
            # pass an explicit Hansen-Hurwitz rep_work instead.
            if rep_work is None:
                rep_work = self.work_scale * atom
            else:
                rep_work = np.asarray(rep_work, dtype=np.float64)
                if rep_work.shape != (graph.n,):
                    raise ValidationError(
                        f"rep_work must have shape ({graph.n},)"
                    )
            tables = PricingTables.build(rep_work, atom=atom)
            self._rep_prefix = tables.rep_prefix
            self._atom_prefix_max = tables.prefix_max
        else:
            if rep_work is not None:
                raise ValidationError("rep_work requires vertex_weights")
            self._rep_prefix = None
            self._atom_prefix_max = None
        self.vertex_weights = vertex_weights

    @property
    def is_sample(self) -> bool:
        return self.vertex_weights is not None

    # -- threshold geometry ---------------------------------------------------

    def _cut_index(self, gpu_share_percent: float) -> int:
        """CPU-prefix length (Algorithm 1's n_cpu) for a GPU share threshold."""
        if not 0.0 <= gpu_share_percent <= 100.0:
            raise ValidationError(
                f"threshold must be in [0, 100], got {gpu_share_percent}"
            )
        n_gpu = int(round(self.graph.n * gpu_share_percent / 100.0))
        return self.graph.n - n_gpu

    # -- PartitionProblem protocol ----------------------------------------------

    def evaluate_ms(self, threshold: float) -> float:
        """Phase-II makespan at *threshold* (GPU vertex share, percent)."""
        return self.timeline(threshold).total_ms

    def timeline(self, threshold: float) -> Timeline:
        """Full span-level trace of Phase II at *threshold*."""
        return self._cut_timeline(
            self._cluster, [self._cut_index(threshold)], _SCALAR_LANES
        )

    def evaluate_many(self, thresholds: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms` over a threshold array.

        One vectorized pass over the O(1)-per-cut tables (the
        :class:`~repro.graphs.partition.CutProfile` for full instances,
        the sampled-instance :class:`PricingTables`) in :meth:`_cut_prices`,
        which mirrors the scalar evaluator's float64 arithmetic operation
        for operation so both paths price a threshold bit-identically
        (docs/PERFORMANCE.md).
        """
        ts = check_thresholds(thresholds)
        n = self.graph.n
        k = n - np.round(n * ts / 100.0).astype(_INDEX)
        return self._cut_prices(self._cluster, k.reshape(-1, 1)).reshape(ts.shape)

    def threshold_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def sample(
        self, size: int, rng: RngLike = None, method: str | None = None
    ) -> "CcProblem":
        """Section III-A.1: the subgraph induced by *size* random vertices.

        Methods (*method* defaults to this problem's ``sampling_method``):

        * ``"uniform"`` — the paper's sampler.  The sampled vertices keep
          their original degrees as weights (the extraction pass reads them
          for free) and price the full instance they represent.
        * ``"importance"`` — probability-proportional-to-size sampling by
          per-vertex work (1 + degree), the importance-sampling extension
          the paper leaves as future work.  Each draw then represents an
          equal share of the *work* (the Hansen-Hurwitz estimator), which
          lowers the variance of the prefix-work estimate on skewed degree
          sequences.
        * ``"literal"`` — the ablation: the bare induced subgraph on the
          real machine, no weights, no scaling.  This is the paper's
          procedure taken at face value; the identify step degenerates on
          it (see EXPERIMENTS.md, methodology note 3).

        Cost: the draw (O(n) for ``choice`` without replacement, or for the
        importance keys) plus :meth:`Graph.subgraph`'s O(s log m + k log s).
        Degrees come from the cut profile's degree prefix, O(s) for the
        kept vertices (one O(n) ``np.diff`` for ``importance``); no pass
        over the m edges.
        """
        size = min(size, self.graph.n)
        gen = as_generator(rng)
        method = method or self.sampling_method
        prefix = self._cut.degree_prefix
        if method == "importance":
            work = 1.0 + np.diff(prefix)
            # Efraimidis-Spirakis weighted sampling without replacement.
            keys = gen.random(self.graph.n) ** (1.0 / work)
            vs = np.sort(np.argpartition(keys, -size)[-size:])
            p = work / work.sum()
            rep = work[vs] / (size * p[vs])  # == work.sum()/size, constant
        elif method in ("uniform", "literal"):
            vs = np.sort(gen.choice(self.graph.n, size=size, replace=False))
            rep = None
        else:
            raise ValidationError(f"unknown sampling method {method!r}")
        sub = self.graph.subgraph(vs)
        if method == "literal":
            return CcProblem(sub, self.machine, name=f"{self.name}/literal{size}")
        return CcProblem(
            sub,
            self.machine.without_fixed_overheads(),
            name=f"{self.name}/sample{size}",
            vertex_weights=(prefix[vs + 1] - prefix[vs]).astype(np.float64),
            work_scale=self.graph.n / max(size, 1),
            rep_work=rep,
            profile=self.profile,
        )

    def sampling_cost_ms(self, size: int) -> float:
        """Cost of building ``G[S]`` via CSR slicing.

        A membership bitmap over the vertex set (one pass over ``n`` bits)
        plus a gather of the sampled vertices' adjacency lists (expected
        ``size * average_degree`` entries, each tested against the bitmap).
        """
        avg_deg = 2.0 * self.graph.m / max(self.graph.n, 1)
        work = float(size) * (1.0 + avg_deg) + self.graph.n / 8.0
        return work / effective_rate_per_ms(self.machine.cpu, PROFILE_EDGE_SCAN)

    def default_sample_size(self) -> int:
        """The paper's choice: √n vertices."""
        return max(2, math.isqrt(self.graph.n))

    def naive_static_threshold(self) -> float:
        """GPU share from the peak-FLOPS ratio (88 on the paper testbed)."""
        return 100.0 * self.machine.gpu_peak_share

    def gpu_only_threshold(self) -> float:
        return 100.0

    def run_overhead_ms(self, sample_size: int) -> float:
        """Fixed (work-independent) cost of one identify run on the sample.

        The identify search itself minimizes work-only time; the *wall
        clock* each run costs on the real machine still pays the launch
        constants — one CPU parallel-region launch, the Shiloach-Vishkin
        round launches, the merge launches, and one label transfer.
        """
        sv_launches = modeled_sv_iterations(max(sample_size, 2))
        merge_launches = 3
        return (
            self.machine.cpu.kernel_launch_us * 1e-3
            + (sv_launches + merge_launches) * self.machine.gpu.kernel_launch_us * 1e-3
            + self.machine.link.latency_us * 1e-3
        )

    def probe_cost_ms(self) -> float:
        """Actual execution cost of one identify run on this sampled instance.

        Decision values (``evaluate_ms``) are degree-weighted so the search
        can read the full input's balance, but the probe run itself only
        executes the miniature ``G[S]``: its real cost is the unweighted
        work at full-machine throughput.  Fixed launch constants are
        accounted separately via :meth:`run_overhead_ms`.
        """
        if not self.is_sample:
            raise ValidationError("probe_cost_ms is defined for sampled instances")
        work = float(self.graph.n + 2 * self.graph.m)
        cpu_rate = effective_rate_per_ms(self.machine.cpu, self.profile)
        gpu_rate = effective_rate_per_ms(self.machine.gpu, self.profile)
        combined = cpu_rate + gpu_rate / SV_EFFECTIVE_PASSES
        return work / combined

    # -- rounds (repro.hetero.dynamic_rebalance) -----------------------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (the vertex order)."""
        return self.graph.n

    def round_block(self, lo: int, hi: int) -> "CcProblem":
        """The induced subgraph on the contiguous vertex range ``[lo, hi)``,
        sliced from the edge list in O(log m + k) for its ``k`` edges.

        Cross-block edges fold into the final merge exactly as cross-cut
        edges do within a block, so pricing rounds on induced blocks keeps
        the Phase-II model's shape.  Full instances only (a sampled
        instance represents the whole input).  The edges are sorted by
        lower endpoint, so those starting in ``[lo, hi)`` are one slice;
        the block keeps the ones that also end below ``hi``, shifted by
        ``lo`` (the same graph as ``graph.subgraph(arange(lo, hi))``).
        """
        if self.is_sample:
            raise ValidationError("round_block is defined for full instances")
        if not 0 <= lo < hi <= self.graph.n:
            raise ValidationError(f"bad vertex block [{lo}, {hi})")
        u, v = self.graph.edge_u, self.graph.edge_v
        first, last = np.searchsorted(u, [lo, hi])
        u, v = u[first:last], v[first:last]
        keep = v < hi
        sub = Graph._canonical(hi - lo, u[keep] - lo, v[keep] - lo)
        return CcProblem(
            sub,
            self.machine,
            name=f"{self.name}/verts[{lo}:{hi})",
            sampling_method=self.sampling_method,
            profile=self.profile,
        )

    def cpu_share_at(self, threshold: float) -> float:
        """CPU share of the axis at *threshold* (the threshold is GPU share)."""
        return 1.0 - threshold / 100.0

    def threshold_for_cpu_share(self, share: float) -> float:
        """Threshold (GPU vertex share, percent) giving the CPU *share*."""
        return 100.0 * (1.0 - min(max(share, 0.0), 1.0))

    # -- vertex-range pricing: one kernel for 2 and p devices ---------------------
    # Vertex cuts on a ClusterSpec: the CPU owns [0, cuts[0]), accelerator i
    # owns [cuts[i], cuts[i + 1]), the last one up to n.  The CutProfile
    # counts the edges inside the CPU prefix and the last suffix; callers
    # with more than one accelerator pass the counts of the ranges between
    # (*interior*).

    def _cpu_ms(self, cpu: DeviceSpec, hi: int) -> float:
        """CPU time for vertices [0, hi): work-balanced chunks, vertex atomicity.

        Sampled instances price the full instance they represent: totals
        are represented work (each sampled vertex stands for its
        Hansen-Hurwitz share) while the atomicity floor — the heaviest
        single vertex's own traversal — stays at its true, unscaled
        magnitude (its weight is an original degree).
        """
        rate = effective_rate_per_ms(cpu, self.profile)
        threads = cpu.threads
        if self._rep_prefix is not None:
            work = float(self._rep_prefix[hi])
            atom = float(self._atom_prefix_max[hi])
        else:
            work = self.work_scale * float(hi + self._cut.cpu_degree_sum(hi))
            atom = 1.0 + self._cut.max_degree_below(hi)
        heaviest = max(work / threads, atom)
        return heaviest / (rate / threads) + cpu.kernel_launch_us * 1e-3

    def _gpu_ms(self, gpu: DeviceSpec, lo: int, hi: int, inside: int) -> float:
        """Shiloach-Vishkin time for vertices [lo, hi) holding *inside* edges."""
        if self._rep_prefix is not None:
            work = float(self._rep_prefix[hi] - self._rep_prefix[lo])
        else:
            work = self.work_scale * float((hi - lo) + 2 * inside)
        sweep = SV_EFFECTIVE_PASSES * work / effective_rate_per_ms(gpu, self.profile)
        return sweep + modeled_sv_iterations(hi - lo) * gpu.kernel_launch_us * 1e-3

    def _cut_timeline(
        self,
        cluster: ClusterSpec,
        cuts: Sequence[int],
        lanes: Sequence[tuple[str, str, str, str]],
        interior: Sequence[int] = (),
    ) -> Timeline:
        """Phase II for vertex *cuts* on *cluster*.

        ``lanes[i]`` names accelerator ``i``'s compute resource and label,
        then the resource and label of the label transfer that precedes a
        merge on it.
        """
        n = self.graph.n
        tl = Timeline()
        if n == 0:
            return tl
        bounds = [0, *cuts, n]
        inside = [self._cut.m_cpu(bounds[1]), *interior, self._cut.m_gpu(bounds[-2])]
        devices = cluster.devices
        tasks = []
        if bounds[1] > 0:
            cpu_ms = self._cpu_ms(devices[0], bounds[1])
            tasks.append(("cpu", "phase2/cc-cpu-dfs", cpu_ms))
        for i, (lane, label, _, _) in enumerate(lanes):
            lo, hi = bounds[i + 1], bounds[i + 2]
            if hi > lo:
                gpu_ms = self._gpu_ms(devices[i + 1], lo, hi, inside[i + 1])
                tasks.append((lane, label, gpu_ms))
        tl.overlap(tasks)
        # Merge across the cuts on the fastest accelerator (Algorithm 1
        # line 9) when more than one range is populated; the labels of the
        # other ranges ship over its link first.
        if len(tasks) > 1:
            mi = cluster.merge_device_index()
            lane, _, link_lane, link_label = lanes[mi - 1]
            foreign = n - (bounds[mi + 1] - bounds[mi])
            transfer_ms = cluster.links[mi - 1].transfer_ms(foreign * _BYTES_PER_VERTEX)
            tl.run(link_lane, link_label, transfer_ms)
            merge = devices[mi]
            m_cross = self.graph.m - sum(inside)
            merge_ms = (
                MERGE_EFFECTIVE_PASSES
                * (2.0 * m_cross + 1.0)
                / effective_rate_per_ms(merge, PROFILE_MERGE)
                + modeled_merge_iterations(m_cross) * merge.kernel_launch_us * 1e-3
            )
            tl.run(lane, "phase2/merge-cross-edges", merge_ms)
        return tl

    def _cut_prices(
        self,
        cluster: ClusterSpec,
        cuts: np.ndarray,
        interior: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched :meth:`_cut_timeline` makespans, one row of *cuts* each.

        *cuts* has shape ``(batch, p - 1)`` and *interior* ``(batch, p - 2)``.
        Every range quantity is a gather into the O(1)-per-cut tables, so
        the batch prices without any per-row Python.
        """
        n = self.graph.n
        batch = cuts.shape[0]
        if n == 0 or batch == 0:
            return np.zeros(batch, dtype=np.float64)
        # Range i covers [starts[i], ends[i]); the outer ends stay scalars.
        cols = list(cuts.T)
        starts, ends = [0, *cols], [*cols, n]
        sizes = [cols[0], *[hi - lo for lo, hi in zip(cols, ends[1:])]]
        inside = [
            self._cut.m_cpu_many(cols[0]),
            *(() if interior is None else interior.T),
            self._cut.m_gpu_many(cols[-1]),
        ]

        # CPU chunked DFS over the prefix [0, k).
        cpu = cluster.cpu
        k = cols[0]
        threads = cpu.threads
        if self._rep_prefix is not None:
            cpu_work = self._rep_prefix[k]
            atom = self._atom_prefix_max[k]
        else:
            cpu_work = self.work_scale * (
                k + self._cut.cpu_degree_sum_many(k)
            ).astype(np.float64)
            atom = 1.0 + self._cut.max_degree_below_many(k).astype(np.float64)
        heaviest = np.maximum(cpu_work / threads, atom)
        rate_cpu = effective_rate_per_ms(cpu, self.profile)
        cpu_ms = heaviest / (rate_cpu / threads) + cpu.kernel_launch_us * 1e-3
        longest = np.where(k > 0, cpu_ms, 0.0)

        # Shiloach-Vishkin on each accelerator range.
        for i, gpu in enumerate(cluster.accelerators, start=1):
            size = sizes[i]
            if self._rep_prefix is not None:
                work = self._rep_prefix[ends[i]] - self._rep_prefix[starts[i]]
            else:
                work = self.work_scale * (size + 2 * inside[i]).astype(np.float64)
            rate_gpu = effective_rate_per_ms(gpu, self.profile)
            sweep = SV_EFFECTIVE_PASSES * work / rate_gpu
            sv_iters = np.where(
                size <= 1,
                1,
                np.ceil(np.log2(np.maximum(size, 2))).astype(_INDEX) + 1,
            )
            gpu_ms = sweep + sv_iters * gpu.kernel_launch_us * 1e-3
            longest = np.maximum(longest, np.where(size > 0, gpu_ms, 0.0))

        # Merge across the cuts (runs only when two or more ranges are populated).
        merging = sum([size > 0 for size in sizes]) > 1
        mi = cluster.merge_device_index()
        merge = cluster.devices[mi]
        transfer = cluster.links[mi - 1].transfer_ms_many(
            (n - sizes[mi]) * _BYTES_PER_VERTEX
        )
        m_cross = self.graph.m - sum(inside)
        # modeled_merge_iterations uses math.log2; evaluate it once per
        # distinct cross-edge count so batch and scalar agree bit-exactly.
        uniq, inverse = np.unique(m_cross, return_inverse=True)
        merge_iters = np.array(
            [modeled_merge_iterations(int(c)) for c in uniq], dtype=_INDEX
        )[inverse].reshape(m_cross.shape)
        merge_ms = (
            MERGE_EFFECTIVE_PASSES
            * (2.0 * m_cross.astype(np.float64) + 1.0)
            / effective_rate_per_ms(merge, PROFILE_MERGE)
            + merge_iters * merge.kernel_launch_us * 1e-3
        )
        total = longest + np.where(merging, transfer, 0.0)
        return total + np.where(merging, merge_ms, 0.0)

    def _cut_labels(
        self, cuts: Sequence[int]
    ) -> tuple[np.ndarray, list[SvResult | None], SvResult | None]:
        """Execute the partitioned algorithm for vertex *cuts*.

        Components of each range's induced subgraph are computed with the
        vectorized Shiloach-Vishkin kernel (on the CPU range it stands in
        for the chunked DFS — identical output, the clock is modeled
        anyway), then merged over the edges that cross a cut.  Returns the
        canonical labels, each range's SV result (``None`` when the range
        is empty) and the merge's.
        """
        n = self.graph.n
        u, v = self.graph.edge_u, self.graph.edge_v  # canonical: u <= v
        bounds = [0, *cuts, n]
        labels = np.empty(n, dtype=_INDEX)
        ranges: list[SvResult | None] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sv = None
            if hi > lo:
                keep = (u >= lo) & (v < hi)
                sv = shiloach_vishkin(Graph(hi - lo, u[keep] - lo, v[keep] - lo))
                labels[lo:hi] = sv.labels + lo
            ranges.append(sv)
        crossing = np.searchsorted(cuts, u, side="right") != np.searchsorted(
            cuts, v, side="right"
        )
        merge_sv: SvResult | None = None
        if np.any(crossing):
            merge_sv = sv_on_edges(n, labels[u[crossing]], labels[v[crossing]])
            labels = merge_sv.labels[labels]
        return labels, ranges, merge_sv

    # -- real execution ------------------------------------------------------------

    def run(self, threshold: float) -> CcRunResult:
        """Execute Algorithm 1 at *threshold* and verify-ready labels."""
        k = self._cut_index(threshold)
        labels, ranges, merge_sv = self._cut_labels([k])
        return CcRunResult(
            threshold=float(threshold),
            labels=labels,
            n_components=int(np.unique(labels).size),
            gpu_sv=ranges[1],
            merge_sv=merge_sv,
            timeline=self._cut_timeline(self._cluster, [k], _SCALAR_LANES),
        )
