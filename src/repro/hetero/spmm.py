"""Algorithm 2 — row-split sparse matrix-matrix multiplication (Section IV).

``C = A x B`` with the rows of ``A`` cut into a CPU prefix and a GPU suffix
so that the prefix carries ``r``% of the *work volume* — the paper's split
percentage.  Work volume is exact here: the load vector ``L_AB = |A| x V_B``
gives each row's multiply count, and the split row is the prefix-sum
crossing (Algorithm 2, lines 1-4).

**The threshold is the CPU work share ``r`` in percent** (0 = everything on
the GPU).  NaiveStatic puts ``r`` at the CPU's peak-FLOPS fraction (~12 on
the paper's testbed); on irregular inputs the true optimum sits far from
it, because effective sparse throughput has little to do with peak FLOPS —
the gap this case study demonstrates.

:class:`SpmmProblem` prices any split in O(threads) from prefix/suffix
precomputations (the GPU side uses the row-per-warp quantization model of
:func:`repro.platform.costmodel.gpu_row_per_warp_time`) and implements the
Section IV identify probe (:meth:`race_probe`).  Sampled instances price
the full instance they represent (represented-work arrays with true
per-row atomicity floors); three samplers are available — the paper's
principal submatrix plus row and importance-row variants.

The pricing, timeline and execution code works on a list of row cuts over
a :class:`~repro.platform.cluster.ClusterSpec`, so the CPU+GPU split is
the ``p = 2`` case of one kernel: this problem runs it on its 2-device
view with one cut, and :class:`~repro.hetero.multiway_spmm.MultiwaySpmmProblem`
runs the same methods on a ``p``-device cluster with a cut vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.problem import check_thresholds
from repro.platform.costmodel import (
    PROFILE_SPGEMM,
    KernelProfile,
    PricingTables,
    cpu_chunked_time_many,
    effective_rate_per_ms,
    gpu_row_per_warp_time_many,
)
from repro.platform.cluster import ClusterSpec, coerce_machine
from repro.platform.device import DeviceSpec
from repro.platform.machine import HeterogeneousMachine
from repro.platform.timeline import SpanQueue, Timeline
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import vstack
from repro.sparse.sampling import deterministic_block
from repro.sparse.spgemm import estimate_compression, load_vector, spgemm
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

_INDEX = np.int64

#: Bytes per CSR nonzero on the wire (int64 index + float64 value).
_BYTES_PER_NNZ = 16

#: Trace lanes of the one accelerator: compute resource and label, then
#: result-transfer resource and label.  They keep the scalar problem's
#: span names (``gpu``/``pcie``) stable across the shared cut kernel.
_SCALAR_LANES = (("gpu", "phase2/spgemm-gpu", "pcie", "phase2/d2h-result"),)

#: Streaming gather of sampled rows plus column filtering during sample
#: construction (same rationale as the CC edge scan).
PROFILE_NNZ_SCAN = KernelProfile(
    name="nnz-scan",
    cpu_efficiency=0.25,
    gpu_efficiency=0.25,
    bound="memory",
    bytes_per_unit=16.0,
)


@dataclass(frozen=True)
class SpmmRunResult:
    """Outcome of actually executing Algorithm 2."""

    threshold: float
    split_row: int
    product: CsrMatrix
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


class SpmmProblem:
    """One ``A x B`` instance on one machine.

    ``B`` defaults to ``A`` (the paper multiplies each matrix by itself for
    compatibility).  When ``B is A``, sampling draws a *principal*
    submatrix — the same random index set for rows and columns — so the
    sampled product ``A' x A'`` is well defined and structure-preserving.
    """

    def __init__(
        self,
        a: CsrMatrix,
        machine: "HeterogeneousMachine | ClusterSpec",
        b: CsrMatrix | None = None,
        name: str = "spmm",
        work_scale: float = 1.0,
        row_scale: float = 1.0,
        rep: np.ndarray | None = None,
        compression: float | None = None,
        sampling_method: str = "principal",
        profile: KernelProfile | None = None,
    ) -> None:
        if b is not None and b is not a and a.n_cols != b.n_rows:
            raise ValidationError(f"incompatible operands {a.shape} x {b.shape}")
        if work_scale <= 0 or row_scale <= 0:
            raise ValidationError("work_scale and row_scale must be positive")
        if sampling_method not in ("principal", "rows", "importance"):
            raise ValidationError(f"unknown sampling_method {sampling_method!r}")
        self.a = a
        self.b = b if b is not None else a
        # A 2-device ClusterSpec works anywhere the legacy machine does.
        self.machine = coerce_machine(machine)
        # The p=2 cut-vector view every pricing path runs on.
        self._cluster = ClusterSpec.from_machine(self.machine)
        self.name = name
        self.sampling_method = sampling_method
        # Scaled identify pricing (see CcProblem): a sampled instance prices
        # the full instance it represents.  work_scale multiplies work
        # totals ((n/s)^3 for a principal submatrix — rows, row lengths, and
        # B-row lengths all thin; n/s for a row sample); row_scale restores
        # a single row's work for the atomicity and straggler floors
        # ((n/s)^2 for a principal submatrix, 1 for row samples, whose rows
        # keep all their elements).  `rep` overrides the uniform work_scale
        # with per-row representation multipliers (importance sampling).
        self.work_scale = float(work_scale)
        self.row_scale = float(row_scale)
        if rep is not None:
            rep = np.asarray(rep, dtype=np.float64)
            if rep.shape != (a.n_rows,):
                raise ValidationError(f"rep must have shape ({a.n_rows},)")
        self._rep = rep
        self._compression_override = compression
        # The SpGEMM kernel profile; injectable so a machine calibrated with
        # repro.platform.calibration drives the pricing (see the
        # calibrate_machine example).
        self.profile = profile if profile is not None else PROFILE_SPGEMM
        self._precompute()

    def _precompute(self) -> None:
        a, b = self.a, self.b
        self._row_mults = load_vector(a, b)  # multiplies per row of A
        flops = 2.0 * self._row_mults
        rep = self._rep if self._rep is not None else np.full(a.n_rows, self.work_scale)
        self._flop_prefix = np.concatenate(([0.0], np.cumsum(flops)))
        # One PricingTables per instance: represented flop prefix sums,
        # per-row atomicity prefix/suffix maxima, and warp-quantized
        # (row-per-warp) represented prefix sums — every aggregate the
        # analytic evaluators gather per threshold (docs/PERFORMANCE.md).
        quantum = self.machine.gpu.warp_size * self.machine.gpu.flops_per_cycle
        self._pricing = PricingTables.build(flops, rep=rep, quantum=quantum)
        self._flop_prefix_max = self._pricing.prefix_max
        # Represented (full-instance-equivalent) work for pricing.
        self._rep_flop_prefix = self._pricing.rep_prefix
        self._rep_mults = self._row_mults * rep
        # Cached prefix sum + total of the represented multiplies so every
        # split-row lookup reuses one table instead of re-reducing the
        # work vector (split_index_for_share semantics, see _split_index).
        self._rep_mults_prefix = np.cumsum(self._rep_mults)
        self._rep_mults_total = float(self._rep_mults.sum())
        self._nnz_prefix = np.concatenate(([0], np.cumsum(a.row_nnz()))).astype(_INDEX)
        padded = np.ceil(flops / quantum) * quantum
        self._padded_prefix = np.concatenate(([0.0], np.cumsum(padded)))
        self._rep_padded_prefix = self._pricing.padded_prefix
        # Suffix max of per-row flops for the straggler bound.
        self._flop_suffix_max = self._pricing.suffix_max
        self._total_flops = float(self._flop_prefix[-1])
        # Output-size ratio for the result-transfer term, measured on a
        # deterministic row sample (exact symbolic SpGEMM would cost as much
        # as the product); samples inherit their parent's value.
        if self._compression_override is not None:
            self._compression = float(self._compression_override)
        else:
            self._compression = estimate_compression(a, b)

    # -- threshold geometry --------------------------------------------------------

    def split_row(self, threshold: float) -> int:
        """First GPU row index for CPU work share *threshold* (percent)."""
        if not 0.0 <= threshold <= 100.0:
            raise ValidationError(f"threshold must be in [0, 100], got {threshold}")
        # Shares are computed on *represented* work so a sampled instance's
        # split corresponds to the full instance's (identical for full
        # problems, where the representation is a constant).
        return self._split_index(threshold / 100.0)

    def _split_index(self, share: float) -> int:
        """:func:`split_index_for_share` over the cached prefix table.

        Same semantics as the free function, without re-reducing the work
        vector on every probe.
        """
        arr = self._rep_mults
        if arr.size == 0:
            return 0
        if self._rep_mults_total == 0.0:
            return int(round(share * arr.size))
        target = share * self._rep_mults_total
        idx = int(np.searchsorted(self._rep_mults_prefix, target, side="left"))
        if idx < arr.size and share > 0.0:
            idx += 1
        return min(idx, arr.size) if share > 0.0 else 0

    def _split_many(self, shares: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_split_index` over an array of shares."""
        arr = self._rep_mults
        if arr.size == 0:
            return np.zeros(shares.shape, dtype=_INDEX)
        if self._rep_mults_total == 0.0:
            return np.round(shares * arr.size).astype(_INDEX)
        idx = np.searchsorted(
            self._rep_mults_prefix, shares * self._rep_mults_total, side="left"
        ).astype(_INDEX)
        idx = np.where((idx < arr.size) & (shares > 0.0), idx + 1, idx)
        return np.where(shares > 0.0, np.minimum(idx, arr.size), 0)

    # -- PartitionProblem protocol ----------------------------------------------------

    def evaluate_ms(self, threshold: float) -> float:
        return self.timeline(threshold).total_ms

    def evaluate_many(self, thresholds: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms`: one gather over the pricing tables.

        Splits come from the cached represented-work prefix
        (:meth:`_split_many`); makespans from :meth:`_cut_prices`, which
        mirrors the scalar float64 arithmetic operation for operation
        (docs/PERFORMANCE.md).
        """
        ts = check_thresholds(thresholds)
        if ts.size == 0:
            return np.zeros(0, dtype=np.float64)
        splits = self._split_many(ts.reshape(-1, 1) / 100.0)
        return self._cut_prices(self._cluster, splits).reshape(ts.shape)

    def timeline(self, threshold: float) -> Timeline:
        return self._cut_timeline(
            self._cluster, [self.split_row(threshold)], _SCALAR_LANES
        )

    def threshold_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def sample(
        self, size: int, rng: RngLike = None, method: str | None = None
    ) -> "SpmmProblem":
        """Step 1 samplers (*method* defaults to ``sampling_method``):

        * ``"principal"`` — Section IV-A.a: a random principal
          ``size x size`` submatrix (the paper's sampler; requires square
          operands).  Work thins cubically, one row's work quadratically.
        * ``"rows"`` — *size* uniformly random rows of ``A`` against the
          full ``B``: rows keep their true work, so atomicity floors are
          exact and the quantization profile is undistorted (the
          principal sampler's weakness on ultra-sparse inputs).
        * ``"importance"`` — rows drawn proportional to their load-vector
          work, each representing an equal work share (Hansen-Hurwitz);
          the future-work extension, strongest on skewed inputs.
        """
        gen = as_generator(rng)
        method = method or self.sampling_method
        if method == "principal":
            if self.a.n_rows != self.a.n_cols or self.b is not self.a:
                raise ValidationError(
                    "principal sampling requires a square A multiplied by itself"
                )
            size = min(size, self.a.n_rows, self.a.n_cols)
            sel = np.sort(gen.choice(self.a.n_rows, size=size, replace=False))
            sub = _principal_submatrix(self.a, sel)
            ratio = self.a.n_rows / max(size, 1)
            return SpmmProblem(
                sub,
                self.machine.without_fixed_overheads(),
                name=f"{self.name}/sample{size}",
                work_scale=ratio**3,
                row_scale=ratio**2,
                compression=self._compression,
                profile=self.profile,
            )
        size = min(size, self.a.n_rows)
        ratio = self.a.n_rows / max(size, 1)
        if method == "rows":
            rows = np.sort(gen.choice(self.a.n_rows, size=size, replace=False))
            rep = None
            work_scale = ratio
        elif method == "importance":
            work = np.maximum(self._row_mults, 1.0)
            keys = gen.random(self.a.n_rows) ** (1.0 / work)
            rows = np.sort(np.argpartition(keys, -size)[-size:])
            p = work / work.sum()
            rep = 1.0 / (size * p[rows])
            work_scale = ratio
        else:
            raise ValidationError(f"unknown sampling method {method!r}")
        sub_rows = self.a.select_rows(rows)
        return SpmmProblem(
            sub_rows,
            self.machine.without_fixed_overheads(),
            b=self.b,
            name=f"{self.name}/{method}{size}",
            work_scale=work_scale,
            row_scale=1.0,
            rep=rep,
            compression=self._compression,
            profile=self.profile,
        )

    def sampling_cost_ms(self, size: int) -> float:
        """Cost of extracting the principal submatrix.

        Gathers the sampled rows (their nonzeros, ~``nnz * size/n``) and
        filters their columns against a membership bitmap; charged as a
        streaming scan.
        """
        frac = size / max(self.a.n_rows, 1)
        work = float(self.a.nnz) * frac + float(size) + self.a.n_cols / 8.0
        return work / effective_rate_per_ms(self.machine.cpu, PROFILE_NNZ_SCAN)

    def run_overhead_ms(self, sample_size: int) -> float:
        """Fixed cost of one identify run: Phase-I launch, two device
        launches, one result transfer."""
        return (
            3 * self.machine.gpu.kernel_launch_us * 1e-3
            + self.machine.cpu.kernel_launch_us * 1e-3
            + self.machine.link.latency_us * 1e-3
        )

    @property
    def is_sample(self) -> bool:
        """Whether this instance prices a larger input it was sampled from.

        A sample that keeps every row has nothing to scale up: it is the
        input itself, and its probe runs cost what they price.
        """
        return self.work_scale != 1.0 or self._rep is not None

    def probe_cost_ms(self) -> float:
        """Actual cost of one identify probe on a sampled instance.

        A probe run multiplies the *sample* operands; its real cost is the
        sample's own (unscaled) work at combined machine throughput, not
        the scaled decision value ``evaluate_ms`` reports.
        """
        if not self.is_sample:
            raise ValidationError("probe_cost_ms is defined for sampled instances")
        work = float(self._flop_prefix[-1])
        cpu_rate = effective_rate_per_ms(self.machine.cpu, self.profile)
        gpu_rate = effective_rate_per_ms(self.machine.gpu, self.profile)
        return work / (cpu_rate + gpu_rate)

    def default_sample_size(self) -> int:
        """The paper's choice: an ``n/4 x n/4`` principal submatrix (K=4)."""
        return max(2, self.a.n_rows // 4)

    def naive_static_threshold(self) -> float:
        """CPU work share from the peak-FLOPS ratio (~12 on the testbed)."""
        return 100.0 * (1.0 - self.machine.gpu_peak_share)

    def gpu_only_threshold(self) -> float:
        return 0.0

    def phase1_setup_ms(self) -> float:
        """One-time Phase-I cost: computing ``L_AB`` on the GPU and scanning it.

        Threshold independent, so charged once per instance rather than per
        probe run (any implementation caches the load vector between runs).
        """
        work = 2.0 * self.a.nnz + self.a.n_rows
        return self.machine.gpu_iterative_ms(work, 1, PROFILE_NNZ_SCAN)

    # -- identify probe (Section IV-A.b) ---------------------------------------------

    def race_probe(self) -> tuple[float, float]:
        """Race the whole instance on both devices; derive the coarse split.

        Both devices multiply the full ``A' x B'`` independently; when the
        first finishes, the work fraction the slower device has completed
        fixes the effective rate ratio, and the balanced split follows as
        ``r = rate_cpu / (rate_cpu + rate_gpu)``.  Cost is the winner's
        runtime (the race stops there).
        """
        n = self.a.n_rows
        cpu_ms = self._cpu_ms(self.machine.cpu, n)
        gpu_ms = self._gpu_ms(self.machine.gpu, 0, n)
        if cpu_ms <= 0 and gpu_ms <= 0:
            return 50.0, 0.0
        if cpu_ms <= 0:
            return 100.0, gpu_ms
        if gpu_ms <= 0:
            return 0.0, cpu_ms
        ratio = gpu_ms / cpu_ms  # rate_cpu / rate_gpu
        threshold = 100.0 * ratio / (1.0 + ratio)
        # The race executes the real (unscaled) sample product; scaled
        # decision values are divided back down for the wall-clock cost by
        # the mean representation factor.
        mean_rep = (
            self._rep_flop_prefix[-1] / self._flop_prefix[-1]
            if self._flop_prefix[-1]
            else 1.0
        )
        return threshold, min(cpu_ms, gpu_ms) / mean_rep

    # -- row-range pricing: one kernel for 2 and p devices ----------------------------
    # Row cuts on a ClusterSpec: the CPU owns rows [0, cuts[0]), accelerator
    # i owns [cuts[i], cuts[i + 1]), the last one up to n.

    def _cpu_ms(self, cpu: DeviceSpec, hi: int) -> float:
        """CPU time for rows [0, hi): work-balanced chunks, row atomicity.

        Sampled instances price the represented full instance: totals scale
        by ``work_scale``, a single row's atomicity floor by ``row_scale``.
        """
        if hi <= 0:
            return 0.0
        rate = effective_rate_per_ms(cpu, self.profile)
        work = float(self._rep_flop_prefix[hi])
        threads = cpu.threads
        atom = self.row_scale * float(self._flop_prefix_max[hi])
        heaviest = max(work / threads, atom)
        return heaviest / (rate / threads) + cpu.kernel_launch_us * 1e-3

    def _gpu_ms(self, gpu: DeviceSpec, lo: int, hi: int) -> float:
        """Accelerator time for rows [lo, hi): row-per-warp model (scaled).

        The straggler floor is the heaviest row of the whole suffix
        ``[lo, n)``, not only of the range.
        """
        if hi <= lo:
            return 0.0
        padded_work = float(self._rep_padded_prefix[hi] - self._rep_padded_prefix[lo])
        rate = effective_rate_per_ms(gpu, self.profile)
        throughput = padded_work / rate
        warp_rate = rate * gpu.warp_size / gpu.cores
        straggler = self.row_scale * float(self._flop_suffix_max[lo]) / warp_rate
        return max(throughput, straggler) + gpu.kernel_launch_us * 1e-3

    def _result_bytes(self, lo, hi):
        """Bytes of result rows [lo, hi) (ints or aligned index arrays)."""
        mults = (self._rep_flop_prefix[hi] - self._rep_flop_prefix[lo]) / 2.0
        return mults * self._compression * _BYTES_PER_NNZ

    def _cut_timeline(
        self,
        cluster: ClusterSpec,
        cuts: Sequence[int],
        lanes: Sequence[tuple[str, str, str, str]],
    ) -> Timeline:
        """Phase II for row *cuts* on *cluster*.

        ``lanes[i]`` names accelerator ``i``'s compute resource and label,
        then its result-transfer resource and label.
        """
        n = self.a.n_rows
        tl = Timeline()
        if n == 0:
            return tl
        # Operands are dual-resident (host and device copies made at load
        # time, as the hybrid implementation in [22] keeps them); only the
        # accelerators' result rows cross the link during the run.  Phase I
        # (the load vector, Algorithm 2 lines 1-3) is threshold-independent
        # and computed once per instance, so it is instance setup rather
        # than per-run cost — see :meth:`phase1_setup_ms`.
        bounds = [0, *cuts, n]
        cpu_ms = self._cpu_ms(cluster.cpu, bounds[1])
        tasks = [("cpu", "phase2/spgemm-cpu", cpu_ms)]
        transfers = []
        for i, (lane, label, link_lane, link_label) in enumerate(lanes):
            lo, hi = bounds[i + 1], bounds[i + 2]
            tasks.append((lane, label, self._gpu_ms(cluster.devices[i + 1], lo, hi)))
            if hi > lo:
                d2h = cluster.links[i].transfer_ms(self._result_bytes(lo, hi))
                transfers.append((link_lane, link_label, d2h))
        # Overlapped multiplication (devices with no rows stay idle).
        tl.overlap([t for t in tasks if t[2] > 0.0])
        # Result slabs ship back and append on the CPU (line 7): serialized
        # on one shared link, overlapped on dedicated ones (a lone transfer
        # schedules the same either way).
        if cluster.interconnect.topology == "shared" and len(transfers) > 1:
            for link_lane, link_label, d2h in transfers:
                tl.run(link_lane, link_label, d2h)
        else:
            tl.overlap(transfers)
        return tl

    def _cut_prices(self, cluster: ClusterSpec, splits: np.ndarray) -> np.ndarray:
        """Batched :meth:`_cut_timeline` makespans, one row of *splits* each.

        *splits* has shape ``(batch, p - 1)``.  Device times and transfer
        sizes are gathers into the pricing tables fed to the vectorized
        cost models, so the batch prices without any per-row Python.
        """
        n = self.a.n_rows
        batch = splits.shape[0]
        if n == 0:
            return np.zeros(batch, dtype=np.float64)
        edge = np.zeros((batch, 1), dtype=_INDEX)
        bounds = np.concatenate((edge, splits, edge + n), axis=1)
        cpu_rows = bounds[:, 1]
        cpu_ms = cpu_chunked_time_many(
            self._rep_flop_prefix[cpu_rows],
            self.row_scale * self._flop_prefix_max[cpu_rows],
            cluster.cpu,
            self.profile,
        )
        longest = np.where(cpu_rows > 0, cpu_ms, 0.0)
        d2h = []
        for i, (gpu, link) in enumerate(zip(cluster.accelerators, cluster.links)):
            lo, hi = bounds[:, i + 1], bounds[:, i + 2]
            gpu_ms = gpu_row_per_warp_time_many(
                self._rep_padded_prefix[hi] - self._rep_padded_prefix[lo],
                self.row_scale * self._flop_suffix_max[lo],
                gpu,
                self.profile,
            )
            longest = np.maximum(longest, np.where(hi > lo, gpu_ms, 0.0))
            nbytes = self._result_bytes(lo, hi)
            d2h.append(np.where(hi > lo, link.transfer_ms_many(nbytes), 0.0))
        # A shared link serializes the transfers (the cursor adds them in
        # order); dedicated links overlap them (the slowest one counts).
        if cluster.interconnect.topology == "shared":
            return sum(d2h, longest)
        return longest + np.max(d2h, axis=0)

    def _cut_product(self, cuts: Sequence[int]) -> CsrMatrix:
        """Execute the partitioned product: one slab per non-empty range."""
        n = self.a.n_rows
        bounds = [0, *cuts, n]
        slabs = [
            spgemm(self.a.row_slice(lo, hi), self.b)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        product = slabs[0] if slabs else spgemm(self.a, self.b)
        for slab in slabs[1:]:
            product = vstack(product, slab)
        return product

    def _chunk_ms(self, cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CPU and GPU time of each row chunk ``[cut[j], cut[j + 1])``.

        Priced as a dynamic schedule runs chunks: a launch per chunk, and
        a GPU chunk carries its own result transfer (a schedule that hands
        chunks out at run time cannot batch the D2H copy).
        """
        cpu, gpu = self.machine.cpu, self.machine.gpu
        flops = np.diff(self._flop_prefix[cut])
        padded = np.diff(self._padded_prefix[cut])
        d2h = self.machine.transfer_ms_many(
            (flops / 2.0) * self._compression * _BYTES_PER_NNZ
        )
        cpu_ms = (
            flops / effective_rate_per_ms(cpu, self.profile)
            + cpu.kernel_launch_us * 1e-3
        )
        gpu_ms = (
            padded / effective_rate_per_ms(gpu, self.profile)
            + gpu.kernel_launch_us * 1e-3
            + d2h
        )
        return cpu_ms, gpu_ms

    # -- rounds / work stealing (repro.hetero.dynamic_rebalance) -----------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (rows of ``A``)."""
        return self.a.n_rows

    def round_block(self, lo: int, hi: int) -> "SpmmProblem":
        """The contiguous row block ``[lo, hi)`` as its own instance.

        The block inherits the parent's operands (``B`` is shared), kernel
        profile, and measured compression ratio — re-estimating compression
        per block would both cost time and make round pricing depend on the
        block cut.  Defined for full instances only: a sampled instance
        prices the whole input it represents, so slicing it has no
        full-instance meaning.
        """
        if self.is_sample:
            raise ValidationError("round_block is defined for full instances")
        if not 0 <= lo < hi <= self.a.n_rows:
            raise ValidationError(f"bad row block [{lo}, {hi})")
        return SpmmProblem(
            self.a.row_slice(lo, hi),
            self.machine,
            b=self.b,
            name=f"{self.name}/rows[{lo}:{hi})",
            compression=self._compression,
            sampling_method=self.sampling_method,
            profile=self.profile,
        )

    def round_queues(self, threshold: float, chunks: int = 8) -> list[SpanQueue]:
        """Per-device stealable queues for one round at *threshold*.

        Each side of the split is cut into up to *chunks* work-balanced
        contiguous row chunks, priced like the dynamic baseline's chunks
        (:mod:`repro.hetero.dynamic`): a launch per chunk, and a GPU chunk
        carries its own result transfer (a stolen schedule cannot batch the
        D2H copy).  Every chunk is priced for **both** devices so
        :meth:`Timeline.steal_remaining` can migrate it.
        """
        if self.is_sample:
            raise ValidationError("round_queues is defined for full instances")
        if chunks < 1:
            raise ValidationError("chunks must be >= 1")
        split = self.split_row(threshold)
        n = self.a.n_rows

        def bounds_for(lo: int, hi: int) -> np.ndarray:
            if hi <= lo:
                return np.array([lo], dtype=_INDEX)
            work_lo = self._flop_prefix[lo]
            targets = work_lo + (self._flop_prefix[hi] - work_lo) * np.linspace(
                0.0, 1.0, chunks + 1
            )
            cut = np.searchsorted(self._flop_prefix, targets, side="left")
            cut = np.clip(cut, lo, hi)
            cut[0], cut[-1] = lo, hi
            return np.unique(cut).astype(_INDEX)

        def build(resource: str, lo: int, hi: int) -> SpanQueue:
            queue = SpanQueue(resource)
            cut = bounds_for(lo, hi)
            if cut.size < 2:
                return queue
            cpu_ms, gpu_ms = self._chunk_ms(cut)
            labels = [
                f"rows[{int(a)}:{int(b)})" for a, b in zip(cut[:-1], cut[1:])
            ]
            queue.push_many(labels, {"cpu": cpu_ms, "gpu": gpu_ms})
            return queue

        return [build("cpu", 0, split), build("gpu", split, n)]

    # -- real execution ----------------------------------------------------------------

    def run(self, threshold: float) -> SpmmRunResult:
        """Execute Algorithm 2: two partial products, concatenated."""
        split = self.split_row(threshold)
        return SpmmRunResult(
            threshold=float(threshold),
            split_row=split,
            product=self._cut_product([split]),
            timeline=self._cut_timeline(self._cluster, [split], _SCALAR_LANES),
        )

    # -- Figure-7 ablation hook -----------------------------------------------------------

    def deterministic_sample(self, size: int, position: int, grid: int = 2) -> "SpmmProblem":
        """A *predetermined* block sample (no randomness) for the ablation.

        Priced identically to the random sample — the comparison isolates
        the sampler's randomness, not the pricing.
        """
        size = min(size, self.a.n_rows, self.a.n_cols)
        sub = deterministic_block(self.a, size, position, grid)
        ratio = self.a.n_rows / max(size, 1)
        return SpmmProblem(
            sub,
            self.machine.without_fixed_overheads(),
            name=f"{self.name}/block{position}",
            work_scale=ratio**3,
            row_scale=ratio**2,
            compression=self._compression,
            profile=self.profile,
        )


def _principal_submatrix(a: CsrMatrix, sel: np.ndarray) -> CsrMatrix:
    """Rows and columns of *a* restricted to the same sorted index set."""
    sub_rows = a.select_rows(sel)
    from repro.sparse.sampling import _restrict_columns

    return _restrict_columns(sub_rows, sel)
