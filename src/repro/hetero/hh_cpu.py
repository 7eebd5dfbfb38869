"""Algorithm 3 ("HH-CPU") — scale-free sparse spmm (paper Section V).

Scale-free matrices concentrate their nonzeros in a few *high-density*
rows.  HH-CPU exploits that: a row-nnz threshold ``t`` splits ``A`` (and
``B = A``) into high (``> t`` nonzeros) and low parts, then

* **Phase II** — ``A_H x B_H`` on the CPU overlapped with ``A_L x B_L`` on
  the GPU;
* **Phase III** — ``A_H x B_L`` on the CPU overlapped with ``A_L x B_H`` on
  the GPU;
* **Phase IV** — combine the partial results on both devices.

**The threshold here is a row-density cutoff in nonzeros**, not a share:
the paper's point is that sampling also works "when the work partitions are
based on indirect parameters rather than the work volume directly".  Heavy
rows belong on the CPU because a warp-per-row GPU kernel serializes on
them, and one monster row bounds a CPU thread too (the atomicity floor in
the chunked cost model) — the optimum balances both effects.

Sampling (Section V): √n rows drawn uniformly at random, *keeping all of
their elements against the full column space*.  The sampled rows' densities
therefore live on the original density axis (extrapolation is the
identity), and the work split at any candidate threshold is computable from
the load-vector identity without multiplying — which is why this case
study's estimation overhead is the smallest of the three (paper: ~1%).
The sampler variants that shrink the column space too (element thinning,
column folding; :func:`repro.sparse.sampling.sample_rows_remap`) are kept
for the sampler-comparison studies; thinning collapses the density axis and
folding saturates it (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.problem import check_thresholds
from repro.platform.costmodel import (
    PROFILE_SPGEMM,
    KernelProfile,
    effective_rate_per_ms,
)
from repro.platform.cluster import ClusterSpec, coerce_machine
from repro.platform.machine import HeterogeneousMachine
from repro.platform.timeline import Timeline
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import add, mask_rows
from repro.sparse.sampling import sample_rows_remap
from repro.sparse.spgemm import estimate_compression, spgemm
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

_INDEX = np.int64
_BYTES_PER_NNZ = 16

#: Fraction of the multiply volume charged for Phase IV's combine pass
#: (merging the Phase II/III partials is a memory-bound sweep over the
#: intermediate nonzeros).
COMBINE_FACTOR = 0.20

#: Phase IV runs as a bandwidth-bound merge on both devices.
PROFILE_COMBINE = KernelProfile(
    name="combine",
    cpu_efficiency=0.20,
    gpu_efficiency=0.20,
    bound="memory",
    bytes_per_unit=16.0,
)

#: Row gather during Section V sampling — touches only the sampled rows.
PROFILE_ROW_GATHER = KernelProfile(
    name="row-gather",
    cpu_efficiency=0.25,
    gpu_efficiency=0.25,
    bound="memory",
    bytes_per_unit=16.0,
)


@dataclass(frozen=True)
class HhCpuRunResult:
    """Outcome of actually executing Algorithm 3 (all four phases)."""

    threshold: float
    n_high_rows: int
    product: CsrMatrix
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


class HhCpuProblem:
    """One scale-free ``A x A`` instance on one machine.

    Parameters
    ----------
    a:
        The operand.  Square for full instances; a row sample (``s x n``)
        for identify instances, in which case *b_density* supplies the
        column-space densities of the full ``B``.
    b_density:
        Row-nnz vector of ``B`` (length ``a.n_cols``).  ``None`` means
        ``B = A`` (requires square ``a``).
    compression:
        Output-size ratio override; samples inherit their parent's.
    """

    def __init__(
        self,
        a: CsrMatrix,
        machine: "HeterogeneousMachine | ClusterSpec",
        name: str = "hh-cpu",
        work_scale: float = 1.0,
        b_density: np.ndarray | None = None,
        compression: float | None = None,
        rep: np.ndarray | None = None,
        sampling_method: str = "rows",
        profile: KernelProfile | None = None,
    ) -> None:
        if b_density is None and a.n_rows != a.n_cols:
            raise ValidationError(
                f"HH-CPU multiplies A by itself; A must be square, got {a.shape}"
            )
        if work_scale <= 0:
            raise ValidationError("work_scale must be positive")
        if sampling_method not in ("rows", "importance", "fold", "thin"):
            raise ValidationError(f"unknown sampling_method {sampling_method!r}")
        self.a = a
        # A 2-device ClusterSpec works anywhere the legacy machine does.
        self.machine = coerce_machine(machine)
        self.name = name
        self.sampling_method = sampling_method
        # The SpGEMM kernel profile; injectable for calibrated machines.
        self.profile = profile if profile is not None else PROFILE_SPGEMM
        # Scaled identify pricing (see CcProblem): a row sample prices the
        # full instance it represents.  `rep` holds each row's
        # representation multiplier (how much full-instance work it stands
        # for, per unit of its own work): work_scale uniformly for uniform
        # sampling, a Hansen-Hurwitz factor per row under importance
        # sampling.  Per-row atomicity floors stay exact — sampled rows
        # keep all their elements, so their work is true row work.
        self.work_scale = float(work_scale)
        if rep is not None:
            rep = np.asarray(rep, dtype=np.float64)
            if rep.shape != (a.n_rows,):
                raise ValidationError(f"rep must have shape ({a.n_rows},)")
            self._rep = rep
        else:
            self._rep = np.full(a.n_rows, self.work_scale)
        self._d_rows = a.row_nnz().astype(np.float64)
        if b_density is not None:
            b_density = np.asarray(b_density, dtype=np.float64)
            if b_density.shape != (a.n_cols,):
                raise ValidationError(
                    f"b_density must have shape ({a.n_cols},)"
                )
            self._d_cols = b_density
            self._is_row_sample = True
        else:
            self._d_cols = self._d_rows
            self._is_row_sample = False
        self._contrib = self._d_cols[a.indices]  # per-nonzero multiply volume
        self._rows_expanded = np.repeat(
            np.arange(a.n_rows, dtype=_INDEX), a.row_nnz()
        )
        self._row_mults = np.zeros(a.n_rows, dtype=np.float64)
        np.add.at(self._row_mults, self._rows_expanded, self._contrib)
        self._total_mults = float(self._row_mults.sum())
        if compression is not None:
            self._compression = float(compression)
        else:
            self._compression = estimate_compression(a, a)
        # Density-sorted batch-pricing tables, built lazily on the first
        # evaluate_many call (scalar-only users never pay for them).
        self._batch_cache: dict | None = None

    # -- work split at a density threshold -----------------------------------------

    def _split(self, threshold: float) -> dict:
        """Per-phase work arrays for density cutoff *threshold*."""
        check_thresholds(threshold, upper=math.inf)
        high_rows = self._d_rows > threshold
        # Per-row multiply volume against high-density B rows only.
        high_cols = self._contrib * (self._contrib > threshold)
        w_high = np.zeros(self._d_rows.size, dtype=np.float64)
        np.add.at(w_high, self._rows_expanded, high_cols)
        w_low = self._row_mults - w_high
        return {
            "high_rows": high_rows,
            # Phase II: A_H x B_H on CPU, A_L x B_L on GPU.
            "cpu2": 2.0 * w_high[high_rows],
            "gpu2": 2.0 * w_low[~high_rows],
            # Phase III: A_H x B_L on CPU, A_L x B_H on GPU.
            "cpu3": 2.0 * w_low[high_rows],
            "gpu3": 2.0 * w_high[~high_rows],
            # Representation multipliers aligned with the two row subsets.
            "rep_high": self._rep[high_rows],
            "rep_low": self._rep[~high_rows],
        }

    # -- PartitionProblem protocol -----------------------------------------------------

    def evaluate_ms(self, threshold: float) -> float:
        return self._pipeline(threshold).total_ms

    def _batch_tables(self) -> dict:
        """Density-sorted row tables shared by every evaluate_many call."""
        if self._batch_cache is None:
            order = np.argsort(self._d_rows, kind="stable")
            rank = np.empty(order.size, dtype=_INDEX)
            rank[order] = np.arange(order.size, dtype=_INDEX)
            self._batch_cache = {
                "d_sorted": self._d_rows[order],
                "rep_sorted": self._rep[order],
                "mults_sorted": self._row_mults[order],
                "rank_expanded": rank[self._rows_expanded],
            }
        return self._batch_cache

    def evaluate_many(self, thresholds: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms` over an array of density cutoffs.

        One bincount over the nonzeros per threshold chunk buckets each
        per-nonzero multiply volume by the cutoffs it exceeds; a suffix sum
        over the buckets yields every row's high-density work ``w_high(r, t)``
        for all cutoffs at once.  With rows ordered by density the high/low
        row subsets at any cutoff are a suffix/prefix of that order, so each
        aggregate the scalar pipeline needs (represented totals, true-work
        maxima, warp-padded totals) is a prefix/suffix table gathered at the
        cutoff's row boundary.  Chunking bounds the dense (rows x cutoffs)
        intermediates.
        """
        ts = check_thresholds(thresholds, upper=math.inf)
        if ts.size == 0:
            return np.zeros(0, dtype=np.float64)
        n = self.a.n_rows
        if n == 0:
            return np.zeros(ts.shape, dtype=np.float64)
        tb = self._batch_tables()
        flat = ts.ravel()
        ts_order = np.argsort(flat, kind="stable")
        sorted_ts = flat[ts_order]
        out_sorted = np.empty(sorted_ts.size, dtype=np.float64)
        chunk = max(1, int(1_500_000 // (n + 1)))
        for lo in range(0, sorted_ts.size, chunk):
            tc = sorted_ts[lo : lo + chunk]
            out_sorted[lo : lo + tc.size] = self._evaluate_chunk(tc, tb)
        out = np.empty(flat.size, dtype=np.float64)
        out[ts_order] = out_sorted
        return out.reshape(ts.shape)

    def _evaluate_chunk(self, tc: np.ndarray, tb: dict) -> np.ndarray:
        """Price one ascending-sorted chunk of density cutoffs."""
        n = self.a.n_rows
        g = tc.size
        cpu = self.machine.cpu
        gpu = self.machine.gpu
        # Bucket b of a nonzero = number of cutoffs strictly below its
        # contribution, so it counts as "high" work exactly for cutoff
        # columns j < b; w_high(r, j) is the suffix bucket sum over b > j.
        pe = np.searchsorted(tc, self._contrib, side="left")
        # bincount over an empty input yields int64 zeros even with float
        # weights; all-zero-rows blocks must still price as floats.
        buckets = np.bincount(
            tb["rank_expanded"] * (g + 1) + pe,
            weights=self._contrib,
            minlength=n * (g + 1),
        ).astype(np.float64, copy=False).reshape(n, g + 1)
        w_high = buckets[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:]
        del buckets
        w_low = tb["mults_sorted"][:, None] - w_high
        w_high *= 2.0  # the scalar split prices 2 * w_* per phase
        w_low *= 2.0
        rep_col = tb["rep_sorted"][:, None]
        quantum = gpu.warp_size * gpu.flops_per_cycle

        def pref(x: np.ndarray) -> np.ndarray:
            out = np.empty((n + 1, g), dtype=np.float64)
            out[0] = 0.0
            np.cumsum(x, axis=0, out=out[1:])
            return out

        def prefmax(x: np.ndarray) -> np.ndarray:
            out = np.zeros((n + 1, g), dtype=np.float64)
            np.maximum.accumulate(x, axis=0, out=out[1:])
            return out

        def sufmax(x: np.ndarray) -> np.ndarray:
            out = np.zeros((n + 1, g), dtype=np.float64)
            out[:n] = np.maximum.accumulate(x[::-1], axis=0)[::-1]
            return out

        # Rows sorted by density: Low(t) is the prefix of rows with density
        # <= t, High(t) the complementary suffix.
        b = np.searchsorted(tb["d_sorted"], tc, side="right")
        cols = np.arange(g)
        p_high_rep = pref(w_high * rep_col)
        p_low_rep = pref(w_low * rep_col)
        p_pad_low_rep = pref(np.ceil(w_low / quantum) * quantum * rep_col)
        p_pad_high_rep = pref(np.ceil(w_high / quantum) * quantum * rep_col)
        smax_high = sufmax(w_high)[b, cols]
        smax_low = sufmax(w_low)[b, cols]
        pmax_high = prefmax(w_high)[b, cols]
        pmax_low = prefmax(w_low)[b, cols]
        del w_high, w_low

        rate_c = effective_rate_per_ms(cpu, self.profile)
        rate_g = effective_rate_per_ms(gpu, self.profile)
        threads = cpu.threads
        warp_rate = rate_g * gpu.warp_size / gpu.cores
        cpu_launch = cpu.kernel_launch_us * 1e-3
        gpu_launch = gpu.kernel_launch_us * 1e-3

        def cpu_chunked(total: np.ndarray, atom: np.ndarray) -> np.ndarray:
            # atom > 0 exactly when the scalar path's work.sum() is nonzero
            # (nonnegative work), reproducing its early-out bit for bit.
            ms = np.maximum(total / threads, atom) / (rate_c / threads) + cpu_launch
            return np.where(atom > 0.0, ms, 0.0)

        def gpu_warp(padded: np.ndarray, strag: np.ndarray) -> np.ndarray:
            ms = np.maximum(padded / rate_g, strag / warp_rate) + gpu_launch
            return np.where(strag > 0.0, ms, 0.0)

        total2c = p_high_rep[n] - p_high_rep[b, cols]  # A_H x B_H, represented
        total3c = p_low_rep[n] - p_low_rep[b, cols]  # A_H x B_L, represented
        phase2 = np.maximum(
            cpu_chunked(total2c, smax_high),
            gpu_warp(p_pad_low_rep[b, cols], pmax_low),
        )
        phase3 = np.maximum(
            cpu_chunked(total3c, smax_low),
            gpu_warp(p_pad_high_rep[b, cols], pmax_high),
        )
        gpu_mults = (p_low_rep[b, cols] + p_high_rep[b, cols]) / 2.0
        d2h = self.machine.transfer_ms_many(
            gpu_mults * self._compression * _BYTES_PER_NNZ
        )
        cpu_mults = (total2c + total3c) / 2.0
        combine_cpu = (
            COMBINE_FACTOR * cpu_mults / effective_rate_per_ms(cpu, PROFILE_COMBINE)
        )
        combine_gpu = gpu_launch + (COMBINE_FACTOR * gpu_mults) / effective_rate_per_ms(
            gpu, PROFILE_COMBINE
        )
        phase1 = (
            self.work_scale * float(n) / effective_rate_per_ms(cpu, PROFILE_ROW_GATHER)
            + cpu_launch
        )
        return (
            ((phase1 + phase2) + phase3) + d2h
        ) + np.maximum(combine_cpu, combine_gpu)

    def timeline(self, threshold: float) -> Timeline:
        return self._pipeline(threshold)

    def threshold_grid(self) -> np.ndarray:
        """Distinct row densities (quantile-thinned to <= 101 points).

        Only cutoffs at distinct density values change the partition;
        0 is always included (every row with a nonzero is "high") and so is
        the maximum density (no row is).
        """
        distinct = np.unique(self._d_rows)
        grid = np.unique(np.concatenate(([0.0], distinct)))
        if grid.size > 101:
            qs = np.quantile(grid, np.linspace(0.0, 1.0, 101))
            grid = np.unique(np.round(qs))
        return grid.astype(np.float64)

    def sample(
        self, size: int, rng: RngLike = None, method: str | None = None
    ) -> "HhCpuProblem":
        """Section V-A.1 samplers (*method* defaults to ``sampling_method``):

        * ``"rows"`` (default) — *size* uniformly random rows with all their
          elements against the full column space: the density axis is the
          original one and Step 3's extrapolation is the identity.
        * ``"importance"`` — rows drawn probability-proportional-to-work
          (their load-vector entries), each then representing an equal
          work share (Hansen-Hurwitz) — the importance-sampling extension
          the paper leaves as future work.  Better tail coverage on heavy
          power laws.
        * ``"fold"`` / ``"thin"`` — the literal Section V readings kept for
          the sampler-comparison study: fold keeps all elements but
          compresses the column space onto ``[0, size)`` (density axis
          saturates — invert with SaturationExtrapolator), thin keeps each
          element with probability ``size/n`` (density axis shrinks
          linearly — rescale with ScaleExtrapolator).
        """
        size = min(size, self.a.n_rows)
        gen = as_generator(rng)
        method = method or self.sampling_method
        ratio = self.a.n_rows / max(size, 1)
        if method in ("fold", "thin"):
            sub = sample_rows_remap(self.a, size, rng=gen, thin=(method == "thin"))
            return HhCpuProblem(
                sub,
                self.machine.without_fixed_overheads(),
                name=f"{self.name}/{method}{size}",
                work_scale=ratio,
                compression=self._compression,
                sampling_method=method,
                profile=self.profile,
            )
        if method == "importance":
            work = np.maximum(self._row_mults, 1.0)
            keys = gen.random(self.a.n_rows) ** (1.0 / work)
            rows = np.sort(np.argpartition(keys, -size)[-size:])
            p = work / work.sum()
            rep = 1.0 / (size * p[rows])
        elif method == "rows":
            rows = np.sort(gen.choice(self.a.n_rows, size=size, replace=False))
            rep = None
        else:
            raise ValidationError(f"unknown sampling method {method!r}")
        sub = self.a.select_rows(rows)
        return HhCpuProblem(
            sub,
            self.machine.without_fixed_overheads(),
            name=f"{self.name}/sample{size}",
            work_scale=ratio,
            b_density=self._d_cols,
            compression=self._compression,
            rep=rep,
            profile=self.profile,
        )

    def sampling_cost_ms(self, size: int) -> float:
        """Cost of the row-gather sampler.

        Unlike CC's induced-subgraph scan or spmm's submatrix filter, this
        sampler reads *only the sampled rows'* nonzeros (CSR row slicing is
        O(1) per row) — the structural reason the paper measures just ~1%
        overhead for this case study.
        """
        frac = min(size, self.a.n_rows) / max(self.a.n_rows, 1)
        work = float(self.a.nnz) * frac + float(size)
        return work / effective_rate_per_ms(self.machine.cpu, PROFILE_ROW_GATHER)

    @property
    def is_sample(self) -> bool:
        """Whether this instance prices a larger input it was sampled from.

        A sample that keeps every row has nothing to scale up: it is the
        input itself, and its probe runs cost what they price.
        """
        return self.work_scale != 1.0

    def probe_cost_ms(self) -> float:
        """Actual cost of one identify probe on a sampled instance.

        Pricing a candidate cutoff only needs the high/low work split,
        which the load-vector identity yields from one pass over the
        sampled rows' nonzeros — no multiplication is executed.
        """
        if not self.is_sample:
            raise ValidationError("probe_cost_ms is defined for sampled instances")
        work = float(self.a.nnz + self.a.n_rows)
        return work / effective_rate_per_ms(self.machine.cpu, PROFILE_ROW_GATHER)

    def run_overhead_ms(self, sample_size: int) -> float:
        """Fixed cost of one identify probe (a handful of scans, no device
        round trips)."""
        return self.machine.cpu.kernel_launch_us * 1e-3

    def default_sample_size(self) -> int:
        """The paper's choice: √n rows."""
        return max(2, math.isqrt(self.a.n_rows))

    def naive_static_threshold(self) -> float:
        """Density cutoff assigning the CPU its peak-FLOPS work share.

        NaiveStatic thinks in FLOPS ratios; on the density axis that means
        the smallest cutoff whose high-row work share does not exceed the
        CPU's peak fraction (~12%).
        """
        target = 1.0 - self.machine.gpu_peak_share
        order = np.argsort(self._d_rows)[::-1]  # heaviest rows first
        work_sorted = self._row_mults[order]
        total = self._total_mults
        if total == 0:
            return 0.0
        shares = np.cumsum(work_sorted) / total
        # Number of heaviest rows whose cumulative work stays within target.
        k = int(np.searchsorted(shares, target, side="right"))
        if k == 0:
            return float(self._d_rows.max())
        if k >= self._d_rows.size:
            return 0.0
        return max(0.0, float(self._d_rows[order[k - 1]]) - 1.0)

    def gpu_only_threshold(self) -> float:
        """Cutoff above every density: no high rows, everything on the GPU."""
        return float(self._d_rows.max()) if self._d_rows.size else 0.0

    # -- rounds (repro.hetero.dynamic_rebalance) -------------------------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (rows of ``A``)."""
        return self.a.n_rows

    def round_block(self, lo: int, hi: int) -> "HhCpuProblem":
        """The contiguous row block ``[lo, hi)`` against the full column space.

        A block is exactly a "row sample" with no representation scaling:
        it keeps all its elements, and *b_density* pins the density axis to
        the full instance's, so density cutoffs transfer between rounds
        unchanged.  Full instances only.
        """
        if self._is_row_sample or self.work_scale != 1.0:
            raise ValidationError("round_block is defined for full instances")
        if not 0 <= lo < hi <= self.a.n_rows:
            raise ValidationError(f"bad row block [{lo}, {hi})")
        sub = self.a.select_rows(np.arange(lo, hi, dtype=_INDEX))
        return HhCpuProblem(
            sub,
            self.machine,
            name=f"{self.name}/rows[{lo}:{hi})",
            b_density=self._d_cols,
            compression=self._compression,
            sampling_method=self.sampling_method,
            profile=self.profile,
        )

    def cpu_share_at(self, threshold: float) -> float:
        """Fraction of the multiply volume the cutoff sends to the CPU."""
        if self._total_mults == 0.0:
            return 0.0
        high = float(self._row_mults[self._d_rows > threshold].sum())
        return high / self._total_mults

    def threshold_for_cpu_share(self, share: float) -> float:
        """Smallest density cutoff whose high-row work share is <= *share*.

        The same heaviest-rows-first scan as :meth:`naive_static_threshold`,
        with the target share free — the rebalance loop moves the cutoff
        through this mapping.
        """
        share = min(max(share, 0.0), 1.0)
        total = self._total_mults
        if total == 0 or self._d_rows.size == 0:
            return 0.0
        order = np.argsort(self._d_rows)[::-1]
        shares = np.cumsum(self._row_mults[order]) / total
        k = int(np.searchsorted(shares, share, side="right"))
        if k == 0:
            return float(self._d_rows.max())
        if k >= self._d_rows.size:
            return 0.0
        return max(0.0, float(self._d_rows[order[k - 1]]) - 1.0)

    def extrapolation_context(self, sample_size: int) -> dict:
        """Scale information for extrapolation laws (Section V-A.3).

        The default row sampler keeps the original density axis, so the
        identity law applies; the folding/thinning sampler variants need
        ``sample_dimension`` (saturation inversion) or ``dimension_ratio``
        (linear rescale) respectively.
        """
        return {
            "dimension_ratio": self.a.n_cols / max(1, min(sample_size, self.a.n_rows)),
            "full_dimension": self.a.n_cols,
            "sample_dimension": min(sample_size, self.a.n_rows),
        }

    # -- analytic pricing -----------------------------------------------------------------

    def _cpu_chunked(self, work: np.ndarray, rep: np.ndarray) -> float:
        """CPU time for a set of row works: work-balanced chunks with
        per-row atomicity (one monster row bounds the heaviest thread — the
        reason very heavy rows belong on the CPU only up to a point).

        Totals are represented work (each sampled row weighted by its
        representation multiplier); the atomicity floor stays at true row
        magnitude.
        """
        if work.size == 0 or float(work.sum()) == 0.0:
            return 0.0
        rate = effective_rate_per_ms(self.machine.cpu, self.profile)
        total = float((work * rep).sum())
        threads = self.machine.cpu.threads
        heaviest = max(total / threads, float(work.max()))
        return heaviest / (rate / threads) + self.machine.cpu.kernel_launch_us * 1e-3

    def _gpu_warp(self, work: np.ndarray, rep: np.ndarray) -> float:
        """GPU row-per-warp time: represented throughput, true straggler."""
        if work.size == 0 or float(work.sum()) == 0.0:
            return 0.0
        gpu = self.machine.gpu
        quantum = gpu.warp_size * gpu.flops_per_cycle
        padded = np.ceil(work / quantum) * quantum
        rate = effective_rate_per_ms(gpu, self.profile)
        throughput = float((padded * rep).sum()) / rate
        warp_rate = rate * gpu.warp_size / gpu.cores
        straggler = float(work.max()) / warp_rate
        return max(throughput, straggler) + gpu.kernel_launch_us * 1e-3

    def _pipeline(self, threshold: float) -> Timeline:
        s = self._split(threshold)
        tl = Timeline()
        n = self.a.n_rows
        if n == 0:
            return tl
        # Phase I: classify rows (one density scan) on the CPU.  Operands
        # are dual-resident, as in the other case studies; only the GPU's
        # partial results cross PCIe.
        tl.run(
            "cpu",
            "phase1/classify-rows",
            self.work_scale
            * float(n)
            / effective_rate_per_ms(self.machine.cpu, PROFILE_ROW_GATHER)
            + self.machine.cpu.kernel_launch_us * 1e-3,
        )
        # Phase II, then Phase III, each overlapped CPU || GPU.
        tl.overlap(
            [
                ("cpu", "phase2/AH-x-BH", self._cpu_chunked(s["cpu2"], s["rep_high"])),
                ("gpu", "phase2/AL-x-BL", self._gpu_warp(s["gpu2"], s["rep_low"])),
            ]
        )
        tl.overlap(
            [
                ("cpu", "phase3/AH-x-BL", self._cpu_chunked(s["cpu3"], s["rep_high"])),
                ("gpu", "phase3/AL-x-BH", self._gpu_warp(s["gpu3"], s["rep_low"])),
            ]
        )
        # Ship the GPU partials back, then combine on both devices.
        gpu_mults = (
            float((s["gpu2"] * s["rep_low"]).sum() + (s["gpu3"] * s["rep_low"]).sum())
            / 2.0
        )
        tl.run(
            "pcie",
            "phase4/d2h-partials",
            self.machine.transfer_ms(gpu_mults * self._compression * _BYTES_PER_NNZ),
        )
        cpu_mults = (
            float((s["cpu2"] * s["rep_high"]).sum() + (s["cpu3"] * s["rep_high"]).sum())
            / 2.0
        )
        combine_cpu = (
            COMBINE_FACTOR
            * cpu_mults
            / effective_rate_per_ms(self.machine.cpu, PROFILE_COMBINE)
        )
        combine_gpu = self.machine.gpu_iterative_ms(
            COMBINE_FACTOR * gpu_mults, 1, PROFILE_COMBINE
        )
        tl.overlap(
            [
                ("cpu", "phase4/combine-cpu", combine_cpu),
                ("gpu", "phase4/combine-gpu", combine_gpu),
            ]
        )
        return tl

    # -- real execution -----------------------------------------------------------------------

    def run(self, threshold: float) -> HhCpuRunResult:
        """Execute all four phases numerically and combine."""
        if self._is_row_sample:
            raise ValidationError("run() requires a full (square) instance")
        high = self._d_rows > threshold
        a_h = mask_rows(self.a, high)
        a_l = mask_rows(self.a, ~high)
        b_h, b_l = a_h, a_l  # B = A
        c = add(
            add(spgemm(a_h, b_h), spgemm(a_l, b_l)),
            add(spgemm(a_h, b_l), spgemm(a_l, b_h)),
        )
        return HhCpuRunResult(
            threshold=float(threshold),
            n_high_rows=int(high.sum()),
            product=c,
            timeline=self._pipeline(threshold),
        )
