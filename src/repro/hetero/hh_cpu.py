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
from repro.sparse.spgemm import self_compression, self_load_vector, spgemm
from repro.util.errors import ValidationError
from repro.util.pairs import pair_key
from repro.util.rng import RngLike, as_generator

_INDEX = np.int64
_BYTES_PER_NNZ = 16

#: Fraction of the multiply volume charged for Phase IV's combine pass
#: (merging the Phase II/III partials is a memory-bound sweep over the
#: intermediate nonzeros).
COMBINE_FACTOR = 0.20

#: Most density cutoffs one ``evaluate_many`` chunk prices: each aggregate
#: reads a (chunk + 1)^2 float64 span table, 8 MiB at 1,024.
_CHUNK = 1024

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


def _span_reduce(
    op: np.ufunc, cells: np.ndarray, values: np.ndarray, g: int
) -> np.ndarray:
    """Per cutoff column ``j < g``, *op* (``np.add`` or ``np.maximum``) over
    the *values* whose column span ``[start, stop)`` holds ``j``.

    *cells* encodes each span as ``start * (g + 1) + stop``: the value's
    cell in a (g+1) x (g+1) table.  Accumulating down ``start`` leaves in
    row ``j`` every span that starts at or before ``j``; the reduction
    over that row's cells with ``stop > j`` is the answer.  The values
    are non-negative, so an empty column reads 0, as the scalar path's
    empty sets do, and no sum is a difference.
    """
    size = g + 1
    if op is np.add:
        # bincount over an empty input yields int64 zeros even with float
        # weights; an all-empty block must still price as floats.
        table = np.bincount(cells, weights=values, minlength=size * size).astype(
            np.float64, copy=False
        )
    else:
        table = np.zeros(size * size, dtype=np.float64)
        op.at(table, cells, values)
    started = op.accumulate(table.reshape(size, size)[:g], axis=0)
    still_open = np.arange(size) > np.arange(g)[:, None]
    return op.reduce(np.where(still_open, started, 0.0), axis=1)


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
            if not np.all(
                np.isfinite(b_density)
                & (b_density >= 0.0)
                & (b_density == np.floor(b_density))
            ):
                raise ValidationError(
                    "b_density must hold row nnz counts: finite, "
                    "non-negative and integer-valued"
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
        if self._is_row_sample:
            self._row_mults = np.zeros(a.n_rows, dtype=np.float64)
            np.add.at(self._row_mults, self._rows_expanded, self._contrib)
        else:  # A x A: the load vector kept on A, shared with SpmmProblem
            self._row_mults = self_load_vector(a)
        self._total_mults = float(self._row_mults.sum())
        # The A x A estimate is kept on A, so an SpmmProblem on the same
        # matrix shares it.
        if compression is not None:
            self._compression = float(compression)
        else:
            self._compression = self_compression(a)

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

    def _events(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each row's nonzeros, one event per distinct contribution.

        Returns ``(ptr, rank, levels, prefix)``: row ``r``'s events are
        ``ptr[r]:ptr[r + 1]`` in ascending contribution ``levels[rank]``
        (``levels``: the distinct column densities), and ``prefix`` is the
        row's inclusive running sum of contribution x count.  Built per
        call, not kept: no caller prices one problem twice, and kept
        events raised the cold-run peak RSS (docs/PERFORMANCE.md §9).
        """
        n = self.a.n_rows
        d_sorted = np.sort(self._d_cols)
        fresh = np.ones(d_sorted.size, dtype=bool)
        fresh[1:] = d_sorted[1:] != d_sorted[:-1]
        levels = d_sorted[fresh]
        rows = self._rows_expanded
        ranks = np.searchsorted(levels, self._d_cols)[self.a.indices]
        key = pair_key(rows, ranks, n, levels.size)
        if key is None:
            order = np.lexsort((ranks, rows))
            rows, ranks = rows[order], ranks[order]
            fresh = (rows[1:] != rows[:-1]) | (ranks[1:] != ranks[:-1])
        else:
            del ranks
            key.sort()  # a fresh array: sort in place, no copy
            fresh = key[1:] != key[:-1]
        first = np.flatnonzero(np.concatenate(([rows.size > 0], fresh)))
        count = np.diff(first, append=rows.size)
        if key is None:
            rows, rank = rows[first], ranks[first]
        else:
            rows, rank = np.divmod(key[first], levels.size)
        del key, fresh, first  # the nonzero-sized arrays, before the sums
        ptr = np.zeros(n + 1, dtype=_INDEX)
        np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
        # Integer-valued running sums (b_density is checked at
        # construction): a row's prefix is exact as the global prefix
        # minus the total before the row.
        running = np.concatenate(([0.0], np.cumsum(levels[rank] * count)))
        prefix = running[1:] - np.repeat(running[ptr[:-1]], np.diff(ptr))
        return ptr, rank, levels, prefix

    def evaluate_many(self, thresholds: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms` over an array of density cutoffs.

        Against ascending cutoffs, a row's high-density work steps only at
        its own contributions.  With each row's nonzeros sorted by
        contribution (:meth:`_events`), event ``i`` of a row with work
        ``m`` owns two spans of cutoff columns: high work ``m - P[i-1]``
        on ``[pe[i-1], pe[i])`` and low work ``P[i]`` on ``[pe[i],
        pe[i+1])``, where ``pe`` counts the cutoffs below the event's
        contribution.  Clipped to the columns where the row itself is high
        or low, the spans feed every aggregate the scalar pipeline reads,
        each one :func:`_span_reduce`: O(nnz + g²) per chunk of ``g``
        cutoffs.  The values are non-negative and no aggregate is a
        difference of sums, so full instances and round blocks (integer
        summands) equal :meth:`evaluate_ms` bit for bit, and samples
        differ only in the order of their weighted sums.
        """
        ts = check_thresholds(thresholds, upper=math.inf)
        if ts.size == 0:
            return np.zeros(0, dtype=np.float64)
        if self.a.n_rows == 0:
            return np.zeros(ts.shape, dtype=np.float64)
        flat = ts.ravel()
        ts_order = np.argsort(flat, kind="stable")
        sorted_ts = flat[ts_order]
        events = self._events()
        out = np.empty(flat.size, dtype=np.float64)
        for lo in range(0, sorted_ts.size, _CHUNK):
            chunk = slice(lo, lo + _CHUNK)
            out[ts_order[chunk]] = self._evaluate_chunk(sorted_ts[chunk], events)
        return out.reshape(ts.shape)

    def _evaluate_chunk(self, tc: np.ndarray, events: tuple) -> np.ndarray:
        """Price one ascending-sorted chunk of density cutoffs."""
        n = self.a.n_rows
        g = tc.size
        size = g + 1
        cpu = self.machine.cpu
        gpu = self.machine.gpu
        ptr, rank, levels, prefix = events
        per_row = np.diff(ptr)
        nonempty = per_row > 0
        firsts = ptr[:-1][nonempty]
        lasts = ptr[1:][nonempty] - 1
        # Row r is high (density above the cutoff) in the columns j < gr[r];
        # an event's work is high-density in the columns j < pe.  Columns
        # and span cells (below (_CHUNK + 1)^2) fit int32.
        gr = np.searchsorted(tc, self._d_rows, side="left").astype(np.int32)
        pe = np.searchsorted(tc, levels, side="left").astype(np.int32)[rank]
        row_gr = np.repeat(gr, per_row)
        # pe clipped to the row's high columns [0, gr) and to its low ones
        # [gr, g).  Along a row, an event's high work spans from the
        # previous event's clipped pe to its own, its low work from its own
        # to the next event's; a row's ends clip 0 and g the same way.
        in_high = np.minimum(pe, row_gr)
        in_low = np.maximum(pe, row_gr)
        del pe, row_gr
        gr_rows = gr[nonempty]
        row_rep = np.repeat(self._rep, per_row)
        quantum = gpu.warp_size * gpu.flops_per_cycle

        def shifted(x: np.ndarray, step: int, fill) -> np.ndarray:
            """``x[i - step]`` along each row (step 1 or -1), *fill* where
            that falls off the row's first or last event."""
            out = np.roll(x, step)
            out[firsts if step == 1 else lasts] = fill
            return out

        def padded(w: np.ndarray) -> np.ndarray:
            return np.ceil(w / quantum) * quantum * row_rep

        # The scalar split prices 2 * w_* per phase.
        work = 2.0 * (np.repeat(self._row_mults, per_row) - shifted(prefix, 1, 0.0))
        cells = shifted(in_high, 1, 0) * size + in_high  # A_H x B_H
        total2c = _span_reduce(np.add, cells, work * row_rep, g)  # represented
        smax_high = _span_reduce(np.maximum, cells, work, g)  # CPU atomicity
        cells = shifted(in_low, 1, gr_rows) * size + in_low  # A_L x B_H
        pad_high = _span_reduce(np.add, cells, padded(work), g)  # warp-padded
        pmax_high = _span_reduce(np.maximum, cells, work, g)  # GPU stragglers
        work = 2.0 * prefix  # the low-density work
        cells = in_high * size + shifted(in_high, -1, gr_rows)  # A_H x B_L
        total3c = _span_reduce(np.add, cells, work * row_rep, g)
        smax_low = _span_reduce(np.maximum, cells, work, g)
        cells = in_low * size + shifted(in_low, -1, g)  # A_L x B_L
        pad_low = _span_reduce(np.add, cells, padded(work), g)
        pmax_low = _span_reduce(np.maximum, cells, work, g)
        # Low rows ship their whole represented work back: m * rep on [gr, g).
        gpu_mults = _span_reduce(np.add, gr * size + g, self._row_mults * self._rep, g)

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

        phase2 = np.maximum(
            cpu_chunked(total2c, smax_high),
            gpu_warp(pad_low, pmax_low),
        )
        phase3 = np.maximum(
            cpu_chunked(total3c, smax_low),
            gpu_warp(pad_high, pmax_high),
        )
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
        return self.threshold_for_cpu_share(1.0 - self.machine.gpu_peak_share)

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

        A heaviest-rows-first scan; :meth:`naive_static_threshold` is this
        at the CPU's peak share, and the rebalance loop moves the cutoff
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
