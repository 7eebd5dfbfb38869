"""Kernel cost models.

Each model turns a *work array* (per-row FLOPs, per-vertex edge counts, ...)
into simulated milliseconds on one device.  Three microarchitectural effects
are modelled because they are what make the partitioning problem input
dependent:

* **CPU chunk imbalance** — the CPU side of the paper's algorithms assigns
  contiguous chunks to threads (Algorithm 1, line 6); the finishing time is
  the *maximum* chunk, not the average, so skewed inputs slow the CPU.
* **GPU warp divergence** — rows mapped to the lanes of a 32-wide warp all
  take as long as the heaviest row, so the effective GPU work is the sum of
  per-warp maxima times the warp width.  Uniform inputs pay nothing; power-
  law inputs pay heavily.
* **Kernel-launch latency** — iterative GPU algorithms (Shiloach-Vishkin)
  pay a fixed cost per round.

Efficiency constants live in :class:`KernelProfile` presets.  They are
calibrated (see ``DESIGN.md`` §5) so peak ratios match the paper's testbed
while *effective* ratios depend on input structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.device import DeviceSpec
from repro.util.errors import ValidationError
from repro.util.prefix import balanced_chunks

#: Work-array dtype used throughout the cost models.
_F = np.float64


@dataclass(frozen=True)
class KernelProfile:
    """Efficiency description of one kernel class on both devices.

    Attributes
    ----------
    name:
        Kernel label (appears in timelines).
    cpu_efficiency / gpu_efficiency:
        Fraction of the device's peak rate the kernel sustains.  Dense
        compute approaches 1; irregular sparse kernels sit in the low
        percent range, mirroring measured SpGEMM/graph throughputs.
    bound:
        ``"compute"`` charges work units as FLOPs against peak GFLOP/s;
        ``"memory"`` charges them as ``bytes_per_unit`` bytes against peak
        bandwidth.  Sparse traversals are memory bound.
    bytes_per_unit:
        Bytes moved per work unit when memory bound (e.g. one CSR edge visit
        touches an index, a value, and a frontier flag).
    """

    name: str
    cpu_efficiency: float
    gpu_efficiency: float
    bound: str = "compute"
    bytes_per_unit: float = 8.0

    def __post_init__(self) -> None:
        if not 0.0 < self.cpu_efficiency <= 1.0:
            raise ValidationError("cpu_efficiency must be in (0, 1]")
        if not 0.0 < self.gpu_efficiency <= 1.0:
            raise ValidationError("gpu_efficiency must be in (0, 1]")
        if self.bound not in ("compute", "memory"):
            raise ValidationError(f"bound must be 'compute' or 'memory', got {self.bound!r}")
        if self.bytes_per_unit <= 0:
            raise ValidationError("bytes_per_unit must be positive")

    def efficiency_on(self, spec: DeviceSpec) -> float:
        return self.cpu_efficiency if spec.kind == "cpu" else self.gpu_efficiency


def effective_rate_per_ms(spec: DeviceSpec, profile: KernelProfile) -> float:
    """Sustained work units per millisecond for *profile* on *spec*.

    Compute-bound kernels run against peak FLOP/s, memory-bound ones against
    peak bandwidth divided by bytes per unit; both scaled by the profile's
    efficiency on this device kind.
    """
    if profile.bound == "compute":
        units_per_ms = spec.peak_gflops * 1e6  # GFLOP/s == 1e6 FLOP/ms
    else:
        units_per_ms = spec.mem_bandwidth_gbs * 1e6 / profile.bytes_per_unit
    return units_per_ms * profile.efficiency_on(spec)


def _launch_ms(spec: DeviceSpec) -> float:
    return spec.kernel_launch_us * 1e-3


def _as_work(work: np.ndarray | list[float]) -> np.ndarray:
    arr = np.asarray(work, dtype=_F)
    if arr.ndim != 1:
        raise ValidationError(f"work must be 1-D, got shape {arr.shape}")
    if arr.size and float(arr.min()) < 0:
        raise ValidationError("work values must be non-negative")
    return arr


def cpu_chunked_time(
    work: np.ndarray | list[float],
    spec: DeviceSpec,
    profile: KernelProfile,
    threads: int | None = None,
) -> float:
    """Time for a CPU to process *work* split into contiguous thread chunks.

    Items ``[0, n)`` are divided into ``threads`` equal-count contiguous
    chunks (the paper's Algorithm 1 line 6); the region finishes when the
    heaviest chunk does.  Returns milliseconds including one parallel-region
    launch.
    """
    arr = _as_work(work)
    if arr.size == 0:
        return 0.0
    t = spec.threads if threads is None else threads
    if t < 1:
        raise ValidationError(f"threads must be >= 1, got {t}")
    rate_total = effective_rate_per_ms(spec, profile)
    per_thread = rate_total / spec.threads
    prefix = np.concatenate(([0.0], np.cumsum(arr)))
    chunk_sums = [prefix[hi] - prefix[lo] for lo, hi in balanced_chunks(arr.size, t)]
    heaviest = max(chunk_sums)
    return heaviest / per_thread + _launch_ms(spec)


def cpu_time_from_chunk_sums(
    chunk_sums: np.ndarray | list[float],
    spec: DeviceSpec,
    profile: KernelProfile,
) -> float:
    """CPU time when per-thread chunk work sums are already known.

    The analytic evaluators price thousands of hypothetical cuts; they
    derive chunk sums from prefix arrays in O(threads) and call this instead
    of re-chunking a work array.  Semantics match
    :func:`cpu_chunked_time`: finish time is the heaviest chunk at one
    thread's rate, plus one parallel-region launch.
    """
    arr = _as_work(chunk_sums)
    if arr.size == 0 or float(arr.max()) <= 0.0:
        return 0.0
    per_thread = effective_rate_per_ms(spec, profile) / spec.threads
    return float(arr.max()) / per_thread + _launch_ms(spec)


def cpu_sequential_time(
    total_work: float, spec: DeviceSpec, profile: KernelProfile
) -> float:
    """Time for a single CPU thread to process *total_work* units."""
    if total_work < 0:
        raise ValidationError("total_work must be non-negative")
    if total_work == 0:
        return 0.0
    per_thread = effective_rate_per_ms(spec, profile) / spec.threads
    return total_work / per_thread


def gpu_warp_time(
    work: np.ndarray | list[float],
    spec: DeviceSpec,
    profile: KernelProfile,
) -> float:
    """Time for a GPU to process one item per lane, warp-synchronously.

    Consecutive items share a warp; every lane in a warp runs as long as the
    warp's heaviest item, so the chargeable work is
    ``sum(warp_size * max(work in warp))``.  A lower bound of the single
    longest warp (the straggler) is enforced for inputs too small to fill
    the machine.  Returns milliseconds including one kernel launch.
    """
    arr = _as_work(work)
    if arr.size == 0:
        return 0.0
    w = spec.warp_size
    # Segmented max over warp-sized groups.  Work values are non-negative,
    # so a ragged final warp maxes to the same value zero-padding would
    # give — without allocating a padded copy of the work array per call.
    warp_max = np.maximum.reduceat(arr, np.arange(0, arr.size, w))
    padded_work = float(warp_max.sum()) * w
    rate_total = effective_rate_per_ms(spec, profile)
    throughput_time = padded_work / rate_total
    lane_rate = rate_total / spec.cores
    straggler_time = float(warp_max.max()) / lane_rate
    return max(throughput_time, straggler_time) + _launch_ms(spec)


def gpu_row_per_warp_time(
    work: np.ndarray | list[float],
    spec: DeviceSpec,
    profile: KernelProfile,
) -> float:
    """Time for a GPU kernel that assigns one item (row) per *warp*.

    The standard mapping for row-row SpGEMM: a warp's 32 lanes cooperate on
    one row, so each row's work is quantized up to a whole warp-wide unit
    (``warp_size * flops_per_cycle`` work per warp-cycle).  Short rows pay
    heavily (a 5-flop road-network row still occupies a full warp quantum),
    long rows parallelize cleanly — the opposite sensitivity of the
    one-item-per-lane model in :func:`gpu_warp_time`, and the reason
    ultra-sparse inputs favor the CPU.

    The straggler bound is one warp's share of the machine throughput
    applied to the heaviest single item.
    """
    arr = _as_work(work)
    if arr.size == 0:
        return 0.0
    quantum = spec.warp_size * spec.flops_per_cycle
    padded = np.ceil(arr / quantum) * quantum
    rate = effective_rate_per_ms(spec, profile)
    throughput = float(padded.sum()) / rate
    warp_rate = rate * spec.warp_size / spec.cores
    straggler = float(arr.max()) / warp_rate
    return max(throughput, straggler) + _launch_ms(spec)


def gpu_iterative_time(
    total_work_per_iteration: float,
    iterations: int,
    spec: DeviceSpec,
    profile: KernelProfile,
) -> float:
    """Time for an iterative GPU algorithm (e.g. Shiloach-Vishkin).

    Each of *iterations* rounds launches a kernel over
    *total_work_per_iteration* units.  Round work is treated as perfectly
    coalescible (label arrays are scanned contiguously), so divergence is
    not charged here — the per-round launch latency is the GPU's tax.
    """
    if iterations < 0:
        raise ValidationError("iterations must be non-negative")
    if total_work_per_iteration < 0:
        raise ValidationError("work per iteration must be non-negative")
    if iterations == 0:
        return 0.0
    rate_total = effective_rate_per_ms(spec, profile)
    return iterations * (_launch_ms(spec) + total_work_per_iteration / rate_total)


def dense_mm_time(flops: float, spec: DeviceSpec, profile: KernelProfile) -> float:
    """Time for a dense, regular kernel of *flops* total FLOPs.

    No variance terms: this is the Figure-1 contrast case where the
    FLOPS-ratio split is nearly optimal by construction.
    """
    if flops < 0:
        raise ValidationError("flops must be non-negative")
    if flops == 0:
        return 0.0
    return flops / effective_rate_per_ms(spec, profile) + _launch_ms(spec)


# ---------------------------------------------------------------------------
# Batched threshold pricing (docs/PERFORMANCE.md).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PricingTables:
    """O(n) precomputed aggregates that price any contiguous cut in O(1).

    One instance is built per (work ordering, representation) pair and
    reused across every threshold a search or oracle sweep probes.  All
    arrays carry a sentinel row so a cut index ``k`` in ``[0, n]`` indexes
    directly:

    ``rep_prefix[k]``
        Represented work in ``work[:k]`` (``sum(work[:k] * rep[:k])``).
    ``prefix_max[k]``
        Heaviest single *atom* in ``[0, k)`` (the CPU chunk-imbalance
        floor for :func:`cpu_chunked_time`-style pricing).  Atoms default
        to the work values; sampled instances pass true unscaled
        per-item work separately so the floor stays at its physical
        magnitude while totals are represented.
    ``suffix_max[k]``
        Heaviest single atom in ``[k, n)`` (the GPU straggler atom for
        :func:`gpu_warp_time` / :func:`gpu_row_per_warp_time` pricing).
    ``padded_prefix[k]``
        Represented *warp-quantized* work in ``work[:k]`` — each item
        rounded up to a multiple of ``quantum`` first.  Present only when
        a ``quantum`` was supplied.

    Suffix aggregates come from the same tables:
    ``rep_prefix[n] - rep_prefix[k]`` and
    ``padded_prefix[n] - padded_prefix[k]`` — no per-probe slicing or
    suffix copies.
    """

    work: np.ndarray
    rep_prefix: np.ndarray
    prefix_max: np.ndarray
    suffix_max: np.ndarray
    padded_prefix: np.ndarray | None
    quantum: float | None

    @classmethod
    def build(
        cls,
        work: np.ndarray | list[float],
        rep: np.ndarray | None = None,
        atom: np.ndarray | None = None,
        quantum: float | None = None,
    ) -> "PricingTables":
        arr = _as_work(work)
        if rep is not None:
            rep = np.asarray(rep, dtype=_F)
            if rep.shape != arr.shape:
                raise ValidationError(
                    f"rep shape {rep.shape} != work shape {arr.shape}"
                )
        atoms = arr if atom is None else _as_work(atom)
        if atoms.shape != arr.shape:
            raise ValidationError(
                f"atom shape {atoms.shape} != work shape {arr.shape}"
            )
        represented = arr if rep is None else arr * rep
        rep_prefix = np.concatenate(([0.0], np.cumsum(represented)))
        prefix_max = np.concatenate(([0.0], np.maximum.accumulate(atoms)))
        suffix_max = np.concatenate(
            (np.maximum.accumulate(atoms[::-1])[::-1], [0.0])
        )
        padded_prefix = None
        if quantum is not None:
            if quantum <= 0:
                raise ValidationError("quantum must be positive")
            padded = np.ceil(arr / quantum) * quantum
            if rep is not None:
                padded = padded * rep
            padded_prefix = np.concatenate(([0.0], np.cumsum(padded)))
        return cls(
            work=arr,
            rep_prefix=rep_prefix,
            prefix_max=prefix_max,
            suffix_max=suffix_max,
            padded_prefix=padded_prefix,
            quantum=quantum,
        )

    @property
    def size(self) -> int:
        return self.work.size

    def suffix_padded_work(self, ks: np.ndarray) -> np.ndarray:
        """Represented warp-quantized work at or above each cut."""
        if self.padded_prefix is None:
            raise ValidationError("tables built without a warp quantum")
        return self.padded_prefix[self.size] - self.padded_prefix[ks]


def cpu_chunked_time_many(
    work_totals: np.ndarray,
    atom_maxima: np.ndarray,
    spec: DeviceSpec,
    profile: KernelProfile,
) -> np.ndarray:
    """Vectorized analytic chunked-CPU pricing over cut aggregates.

    Elementwise identical to the analytic form the problem evaluators use
    for a single cut: the heaviest chunk is ``max(total / threads, atom)``
    processed at one thread's rate, plus one parallel-region launch.  Both
    inputs are per-threshold arrays (no masking — callers zero out cuts
    their scalar path guards away).
    """
    threads = spec.threads
    rate = effective_rate_per_ms(spec, profile)
    heaviest = np.maximum(work_totals / threads, atom_maxima)
    return heaviest / (rate / threads) + _launch_ms(spec)


def gpu_row_per_warp_time_many(
    padded_totals: np.ndarray,
    stragglers: np.ndarray,
    spec: DeviceSpec,
    profile: KernelProfile,
) -> np.ndarray:
    """Vectorized row-per-warp GPU pricing over cut aggregates.

    ``padded_totals`` is warp-quantized represented work per threshold
    (from :meth:`PricingTables.suffix_padded_work`), ``stragglers`` the
    heaviest single item per threshold.  Matches the scalar
    :func:`gpu_row_per_warp_time` arithmetic elementwise.
    """
    rate = effective_rate_per_ms(spec, profile)
    warp_rate = rate * spec.warp_size / spec.cores
    return (
        np.maximum(padded_totals / rate, stragglers / warp_rate)
        + _launch_ms(spec)
    )


# ---------------------------------------------------------------------------
# Calibrated kernel profiles (DESIGN.md §5).
# ---------------------------------------------------------------------------

#: Dense GEMM: both devices near peak; MKL ~90%, cuBLAS ~70% on K40-era parts.
PROFILE_DENSE_MM = KernelProfile(
    name="dense-mm", cpu_efficiency=0.90, gpu_efficiency=0.70, bound="compute"
)

#: Row-row sparse GEMM: heavily irregular gathers — measured SpGEMM rates on
#: K40-class GPUs (cusparse) and Xeon-class CPUs (MKL) sit at a fraction of
#: a percent of peak: ~5 GFLOP/s vs ~2.3 GFLOP/s here.  The *effective*
#: GPU:CPU ratio (~69:31) is nothing like the 88:12 peak ratio — the gap the
#: spmm case study turns on.
PROFILE_SPGEMM = KernelProfile(
    name="spgemm", cpu_efficiency=0.0040, gpu_efficiency=0.0012, bound="compute"
)

#: CC, CPU side: chunked DFS — pointer chasing, a couple percent of bandwidth.
#: CC, GPU side: Shiloach-Vishkin — coalesced label sweeps (charged per
#: effective pass; see repro.hetero.cc).  The resulting effective
#: edge-throughput ratio is ~8:1 GPU:CPU, consistent with the ~88-90% GPU
#: shares the paper's hybrid CC settles at.
PROFILE_CC = KernelProfile(
    name="connected-components",
    cpu_efficiency=0.0042,
    gpu_efficiency=0.036,
    bound="memory",
    bytes_per_unit=16.0,
)

#: Cross-edge merge (hook labels across the partition boundary) on the GPU.
PROFILE_MERGE = KernelProfile(
    name="cross-edge-merge",
    cpu_efficiency=0.0042,
    gpu_efficiency=0.024,
    bound="memory",
    bytes_per_unit=16.0,
)
