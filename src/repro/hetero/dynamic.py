"""Dynamic (work-queue) scheduling baseline for spmm.

The paper's related-work section argues against runtime load balancing:
StarPU-style shared work queues "may not solve the problem of work
partitioning effectively" and Boyer et al.'s chunked rebalancing "can
introduce communication overhead" (Section I-A.1).  This module makes that
argument quantitative: a greedy list scheduler that dispatches contiguous
row chunks of ``A`` to whichever device frees first, paying the real
per-chunk costs — a kernel launch per chunk and a result transfer per GPU
chunk.

The trade-off it exposes:

* fine chunks balance load well but drown in per-chunk overhead and
  per-chunk transfers;
* coarse chunks amortize overhead but load-balance badly (one monster
  chunk strands a device);
* the sampled *static* split pays one launch per device, one transfer, and
  no runtime coordination — which is why the paper prefers it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hetero.spmm import SpmmProblem
from repro.platform.timeline import Timeline
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class DynamicScheduleResult:
    """Outcome of one dynamic-scheduling simulation."""

    chunk_rows: int
    total_ms: float
    n_chunks: int
    cpu_chunks: int
    gpu_chunks: int
    timeline: Timeline

    @property
    def cpu_share_percent(self) -> float:
        """Fraction of chunks the CPU ended up taking, in percent."""
        if self.n_chunks == 0:
            return 0.0
        return 100.0 * self.cpu_chunks / self.n_chunks


def simulate_dynamic_spmm(
    problem: SpmmProblem, chunk_rows: int
) -> DynamicScheduleResult:
    """Greedy earliest-free-device scheduling of contiguous row chunks.

    Chunk costs come from the same cost model and kernel profile the
    static split uses (:meth:`SpmmProblem._chunk_ms`), so the comparison
    isolates the *scheduling policy*:

    * CPU chunk: chunk FLOPs at the CPU's aggregate SpGEMM rate plus one
      parallel-region launch;
    * GPU chunk: warp-quantized chunk FLOPs at the GPU rate plus one kernel
      launch plus the chunk's result transfer (dynamic schedules cannot
      batch the D2H copy — results must return before the host hands out
      trailing work);
    * dispatch: the host issues chunks serially — each dispatch costs a
      queue operation plus a host<->device round trip, so a chunk cannot
      start before the dispatcher reaches it.  This is the "runtime
      communication" the paper's approach avoids by construction.
    """
    if chunk_rows < 1:
        raise ValidationError("chunk_rows must be >= 1")
    n = problem.a.n_rows
    machine = problem.machine
    # Per-chunk dispatch: one queue operation plus a host<->device round
    # trip.  Chunks are issued serially by the host.
    dispatch_cost = (
        machine.cpu.kernel_launch_us * 1e-3 + 2.0 * machine.link.latency_us * 1e-3
    )

    bounds = list(range(0, n, chunk_rows)) + [n]
    cpu_ms, gpu_ms = problem._chunk_ms(np.asarray(bounds))
    tl = Timeline()
    cpu_free = 0.0
    gpu_free = 0.0
    dispatcher = 0.0
    cpu_chunks = 0
    gpu_chunks = 0
    for lo, hi, cpu_cost, gpu_cost in zip(
        bounds[:-1], bounds[1:], cpu_ms.tolist(), gpu_ms.tolist()
    ):
        dispatcher += dispatch_cost
        # Greedy: the device that would *finish* this chunk first takes it;
        # neither can start before the dispatcher reaches the chunk.
        cpu_start = max(cpu_free, dispatcher)
        gpu_start = max(gpu_free, dispatcher)
        label = f"chunk[{lo}:{hi}]"
        if cpu_start + cpu_cost <= gpu_start + gpu_cost:
            tl.record("cpu", label, cpu_start, cpu_cost)
            cpu_free = cpu_start + cpu_cost
            cpu_chunks += 1
        else:
            tl.record("gpu", label, gpu_start, gpu_cost)
            gpu_free = gpu_start + gpu_cost
            gpu_chunks += 1
    return DynamicScheduleResult(
        chunk_rows=chunk_rows,
        total_ms=max(cpu_free, gpu_free),
        n_chunks=len(bounds) - 1,
        cpu_chunks=cpu_chunks,
        gpu_chunks=gpu_chunks,
        timeline=tl,
    )


def best_dynamic_schedule(
    problem: SpmmProblem, chunk_grid: list[int] | None = None
) -> DynamicScheduleResult:
    """The dynamic baseline at its own best chunk size over *chunk_grid*."""
    n = problem.a.n_rows
    if chunk_grid is None:
        chunk_grid = sorted(
            {max(1, n // k) for k in (400, 200, 100, 50, 20, 10, 4)}
        )
    results = [simulate_dynamic_spmm(problem, c) for c in chunk_grid]
    return min(results, key=lambda r: r.total_ms)
