"""The :class:`HeterogeneousMachine` façade.

Heterogeneous algorithms (``repro.hetero``) program against this class
instead of raw device specs: it bundles one CPU, one GPU and the PCIe link,
exposes the cost models pre-bound to the right device, and knows the
machine-level constants the baselines need (the peak-FLOPS ratio behind
NaiveStatic).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.platform import costmodel
from repro.platform.costmodel import KernelProfile
from repro.platform.device import DeviceSpec, cpu_xeon_e5_2650_dual, gpu_tesla_k40c
from repro.platform.pcie import PcieLink, pcie_gen3_x16
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class HeterogeneousMachine:
    """One CPU + one GPU joined by a PCIe link.

    The paper restricts exposition to this two-device shape (Section II) and
    so do we; the threshold is a scalar.  Extending to a device vector would
    mean carrying one spec per device here and a threshold vector in
    :mod:`repro.core`.
    """

    cpu: DeviceSpec
    gpu: DeviceSpec
    link: PcieLink

    def __post_init__(self) -> None:
        if self.cpu.kind != "cpu":
            raise ValidationError(f"cpu slot got a {self.cpu.kind!r} device")
        if self.gpu.kind != "gpu":
            raise ValidationError(f"gpu slot got a {self.gpu.kind!r} device")

    # -- device times --------------------------------------------------------

    def cpu_sequential_ms(self, total_work: float, profile: KernelProfile) -> float:
        """Single-thread CPU time for *total_work* units."""
        return costmodel.cpu_sequential_time(total_work, self.cpu, profile)

    def gpu_iterative_ms(
        self, total_work_per_iteration: float, iterations: int, profile: KernelProfile
    ) -> float:
        """GPU time for an *iterations*-round label-propagation style kernel."""
        return costmodel.gpu_iterative_time(
            total_work_per_iteration, iterations, self.gpu, profile
        )

    def transfer_ms(self, nbytes: float) -> float:
        """Host<->device transfer time for *nbytes* (one direction)."""
        return self.link.transfer_ms(nbytes)

    def transfer_ms_many(self, nbytes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`transfer_ms` over an array of sizes."""
        return self.link.transfer_ms_many(nbytes)

    # -- machine-level constants ----------------------------------------------

    @property
    def gpu_peak_share(self) -> float:
        """GPU's fraction of the machine's total peak FLOP/s, in [0, 1].

        This is the quantity the NaiveStatic baseline turns into a split:
        the paper's testbed gives ~0.88.
        """
        g = self.gpu.peak_gflops
        c = self.cpu.peak_gflops
        return g / (g + c)

    def without_fixed_overheads(self) -> "HeterogeneousMachine":
        """A copy whose launch latencies and link latency are zero.

        The identify step runs the heterogeneous algorithm on a miniature
        sample whose work terms are orders of magnitude below the fixed
        per-launch constants; minimizing raw sample runtimes would therefore
        always pick the trivial "avoid the GPU entirely" boundary.  Since
        launch latencies are known constants, the identify search minimizes
        steady-state (work-only) time instead — the sampled problems are
        bound to this overhead-free machine, while the *cost* of the
        estimation still accounts the fixed constants separately (see
        ``run_overhead_ms`` on the problem classes).
        """
        return HeterogeneousMachine(
            cpu=replace(self.cpu, kernel_launch_us=0.0),
            gpu=replace(self.gpu, kernel_launch_us=0.0),
            link=replace(self.link, latency_us=0.0),
        )


def paper_testbed(time_scale: float = 1.0) -> HeterogeneousMachine:
    """The paper's platform: dual Xeon E5-2650 + Tesla K40c over PCIe 3 x16.

    ``time_scale`` shrinks the *fixed* time constants (kernel-launch and
    link latencies) without touching rates.  Experiments on 1/16-scale
    Table II analogs pass the same 1/16 here so that the ratio of fixed
    overheads to (scale-proportional) work matches the full-size testbed —
    otherwise microsecond constants that are negligible at paper scale
    would dominate millisecond-scale instances.
    """
    if time_scale <= 0:
        raise ValidationError("time_scale must be positive")
    cpu = cpu_xeon_e5_2650_dual()
    gpu = gpu_tesla_k40c()
    link = pcie_gen3_x16()
    # Scaling by exactly 1.0 is the identity, so no special case is needed.
    cpu = replace(cpu, kernel_launch_us=cpu.kernel_launch_us * time_scale)
    gpu = replace(gpu, kernel_launch_us=gpu.kernel_launch_us * time_scale)
    link = replace(link, latency_us=link.latency_us * time_scale)
    return HeterogeneousMachine(cpu=cpu, gpu=gpu, link=link)
