"""Heterogeneous-platform simulator.

The paper's testbed is an NVidia Tesla K40c attached over PCI Express to a
dual-socket Intel Xeon E5-2650.  This subpackage replaces that hardware with
an analytic-plus-microarchitectural cost model:

* :mod:`repro.platform.device` — device specifications (cores, clocks, peak
  rates) with presets matching the paper's testbed;
* :mod:`repro.platform.costmodel` — turns per-row / per-vertex work arrays
  into simulated device times, modelling CPU chunk imbalance, GPU warp
  divergence, SM occupancy, and kernel-launch latency;
* :mod:`repro.platform.pcie` — host<->device transfer model;
* :mod:`repro.platform.timeline` — a trace recorder that composes CPU/GPU
  spans (overlapped phases take the max, sequential phases add);
* :mod:`repro.platform.machine` — :class:`HeterogeneousMachine`, the façade
  the heterogeneous algorithms program against.

The simulator's purpose is *not* to predict absolute milliseconds on real
silicon, but to make device time a non-trivial, input-structure-dependent
function — the property that defeats naive FLOPS-ratio splits and that the
paper's sampling technique exploits.
"""

from repro.platform.device import (
    DeviceSpec,
    cpu_xeon_e5_2650_dual,
    gpu_tesla_k20c,
    gpu_tesla_k40c,
)
from repro.platform.pcie import PcieLink, pcie_gen2_x16, pcie_gen3_x16
from repro.platform.costmodel import (
    KernelProfile,
    cpu_chunked_time,
    cpu_time_from_chunk_sums,
    cpu_sequential_time,
    gpu_warp_time,
    gpu_iterative_time,
    dense_mm_time,
)
from repro.platform.timeline import Span, Timeline
from repro.platform.machine import HeterogeneousMachine, paper_testbed
from repro.platform.cluster import (
    ClusterSpec,
    Interconnect,
    balanced_partition_sizes,
    cluster_testbed,
    coerce_machine,
    imbalance,
)
from repro.platform.calibration import (
    Measurement,
    ValidationReport,
    fit_efficiency,
    calibrate_profile,
    validate_profile,
)
__all__ = [
    "DeviceSpec",
    "cpu_xeon_e5_2650_dual",
    "gpu_tesla_k20c",
    "gpu_tesla_k40c",
    "PcieLink",
    "pcie_gen2_x16",
    "pcie_gen3_x16",
    "ClusterSpec",
    "Interconnect",
    "cluster_testbed",
    "coerce_machine",
    "balanced_partition_sizes",
    "imbalance",
    "KernelProfile",
    "cpu_chunked_time",
    "cpu_time_from_chunk_sums",
    "cpu_sequential_time",
    "gpu_warp_time",
    "gpu_iterative_time",
    "dense_mm_time",
    "Span",
    "Timeline",
    "HeterogeneousMachine",
    "paper_testbed",
    "Measurement",
    "ValidationReport",
    "fit_efficiency",
    "calibrate_profile",
    "validate_profile",
]
