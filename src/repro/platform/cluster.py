"""N-device cluster specification.

The paper restricts exposition to one CPU plus one GPU; its technique only
needs *a* device list and *a* cost model per device ("the values of the
threshold(s) now can be treated as a vector", Section II).  This module is
the platform half of that generalization: a :class:`ClusterSpec` bundles
``p`` heterogeneous :class:`~repro.platform.device.DeviceSpec` entries with
an :class:`Interconnect` layered on the PCIe model, so the multiway
problems (:mod:`repro.hetero.multiway_cc` / ``multiway_spmm``) can price
each contiguous range on its *own* device and ship results over its *own*
link.

Two idioms from real heterogeneous runtimes anchor the API (SNIPPETS.md):

* serinv's ``get_partition_size`` — integer partition sizes from balancing
  ratios (:func:`balanced_partition_sizes`);
* amrex ``HeterogeneousLB`` — performance ratios normalized against the
  slowest device plus an imbalance statistic
  (:meth:`ClusterSpec.performance_ratios`, :func:`imbalance`).

The legacy :class:`~repro.platform.machine.HeterogeneousMachine` is exactly
the ``p = 2`` special case: :meth:`ClusterSpec.from_machine` and
:meth:`ClusterSpec.as_machine` convert in both directions without touching
any spec values, so pricing on either representation is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.platform.device import (
    DeviceSpec,
    cpu_xeon_e5_2650_dual,
    gpu_tesla_k20c,
    gpu_tesla_k40c,
)
from repro.platform.machine import HeterogeneousMachine
from repro.platform.pcie import PcieLink, pcie_gen2_x16, pcie_gen3_x16
from repro.util.errors import ValidationError

#: Interconnect topologies: ``"shared"`` — one physical link, transfers
#: serialize on the ``"pcie"`` timeline resource (the legacy machine's
#: behaviour); ``"dedicated"`` — one link per accelerator, transfers
#: overlap on per-device ``"link{i}"`` resources.
TOPOLOGIES = ("shared", "dedicated")


@dataclass(frozen=True, kw_only=True)
class Interconnect:
    """Host-to-accelerator links for a ``p``-device cluster.

    ``links[i]`` connects the host (device 0) to accelerator ``i + 1``;
    there are exactly ``p - 1`` of them.  *topology* says whether those
    links contend: under ``"shared"`` every transfer serializes on one
    ``"pcie"`` resource (one physical bus — the legacy machine shape),
    under ``"dedicated"`` each accelerator streams on its own
    ``"link{i}"`` resource and transfers overlap.
    """

    links: tuple[PcieLink, ...]
    topology: str = "shared"

    def __post_init__(self) -> None:
        if not self.links:
            raise ValidationError("an interconnect needs at least one link")
        object.__setattr__(self, "links", tuple(self.links))
        if self.topology not in TOPOLOGIES:
            raise ValidationError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )

    @classmethod
    def uniform(
        cls, link: PcieLink, n_accelerators: int, *, topology: str = "shared"
    ) -> "Interconnect":
        """*n_accelerators* copies of one link (the common node shape)."""
        if n_accelerators < 1:
            raise ValidationError("n_accelerators must be >= 1")
        return cls(links=(link,) * n_accelerators, topology=topology)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def link_for(self, device_index: int) -> PcieLink:
        """The link serving *device_index* (accelerators are 1-based)."""
        if not 1 <= device_index <= len(self.links):
            raise ValidationError(
                f"device index {device_index} has no link "
                f"(accelerators are 1..{len(self.links)})"
            )
        return self.links[device_index - 1]

    def resource_for(self, device_index: int) -> str:
        """Timeline resource name transfers to *device_index* occupy."""
        self.link_for(device_index)  # bounds check
        if self.topology == "shared":
            return "pcie"
        return f"link{device_index - 1}"

    def without_fixed_overheads(self) -> "Interconnect":
        return Interconnect(
            links=tuple(replace(l, latency_us=0.0) for l in self.links),
            topology=self.topology,
        )

    def to_record(self) -> dict:
        return {
            "links": [l.to_record() for l in self.links],
            "topology": self.topology,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "Interconnect":
        return cls(
            links=tuple(PcieLink.from_record(r) for r in record["links"]),
            topology=str(record["topology"]),
        )


@dataclass(frozen=True, kw_only=True)
class ClusterSpec:
    """``p`` heterogeneous devices: one host CPU plus ``p - 1`` accelerators.

    Device 0 is the host (``kind == "cpu"``); devices ``1..p-1`` are
    accelerators, each reached over ``interconnect.links[i - 1]``.  The
    cut-vector problems assign device ``i`` the ``i``-th contiguous range
    of the work axis, so the device order here *is* the partition order.

    The class is a pure specification — cost models keep living in
    :mod:`repro.platform.costmodel` and take a :class:`DeviceSpec`; pricing
    code indexes :attr:`devices` and prices each range on its own spec.
    """

    devices: tuple[DeviceSpec, ...]
    interconnect: Interconnect
    name: str = "cluster"

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        if len(self.devices) < 2:
            raise ValidationError("a cluster needs at least 2 devices (got "
                                  f"{len(self.devices)})")
        if self.devices[0].kind != "cpu":
            raise ValidationError(
                f"device 0 must be the host CPU, got kind={self.devices[0].kind!r}"
            )
        if self.interconnect.n_links != len(self.devices) - 1:
            raise ValidationError(
                f"{len(self.devices)} devices need "
                f"{len(self.devices) - 1} links, got {self.interconnect.n_links}"
            )

    # -- shape ----------------------------------------------------------------

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def cpu(self) -> DeviceSpec:
        return self.devices[0]

    @property
    def accelerators(self) -> tuple[DeviceSpec, ...]:
        return self.devices[1:]

    def link_for(self, device_index: int) -> PcieLink:
        return self.interconnect.link_for(device_index)

    # -- balance arithmetic ----------------------------------------------------

    def performance_ratios(self) -> tuple[float, ...]:
        """Per-device speed ratios normalized against the slowest device.

        The amrex ``HeterogeneousLB`` idiom: every ratio is >= 1 and the
        slowest device is the 1.0 baseline, so ratios read as "times
        faster than the weakest participant".
        """
        peaks = [d.peak_gflops for d in self.devices]
        base = min(peaks)
        return tuple(p / base for p in peaks)

    def naive_static_cuts(self) -> tuple[float, ...]:
        """Cumulative peak-FLOPS percent cuts — NaiveStatic for ``p`` devices.

        Returns ``p - 1`` non-decreasing cut percentages: device 0 owns
        ``[0, cut_1)``, device ``i`` owns ``[cut_i, cut_{i+1})``.  When the
        accelerators are identical this reduces to the legacy closed form
        ``cpu_share + i * gpu_share`` (the same floating-point expression,
        so homogeneous clusters keep their cut values bit for bit);
        heterogeneous accelerators take the general cumulative-share path.
        """
        peaks = [d.peak_gflops for d in self.devices]
        n_acc = len(peaks) - 1
        if all(a == self.devices[1] for a in self.devices[2:]):
            g = peaks[1] * n_acc
            c = peaks[0]
            cpu_share = 100.0 * c / (c + g)
            gpu_share = (100.0 - cpu_share) / n_acc
            return tuple(
                min(100.0, round(cpu_share + i * gpu_share)) for i in range(n_acc)
            )
        total = float(sum(peaks))
        cum = 0.0
        cuts = []
        for p in peaks[:-1]:
            cum += p
            cuts.append(min(100.0, round(100.0 * cum / total)))
        return tuple(cuts)

    def merge_device_index(self) -> int:
        """The accelerator that hosts cross-range merge phases.

        Fastest accelerator by peak FLOP/s; ties break to the lowest
        index, which for identical accelerators is device 1 — the legacy
        multiway code's hard-wired "gpu0".
        """
        best = 1
        for i in range(2, len(self.devices)):
            if self.devices[i].peak_gflops > self.devices[best].peak_gflops:
                best = i
        return best

    # -- conversions -----------------------------------------------------------

    @classmethod
    def from_machine(
        cls,
        machine: HeterogeneousMachine,
        *,
        n_gpus: int = 1,
        topology: str = "shared",
        name: str | None = None,
    ) -> "ClusterSpec":
        """Widen a 2-device machine to ``1 + n_gpus`` devices.

        Every accelerator is one more copy of the machine's GPU spec and
        link.  Spec objects are reused, not rebuilt, so any pricing done
        through the cluster is bit-identical to the machine path.
        """
        if n_gpus < 1:
            raise ValidationError("n_gpus must be >= 1")
        return cls(
            devices=(machine.cpu,) + (machine.gpu,) * n_gpus,
            interconnect=Interconnect.uniform(
                machine.link, n_gpus, topology=topology
            ),
            name=name if name is not None else f"machine+{n_gpus}gpu",
        )

    def as_machine(self) -> HeterogeneousMachine:
        """The legacy 2-device view; only defined for ``p == 2``.

        The scalar hetero problems route ``ClusterSpec`` input through
        this, so a 2-device cluster prices bit-identically to the
        :class:`HeterogeneousMachine` it wraps.
        """
        if self.n_devices != 2:
            raise ValidationError(
                f"as_machine() needs exactly 2 devices, this cluster has "
                f"{self.n_devices}"
            )
        if self.devices[1].kind != "gpu":
            raise ValidationError(
                f"as_machine() needs a GPU accelerator, got "
                f"{self.devices[1].kind!r}"
            )
        return HeterogeneousMachine(
            cpu=self.devices[0], gpu=self.devices[1], link=self.links[0]
        )

    @property
    def links(self) -> tuple[PcieLink, ...]:
        return self.interconnect.links

    def without_fixed_overheads(self) -> "ClusterSpec":
        """Zero launch/link latencies — the identify-step machine transform."""
        return ClusterSpec(
            devices=tuple(
                replace(d, kernel_launch_us=0.0) for d in self.devices
            ),
            interconnect=self.interconnect.without_fixed_overheads(),
            name=self.name,
        )

    # -- identity --------------------------------------------------------------

    def cache_fields(self) -> dict:
        """Everything that changes pricing, for engine/serving fingerprints.

        Includes every device parameter, every link parameter, and the
        topology — two clusters differing only in device count or
        interconnect must never share a fingerprint.  The display *name*
        is deliberately excluded.
        """
        return {
            "cluster_devices": [d.to_record() for d in self.devices],
            "cluster_interconnect": self.interconnect.to_record(),
        }

    def to_record(self) -> dict:
        return {
            "devices": [d.to_record() for d in self.devices],
            "interconnect": self.interconnect.to_record(),
            "name": self.name,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "ClusterSpec":
        return cls(
            devices=tuple(DeviceSpec.from_record(r) for r in record["devices"]),
            interconnect=Interconnect.from_record(record["interconnect"]),
            name=str(record.get("name", "cluster")),
        )


def coerce_machine(
    platform: HeterogeneousMachine | ClusterSpec,
) -> HeterogeneousMachine:
    """Accept either platform type where a 2-device machine is required.

    The scalar hetero problems call this on their ``machine`` argument so
    ``ClusterSpec`` works everywhere the legacy type does; a cluster with
    more than 2 devices is rejected with a pointer at the multiway
    problems.
    """
    if isinstance(platform, HeterogeneousMachine):
        return platform
    if isinstance(platform, ClusterSpec):
        if platform.n_devices != 2:
            raise ValidationError(
                f"this problem partitions across exactly 2 devices; "
                f"cluster {platform.name!r} has {platform.n_devices} "
                "(use MultiwayCcProblem / MultiwaySpmmProblem for p > 2)"
            )
        return platform.as_machine()
    raise ValidationError(
        f"expected HeterogeneousMachine or ClusterSpec, got {type(platform).__name__}"
    )


def balanced_partition_sizes(n: int, shares: Sequence[float]) -> list[int]:
    """Integer partition sizes for *n* items proportional to *shares*.

    The serinv ``get_partition_size`` idiom: real-valued proportional
    sizes are floored, then the leftover items go one-by-one to the
    largest fractional remainders (ties to the lower index), so the sizes
    always sum exactly to *n* and are within 1 of the ideal real split.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    if not shares:
        raise ValidationError("shares must be non-empty")
    arr = np.asarray(shares, dtype=np.float64)
    if arr.size and float(arr.min()) < 0:
        raise ValidationError("shares must be non-negative")
    total = float(arr.sum())
    if total <= 0:
        raise ValidationError("shares must sum to a positive value")
    ideal = n * arr / total
    sizes = np.floor(ideal).astype(np.int64)
    remainder = int(n - int(sizes.sum()))
    if remainder:
        # Stable order: largest fractional part first, then lowest index.
        order = np.lexsort((np.arange(arr.size), -(ideal - sizes)))
        for i in order[:remainder]:
            sizes[i] += 1
    return [int(s) for s in sizes]


def imbalance(busy_ms: Sequence[float]) -> float:
    """Load-imbalance statistic over per-device busy times.

    The amrex ``HeterogeneousLB`` form: ``max / mean - 1`` — 0.0 means
    perfectly balanced, 1.0 means the critical device carries twice the
    average load.  Empty or all-idle inputs are perfectly balanced.
    """
    arr = np.asarray(list(busy_ms), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    mean = float(arr.mean())
    if mean <= 0:
        return 0.0
    return float(arr.max()) / mean - 1.0


def cluster_testbed(
    *,
    n_gpus: int = 1,
    time_scale: float = 1.0,
    topology: str = "shared",
    mixed: bool = False,
) -> ClusterSpec:
    """Paper-testbed host with *n_gpus* accelerators.

    With ``mixed=False`` every accelerator is a Tesla K40c on PCIe 3 —
    ``n_gpus=1`` is exactly :func:`~repro.platform.machine.paper_testbed`
    widened via :meth:`ClusterSpec.from_machine`.  With ``mixed=True``
    every second accelerator downgrades to the previous-generation pairing
    (Tesla K20c on PCIe 2), making the cluster genuinely heterogeneous —
    the shape the cut-vector tuner exists for.

    ``time_scale`` shrinks fixed constants exactly as in
    :func:`paper_testbed` (launch and link latencies only, never rates).
    """
    if n_gpus < 1:
        raise ValidationError("n_gpus must be >= 1")
    if time_scale <= 0:
        raise ValidationError("time_scale must be positive")

    def scaled_dev(spec: DeviceSpec) -> DeviceSpec:
        return replace(spec, kernel_launch_us=spec.kernel_launch_us * time_scale)

    def scaled_link(link: PcieLink) -> PcieLink:
        return replace(link, latency_us=link.latency_us * time_scale)

    cpu = scaled_dev(cpu_xeon_e5_2650_dual())
    fast = (scaled_dev(gpu_tesla_k40c()), scaled_link(pcie_gen3_x16()))
    slow = (scaled_dev(gpu_tesla_k20c()), scaled_link(pcie_gen2_x16()))
    devices: list[DeviceSpec] = [cpu]
    links: list[PcieLink] = []
    for i in range(n_gpus):
        gpu, link = slow if (mixed and i % 2 == 1) else fast
        devices.append(gpu)
        links.append(link)
    return ClusterSpec(
        devices=tuple(devices),
        interconnect=Interconnect(links=tuple(links), topology=topology),
        name=f"testbed-p{n_gpus + 1}" + ("-mixed" if mixed else ""),
    )
