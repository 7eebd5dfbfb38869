"""Multi-device extension of Algorithm 2: spmm across a cluster's devices.

The work-share axis generalizes directly: a threshold vector
``(c_1, …, c_{p-1})`` of cumulative work-share percentages gives the CPU
the rows carrying work ``[0, c_1)`` percent and accelerator ``i`` the rows
carrying ``[c_i, c_{i+1})`` percent (the last one up to 100).  This module
only turns the vector into row cuts: pricing, the Phase-II timeline,
execution and round blocks are the scalar
:class:`~repro.hetero.spmm.SpmmProblem`'s row-range methods run on the
cluster, each range priced on its own
:class:`~repro.platform.device.DeviceSpec`.  A ``p = 2`` cluster built by
:meth:`ClusterSpec.from_machine` therefore prices exactly like the scalar
problem on that machine.  Identify reuses the cyclic coordinate descent of
:mod:`repro.core.cut_vector`.

Result slabs ship back over the cluster's interconnect: under the
``"shared"`` topology every transfer serializes on one link (one more
reason adding GPUs has diminishing returns for output-heavy products);
under ``"dedicated"`` each accelerator streams on its own link and the
transfers overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cut_vector import cuts_for_shares, shares_for_cuts
from repro.hetero.multiway_cc import _gpu_cluster
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import ClusterSpec
from repro.platform.machine import HeterogeneousMachine
from repro.platform.timeline import Timeline
from repro.sparse.csr import CsrMatrix
from repro.util.errors import ValidationError
from repro.util.rng import RngLike


@dataclass(frozen=True)
class MultiwaySpmmRunResult:
    """Outcome of executing the generalized Algorithm 2."""

    thresholds: tuple[float, ...]
    split_rows: tuple[int, ...]
    product: CsrMatrix
    timeline: Timeline

    @property
    def total_ms(self) -> float:
        return self.timeline.total_ms


class MultiwaySpmmProblem:
    """``A x A`` across the devices of a :class:`ClusterSpec`.

    Wraps a scalar :class:`SpmmProblem` for all per-row precomputation and
    pricing; the vector threshold only changes how its prefix arrays are
    cut.  Accelerator ``i`` traces on lane ``gpu{i}`` and its result
    transfer on the interconnect's resource for device ``i + 1``.
    """

    def __init__(
        self,
        a: CsrMatrix,
        cluster: ClusterSpec,
        name: str = "multiway-spmm",
        base: SpmmProblem | None = None,
    ) -> None:
        cluster = _gpu_cluster(cluster, "MultiwaySpmmProblem")
        warp_sizes = {d.warp_size for d in cluster.accelerators}
        if len(warp_sizes) != 1:
            raise ValidationError(
                "MultiwaySpmmProblem accelerators must share one warp size "
                f"(the row-padding tables assume it), got {sorted(warp_sizes)}"
            )
        self.cluster = cluster
        self.n_gpus = cluster.n_devices - 1
        self.name = name
        if base is not None:
            self._base = base
        else:
            # The base problem only needs the host spec, one accelerator
            # spec (for the warp-padded row tables), and a link; give it
            # the cluster's 2-device view.
            self._base = SpmmProblem(
                a,
                HeterogeneousMachine(
                    cpu=cluster.devices[0],
                    gpu=cluster.devices[1],
                    link=cluster.links[0],
                ),
                name=name,
            )
        self.machine = self._base.machine
        ic = cluster.interconnect
        self._lanes = tuple(
            (
                f"gpu{i}",
                f"phase2/spgemm-gpu{i}",
                ic.resource_for(i + 1),
                f"phase2/d2h-gpu{i}",
            )
            for i in range(self.n_gpus)
        )

    @property
    def a(self) -> CsrMatrix:
        return self._base.a

    @property
    def n_cuts(self) -> int:
        """Vector length — the device-neutral alias for ``n_gpus``."""
        return self.n_gpus

    # -- threshold geometry -----------------------------------------------------

    def _check_vector(self, thresholds: Sequence[float]) -> list[float]:
        if len(thresholds) != self.n_gpus:
            raise ValidationError(
                f"expected {self.n_gpus} thresholds, got {len(thresholds)}"
            )
        prev = 0.0
        out = []
        for t in thresholds:
            t = float(t)
            if not 0.0 <= t <= 100.0:
                raise ValidationError(f"threshold {t} out of [0, 100]")
            if t < prev:
                raise ValidationError(
                    f"thresholds must be non-decreasing, got {thresholds}"
                )
            prev = t
            out.append(t)
        return out

    def split_rows(self, thresholds: Sequence[float]) -> list[int]:
        """Row cut indices for the vector: CPU gets ``[0, i_1)``, GPU ``k``
        gets ``[i_k, i_{k+1})`` with ``i_{g+1} = n``."""
        cuts = self._check_vector(thresholds)
        # The base problem's cached prefix tables make each cut O(log n)
        # instead of the O(n) rescan split_index_for_share would repeat.
        return [self._base._split_index(c / 100.0) for c in cuts]

    # -- pricing -------------------------------------------------------------------

    def evaluate_ms(self, thresholds: Sequence[float]) -> float:
        return self.timeline(thresholds).total_ms

    def evaluate_many(self, threshold_vectors: np.ndarray) -> np.ndarray:
        """Batched :meth:`evaluate_ms` over rows of threshold vectors.

        Shape ``(batch, n_gpus)`` in, per-row makespans out, priced by the
        base problem's batched row-range pricing.
        """
        vs = np.asarray(threshold_vectors, dtype=np.float64)
        if vs.ndim != 2 or vs.shape[1] != self.n_gpus:
            raise ValidationError(
                f"expected threshold vectors of shape (batch, {self.n_gpus}), "
                f"got {vs.shape}"
            )
        if vs.size and (float(vs.min()) < 0.0 or float(vs.max()) > 100.0):
            raise ValidationError("thresholds must be in [0, 100]")
        if bool(np.any(np.diff(vs, axis=1) < 0)):
            raise ValidationError("thresholds must be non-decreasing")
        splits = self._base._split_many(vs / 100.0)
        return self._base._cut_prices(self.cluster, splits)

    def timeline(self, thresholds: Sequence[float]) -> Timeline:
        return self._base._cut_timeline(
            self.cluster, self.split_rows(thresholds), self._lanes
        )

    def coordinate_grid(self) -> np.ndarray:
        return np.arange(0.0, 101.0)

    def naive_static_thresholds(self) -> tuple[float, ...]:
        """Cumulative peak-FLOPS cuts (:meth:`ClusterSpec.naive_static_cuts`)."""
        return self.cluster.naive_static_cuts()

    def sample(self, size: int, rng: RngLike = None) -> "MultiwaySpmmProblem":
        """A sampled miniature with the same cluster shape."""
        sub = self._base.sample(size, rng=rng)
        return MultiwaySpmmProblem(
            sub.a,
            self.cluster.without_fixed_overheads(),
            name=f"{self.name}/sample{size}",
            base=sub,
        )

    def sampling_cost_ms(self, size: int) -> float:
        return self._base.sampling_cost_ms(size)

    def default_sample_size(self) -> int:
        return self._base.default_sample_size()

    # -- rounds (repro.hetero.dynamic_rebalance) ----------------------------------------

    def round_axis_n(self) -> int:
        """Length of the axis rounds are cut along (rows of ``A``)."""
        return self.a.n_rows

    def round_block(self, lo: int, hi: int) -> "MultiwaySpmmProblem":
        """The contiguous row block ``[lo, hi)`` on the same cluster."""
        block = self._base.round_block(lo, hi)
        return MultiwaySpmmProblem(
            block.a,
            self.cluster,
            name=f"{self.name}/rows[{lo}:{hi})",
            base=block,
        )

    def device_shares_at(self, thresholds: Sequence[float]) -> tuple[float, ...]:
        """Per-device work shares implied by a cumulative cut vector."""
        return shares_for_cuts(self._check_vector(thresholds))

    def thresholds_for_device_shares(
        self, shares: Sequence[float]
    ) -> tuple[float, ...]:
        """Cumulative cut vector giving each device its requested share."""
        return cuts_for_shares(shares, self.n_gpus + 1)

    # -- real execution -----------------------------------------------------------------

    def run(self, thresholds: Sequence[float]) -> MultiwaySpmmRunResult:
        """Execute the partitioned product and concatenate the slabs."""
        splits = self.split_rows(thresholds)
        return MultiwaySpmmRunResult(
            thresholds=tuple(float(t) for t in thresholds),
            split_rows=tuple(splits),
            product=self._base._cut_product(splits),
            timeline=self._base._cut_timeline(self.cluster, splits, self._lanes),
        )
