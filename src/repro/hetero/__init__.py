"""The paper's heterogeneous algorithms.

One module per case study, each exposing a ``*Problem`` class implementing
the :class:`~repro.core.problem.PartitionProblem` protocol (analytic pricing
of any candidate threshold on the simulated clock) plus a ``run`` method
that *actually executes* the algorithm — real components, real products —
so results are verifiable while the clock stays modeled:

* :mod:`repro.hetero.cc` — Algorithm 1, hybrid graph connected components
  (Section III); threshold = GPU vertex share in percent.
* :mod:`repro.hetero.spmm` — Algorithm 2, row-split sparse matrix-matrix
  multiplication (Section IV); threshold = CPU work share in percent.
* :mod:`repro.hetero.hh_cpu` — Algorithm 3 ("HH-CPU"), scale-free spmm
  (Section V); threshold = row-density cutoff in nonzeros.
* :mod:`repro.hetero.dense_mm` — the Figure-1 contrast case, heterogeneous
  dense matrix multiplication; threshold = CPU work share in percent.
* :mod:`repro.hetero.multiway_cc` / :mod:`repro.hetero.multiway_spmm` —
  the N-device cluster generalizations; the partition point becomes a
  non-decreasing *cut vector* over a :class:`~repro.platform.ClusterSpec`.
"""

from repro.hetero.cc import CcProblem, CcRunResult
from repro.hetero.spmm import SpmmProblem, SpmmRunResult
from repro.hetero.hh_cpu import HhCpuProblem, HhCpuRunResult
from repro.hetero.dense_mm import DenseMmProblem
from repro.core.cut_vector import coordinate_descent
from repro.hetero.multiway_cc import MultiwayCcProblem, MultiwayCcRunResult
from repro.hetero.multiway_spmm import MultiwaySpmmProblem, MultiwaySpmmRunResult
from repro.hetero.dynamic import (
    DynamicScheduleResult,
    best_dynamic_schedule,
    simulate_dynamic_spmm,
)

__all__ = [
    "CcProblem",
    "CcRunResult",
    "SpmmProblem",
    "SpmmRunResult",
    "HhCpuProblem",
    "HhCpuRunResult",
    "DenseMmProblem",
    "MultiwayCcProblem",
    "MultiwayCcRunResult",
    "coordinate_descent",
    "MultiwaySpmmProblem",
    "MultiwaySpmmRunResult",
    "DynamicScheduleResult",
    "best_dynamic_schedule",
    "simulate_dynamic_spmm",
]
