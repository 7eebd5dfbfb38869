"""The paper's contribution: sampling-based work partitioning.

The framework (Section II) has three steps, each with interchangeable
strategies:

1. **Sample** — owned by the problem object (each case study samples its
   own input type; see :meth:`PartitionProblem.sample`).
2. **Identify** — a :class:`~repro.core.search.SearchStrategy` run on the
   sampled problem: coarse-to-fine grid stepping (CC), a CPU/GPU race probe
   followed by a fine search (spmm), or gradient descent (scale-free spmm).
3. **Extrapolate** — an :class:`~repro.core.extrapolate.Extrapolator`
   mapping the sample threshold to a full-input threshold: identity for CC
   and spmm, a fitted law for the scale-free row-density threshold.

:class:`~repro.core.framework.SamplingPartitioner` wires the three together
and accounts the estimation cost on the simulated clock, so the paper's
"Overhead %" column is measured, not assumed.  Baselines (NaiveStatic,
NaiveAverage, GPU-only, the exhaustive oracle) live in
:mod:`repro.core.baselines` and :mod:`repro.core.oracle`.
"""

from repro.core.problem import PartitionProblem, evaluate_grid, has_batch_pricing
from repro.core.cut_vector import (
    ClusterTuneResult,
    CutVectorResult,
    cluster_oracle,
    coordinate_descent,
    cut_vector_lattice,
    tune_cluster,
)
from repro.core.search import (
    SearchStrategy,
    SearchResult,
    ExhaustiveSearch,
    CoarseToFineSearch,
    RaceCoarseSearch,
    GradientDescentSearch,
)
from repro.core.extrapolate import (
    Extrapolator,
    IdentityExtrapolator,
    SquareLawExtrapolator,
    ScaleExtrapolator,
    SaturationExtrapolator,
    OfflineBestFitExtrapolator,
)
from repro.core.framework import SamplingPartitioner, PartitionEstimate
from repro.core.oracle import exhaustive_oracle, OracleResult
from repro.core.variance import ThresholdDistribution, estimate_distribution
from repro.core.autotune import TunedPartition, autotune, select_search
from repro.core.baselines import (
    naive_average_threshold,
    BaselineComparison,
    compare_with_baselines,
)

__all__ = [
    "PartitionProblem",
    "evaluate_grid",
    "has_batch_pricing",
    "CutVectorResult",
    "ClusterTuneResult",
    "coordinate_descent",
    "cluster_oracle",
    "cut_vector_lattice",
    "tune_cluster",
    "SearchStrategy",
    "SearchResult",
    "ExhaustiveSearch",
    "CoarseToFineSearch",
    "RaceCoarseSearch",
    "GradientDescentSearch",
    "Extrapolator",
    "IdentityExtrapolator",
    "SquareLawExtrapolator",
    "ScaleExtrapolator",
    "SaturationExtrapolator",
    "OfflineBestFitExtrapolator",
    "SamplingPartitioner",
    "PartitionEstimate",
    "exhaustive_oracle",
    "OracleResult",
    "TunedPartition",
    "autotune",
    "select_search",
    "ThresholdDistribution",
    "estimate_distribution",
    "naive_average_threshold",
    "BaselineComparison",
    "compare_with_baselines",
]
