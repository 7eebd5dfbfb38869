"""The problem interface the partitioning framework operates on.

A *partition problem* is one heterogeneous algorithm bound to one input
instance and one machine.  The framework never looks inside: it only needs
to price a candidate threshold, draw a sampled sub-problem, and ask a few
structural questions.  The three case studies (``repro.hetero``) implement
this protocol; so can any user-defined heterogeneous algorithm, which is
what makes the technique "generic in its applicability".
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.util.errors import ValidationError
from repro.util.rng import RngLike


@runtime_checkable
class PartitionProblem(Protocol):
    """One (algorithm, input, machine) triple exposed to the framework.

    Thresholds are floats on a problem-defined axis: a GPU vertex share in
    [0, 100] for CC, a CPU work share in [0, 100] for spmm, a row-density
    cutoff for the scale-free case.  The framework treats them opaquely.
    """

    #: Short instance label used in reports ("cant", "web-BerkStan", ...).
    name: str

    def evaluate_ms(self, threshold: float) -> float:
        """Simulated Phase-II makespan (ms) when partitioned at *threshold*.

        This is "one run of the heterogeneous algorithm" for search
        purposes: deterministic, side-effect free, and cheap enough to call
        at every grid point.
        """
        ...

    def threshold_grid(self) -> np.ndarray:
        """All candidate thresholds an exhaustive search would try."""
        ...

    def sample(self, size: int, rng: RngLike = None) -> "PartitionProblem":
        """Step 1: a sub-problem built from a size-*size* random sample."""
        ...

    def sampling_cost_ms(self, size: int) -> float:
        """Simulated cost of *constructing* the size-*size* sample.

        Charged to the estimation phase: samplers that must scan the whole
        input (submatrix selection) cost more than ones that touch only the
        sampled rows — the reason the scale-free case's overhead is the
        smallest in the paper.
        """
        ...

    def default_sample_size(self) -> int:
        """The paper's recommended sample size for this problem family."""
        ...

    def naive_static_threshold(self) -> float:
        """The NaiveStatic baseline: a split from the peak-FLOPS ratio."""
        ...

    def gpu_only_threshold(self) -> float:
        """The threshold that sends all work to the GPU (the "Naive" bar)."""
        ...


#: Problems may additionally implement the *optional* batched-pricing hook
#:
#:     evaluate_many(thresholds: np.ndarray) -> np.ndarray
#:
#: pricing a whole threshold grid in one vectorized pass over O(n)
#: precomputed tables (see ``repro.platform.costmodel.PricingTables`` and
#: docs/PERFORMANCE.md).  It must agree with ``evaluate_ms`` point for
#: point; the scalar method stays the semantic ground truth.  The hook is
#: deliberately not part of the protocol above: problems opt in, and
#: callers go through :func:`evaluate_grid`, which falls back to a scalar
#: loop for problems that don't.


def check_thresholds(thresholds, upper: float = 100.0) -> np.ndarray:
    """*thresholds* as a float64 array, every entry in ``[0, upper]``.

    The one range check every batched pricing path shares.  NaN is out of
    range: ``min``/``max`` propagate it and every comparison with it is
    false, so it can never pass for an in-range value.
    """
    ts = np.asarray(thresholds, dtype=np.float64)
    if ts.size and not (0.0 <= float(ts.min()) and float(ts.max()) <= upper):
        bad = ts[~((ts >= 0.0) & (ts <= upper))].flat[0]
        raise ValidationError(
            f"thresholds must be in [0, {upper:g}], got {float(bad)}"
        )
    return ts


def has_batch_pricing(problem: PartitionProblem) -> bool:
    """Whether *problem* opts into vectorized grid pricing.

    True when the problem exposes a callable ``evaluate_many``; searches
    and the oracle use this to pick the vectorized fast path over the
    scalar loop (or the process-pool fan-out).
    """
    return callable(getattr(problem, "evaluate_many", None))


def evaluate_grid(problem: PartitionProblem, grid: np.ndarray) -> np.ndarray:
    """Price every threshold in *grid*, batched when the problem allows.

    Returns a float64 array aligned with *grid*.  Problems with an
    ``evaluate_many`` hook price the whole grid in one vectorized pass;
    everything else falls back to one ``evaluate_ms`` call per point —
    identical semantics, scalar speed.

    A 2-D *grid* is a batch of threshold *vectors* — one row per candidate
    cut vector of a multi-device problem (``repro.hetero.multiway_*``) —
    and prices to one makespan per row.  The scalar problems' 1-D contract
    is unchanged.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim == 2:
        expected = (grid.shape[0],)
        if has_batch_pricing(problem):
            ms = np.asarray(problem.evaluate_many(grid), dtype=np.float64)
            if ms.shape != expected:
                raise ValueError(
                    f"evaluate_many returned shape {ms.shape} for vector "
                    f"batch {grid.shape} on problem {problem.name!r}"
                )
            return ms
        return np.array(
            [problem.evaluate_ms([float(x) for x in row]) for row in grid],  # reprolint: disable=PERF001 -- the scalar fallback *is* the loop
            dtype=np.float64,
        )
    if has_batch_pricing(problem):
        ms = np.asarray(problem.evaluate_many(grid), dtype=np.float64)
        if ms.shape != grid.shape:
            raise ValueError(
                f"evaluate_many returned shape {ms.shape} for grid shape "
                f"{grid.shape} on problem {problem.name!r}"
            )
        return ms
    return np.array(
        [problem.evaluate_ms(float(t)) for t in grid],  # reprolint: disable=PERF001 -- the scalar fallback *is* the loop
        dtype=np.float64,
    )
