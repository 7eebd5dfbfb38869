"""Identify-step search strategies.

Every strategy minimizes ``problem.evaluate_ms`` over the problem's
threshold axis and accounts its own *simulated cost*: the paper's overhead
numbers count the time spent running the algorithm on the sample at each
probed threshold, so a :class:`SearchResult` carries the full evaluation
log and its cost sum.

Strategies:

* :class:`ExhaustiveSearch` — every grid point; the oracle, impractical on
  the full input (which is the paper's premise) but exact.
* :class:`CoarseToFineSearch` — the Section III identify step: stride-8
  sweep, then stride-1 refinement around the coarse winner.
* :class:`RaceCoarseSearch` — the Section IV identify step: a single
  "race" (both devices chew the whole sample until the first finishes)
  yields a coarse split, refined by a local stride-1 search.
* :class:`GradientDescentSearch` — the Section V identify step: discrete
  hill descent with step halving.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.problem import PartitionProblem, evaluate_grid
from repro.obs import runtime as _obs
from repro.util.errors import SearchError


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an identify search on one problem.

    Attributes
    ----------
    threshold:
        The winning threshold.
    value_ms:
        ``evaluate_ms`` at the winner.
    evaluations:
        Every ``(threshold, ms)`` pair probed, in probe order.
    cost_ms:
        Total simulated time of all probes — each probe *is* a run of the
        heterogeneous algorithm, so its cost is its simulated runtime —
        plus any strategy-specific probe cost (the race).
    """

    threshold: float
    value_ms: float
    evaluations: tuple[tuple[float, float], ...]
    cost_ms: float
    #: Strategy-specific cost beyond the per-threshold probes (the spmm
    #: race).  Included in ``cost_ms``; kept separate so cost accounting
    #: that reprices probes (see SamplingPartitioner) retains it.
    extra_cost_ms: float = 0.0

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)

    # -- persistence (repro.engine.cache) ----------------------------------

    def to_record(self) -> dict:
        """A JSON-safe dict that round-trips via :meth:`from_record`."""
        return {
            "threshold": self.threshold,
            "value_ms": self.value_ms,
            "evaluations": [[t, ms] for t, ms in self.evaluations],
            "cost_ms": self.cost_ms,
            "extra_cost_ms": self.extra_cost_ms,
        }

    @classmethod
    def from_record(cls, record: dict) -> "SearchResult":
        return cls(
            threshold=float(record["threshold"]),
            value_ms=float(record["value_ms"]),
            evaluations=tuple(
                (float(t), float(ms)) for t, ms in record["evaluations"]
            ),
            cost_ms=float(record["cost_ms"]),
            extra_cost_ms=float(record.get("extra_cost_ms", 0.0)),
        )


class SearchStrategy:
    """Base class: subclasses implement :meth:`minimize`."""

    def minimize(self, problem: PartitionProblem) -> SearchResult:
        """Find the threshold minimizing ``problem.evaluate_ms``."""
        raise NotImplementedError


def _traced(minimize_fn):
    """Record a ``search/<Strategy>`` obs span around a minimize call.

    The span charges the result's full simulated probe cost via
    ``add_sim_ms`` and bumps the ``search.evaluations`` counter.  Applied
    to the identify strategies only: :class:`ExhaustiveSearch` stays bare
    because the oracle records its own ``oracle/<problem>`` span around
    it (see :func:`repro.core.oracle.exhaustive_oracle`), and counting the
    sweep twice would skew the aggregates.
    """

    @functools.wraps(minimize_fn)
    def wrapper(self: SearchStrategy, problem: PartitionProblem) -> SearchResult:
        if not _obs.enabled():
            return minimize_fn(self, problem)
        with _obs.span(
            f"search/{type(self).__name__}", cat="core", problem=problem.name
        ) as sp:
            result = minimize_fn(self, problem)
            sp.add_sim_ms(result.cost_ms)
            sp.set(threshold=result.threshold, n_evaluations=result.n_evaluations)
        _obs.counter("search.evaluations").inc(result.n_evaluations)
        return result

    return wrapper


def _evaluate_grid(
    problem: PartitionProblem, grid: np.ndarray
) -> tuple[list[tuple[float, float]], float, float]:
    """Probe every point of *grid*; return (log, best_t, best_ms).

    Problems with batch pricing (:func:`repro.core.problem.evaluate_grid`)
    price the whole grid in one vectorized call; a scalar loop covers the
    rest.  Either way the log holds every point in grid order and the
    winner is the first strict minimum (``np.argmin`` returns the first
    occurrence), so both paths are interchangeable bit for bit.
    """
    if grid.size == 0:
        raise SearchError("empty threshold grid")
    ms_arr = evaluate_grid(problem, grid)
    log = [(float(t), float(ms)) for t, ms in zip(grid, ms_arr)]
    j = int(np.argmin(ms_arr))
    return log, float(grid[j]), float(ms_arr[j])


class ExhaustiveSearch(SearchStrategy):
    """Probe the entire grid.  Exact and expensive — the paper's strawman."""

    def minimize(self, problem: PartitionProblem) -> SearchResult:
        """Probe every grid point; exact winner, full-sweep cost.

        ``cost_ms`` is the sum of every probe's simulated runtime — the
        denominator of the paper's "exhaustive search costs 100x+" claim.
        """
        grid = np.asarray(problem.threshold_grid(), dtype=np.float64)
        log, best_t, best_ms = _evaluate_grid(problem, grid)
        return SearchResult(
            threshold=best_t,
            value_ms=best_ms,
            evaluations=tuple(log),
            cost_ms=float(sum(ms for _, ms in log)),
        )


class CoarseToFineSearch(SearchStrategy):
    """Stride-*coarse_step* sweep, then stride-*fine_step* refinement.

    "we run with values of t' that differ by 8, and once the best value of
    t' is identified, we then run on values of t' that differ by 1"
    (Section III-A.2).  The refinement window spans one coarse stride on
    each side of the coarse winner.
    """

    def __init__(self, *, coarse_step: int = 8, fine_step: int = 1) -> None:
        if coarse_step < 1 or fine_step < 1:
            raise SearchError("steps must be >= 1")
        if fine_step > coarse_step:
            raise SearchError("fine step must not exceed coarse step")
        self.coarse_step = coarse_step
        self.fine_step = fine_step

    @_traced
    def minimize(self, problem: PartitionProblem) -> SearchResult:
        """Coarse stride sweep, then refine one stride around the winner.

        Every probe (coarse and fine) lands in the evaluation log once;
        fine points already probed by the coarse pass are not re-run, so
        ``cost_ms`` charges each distinct threshold exactly once.
        """
        grid = np.asarray(problem.threshold_grid(), dtype=np.float64)
        if grid.size == 0:
            raise SearchError("empty threshold grid")
        coarse = grid[:: self.coarse_step]
        log, best_t, best_ms = _evaluate_grid(problem, coarse)
        probed = {float(t) for t, _ in log}
        # Refine within one coarse stride of the winner.
        resolution = float(grid[1] - grid[0]) if grid.size > 1 else 1.0
        stride = self.coarse_step * resolution
        fine = grid[(grid >= best_t - stride) & (grid <= best_t + stride)][:: self.fine_step]
        todo = [float(t) for t in fine if float(t) not in probed]
        if todo:
            fine_ms = evaluate_grid(problem, np.asarray(todo, dtype=np.float64))
            for t, ms in zip(todo, fine_ms):
                ms = float(ms)
                log.append((t, ms))
                probed.add(t)
                if ms < best_ms:
                    best_t, best_ms = t, ms
        return SearchResult(
            threshold=best_t,
            value_ms=best_ms,
            evaluations=tuple(log),
            cost_ms=float(sum(ms for _, ms in log)),
        )


class RaceCoarseSearch(SearchStrategy):
    """Race probe for the coarse split, then a local fine search.

    The probe (Section IV-A.b) runs the *whole* sample on the CPU and the
    GPU simultaneously and stops when the first device finishes; the share
    of work the slower device completed by then is the coarse split.
    Problems supporting this expose ``race_probe() -> (threshold, cost_ms)``;
    without it the strategy degrades to a coarse grid sweep.
    """

    def __init__(self, *, fine_radius: float = 4.0, fine_step: float = 1.0) -> None:
        if fine_radius < 0 or fine_step <= 0:
            raise SearchError("fine_radius must be >= 0 and fine_step > 0")
        self.fine_radius = fine_radius
        self.fine_step = fine_step

    @_traced
    def minimize(self, problem: PartitionProblem) -> SearchResult:
        """Race the devices for a coarse split, then fine-search around it.

        On problems exposing ``race_probe`` the probe's cost is carried in
        ``extra_cost_ms`` (it is not a per-threshold evaluation); problems
        without it fall back to a stride-8 coarse sweep.
        """
        grid = np.asarray(problem.threshold_grid(), dtype=np.float64)
        if grid.size == 0:
            raise SearchError("empty threshold grid")
        probe = getattr(problem, "race_probe", None)
        log: list[tuple[float, float]] = []
        extra_cost = 0.0
        if probe is not None:
            coarse_t, probe_cost = probe()
            extra_cost = float(probe_cost)
        else:
            coarse_log, coarse_t, _ = _evaluate_grid(problem, grid[::8])
            log.extend(coarse_log)
        lo, hi = coarse_t - self.fine_radius, coarse_t + self.fine_radius
        fine = grid[(grid >= lo) & (grid <= hi)]
        if fine.size == 0:
            # Clamp to the nearest grid point if the probe landed off-grid.
            fine = np.array([grid[np.argmin(np.abs(grid - coarse_t))]])
        probed = {t for t, _ in log}
        best_t, best_ms = None, float("inf")
        todo = [float(t) for t in fine if float(t) not in probed]
        if todo:
            fine_ms = evaluate_grid(problem, np.asarray(todo, dtype=np.float64))
            log.extend((t, float(ms)) for t, ms in zip(todo, fine_ms))
        for t, ms in log:
            if ms < best_ms:
                best_t, best_ms = t, ms
        assert best_t is not None
        return SearchResult(
            threshold=best_t,
            value_ms=best_ms,
            evaluations=tuple(log),
            cost_ms=float(sum(ms for _, ms in log)) + extra_cost,
            extra_cost_ms=extra_cost,
        )


class GradientDescentSearch(SearchStrategy):
    """Discrete descent with step halving (Section V-A.2).

    From each start point, move to whichever neighbor at distance *step*
    improves; halve the step when neither does; stop at step < grid
    resolution or the evaluation budget.  Because the scale-free density
    landscape can be multimodal (distinct mesh regions produce distinct
    density modes), the search restarts from *n_starts* points spread over
    the grid and keeps the global best; probes share one cache.
    """

    def __init__(
        self,
        *,
        initial_step: float | None = None,
        start: float | None = None,
        n_starts: int = 3,
        max_evaluations: int = 64,
    ) -> None:
        if max_evaluations < 3:
            raise SearchError("max_evaluations must be >= 3")
        if n_starts < 1:
            raise SearchError("n_starts must be >= 1")
        self.initial_step = initial_step
        self.start = start
        self.n_starts = n_starts
        self.max_evaluations = max_evaluations

    @_traced
    def minimize(self, problem: PartitionProblem) -> SearchResult:
        """Multi-start discrete descent with step halving.

        Probes snap to the threshold grid and share one cache across
        restarts, so ``cost_ms`` charges each distinct threshold once even
        when several descents revisit it; the walk stops when the step
        falls below the grid resolution or the evaluation budget is spent.
        """
        grid = np.asarray(problem.threshold_grid(), dtype=np.float64)
        if grid.size == 0:
            raise SearchError("empty threshold grid")
        lo, hi = float(grid[0]), float(grid[-1])
        resolution = float(np.min(np.diff(grid))) if grid.size > 1 else 1.0

        cache: dict[float, float] = {}
        log: list[tuple[float, float]] = []

        def snap(x: float) -> float:
            """Clamp to range and snap to the grid's resolution."""
            x = float(np.clip(x, lo, hi))
            return float(grid[np.argmin(np.abs(grid - x))])

        def probe(x: float) -> float:
            x = snap(x)
            if x not in cache:
                ms = problem.evaluate_ms(x)
                cache[x] = ms
                log.append((x, ms))
            return cache[x]

        if self.start is not None:
            starts = [float(np.clip(self.start, lo, hi))]
        else:
            # Quantile-spread starts: midpoint first, then outward.
            fractions = [0.5, 0.2, 0.8, 0.35, 0.65][: self.n_starts]
            starts = [lo + f * (hi - lo) for f in fractions]

        for start in starts:
            step = (
                self.initial_step if self.initial_step is not None else (hi - lo) / 4
            )
            step = max(step, resolution)
            t = snap(start)
            current = probe(t)
            while step >= resolution and len(log) < self.max_evaluations:
                left, right = snap(t - step), snap(t + step)
                candidates = [(probe(x), x) for x in {left, right} if x != t]  # reprolint: disable=DET002 -- two floats: float hashes ignore PYTHONHASHSEED, so the probe order is fixed
                if candidates and min(candidates)[0] < current:
                    current, t = min(candidates)
                else:
                    step /= 2
            if len(log) >= self.max_evaluations:
                break
        best_t = min(cache, key=cache.get)  # type: ignore[arg-type]
        return SearchResult(
            threshold=best_t,
            value_ms=cache[best_t],
            evaluations=tuple(log),
            cost_ms=float(sum(ms for _, ms in log)),
        )
