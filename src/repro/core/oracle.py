"""The exhaustive-search oracle.

The paper's accuracy metric compares every estimate against "the best
possible threshold obtained via an exhaustive search" — a full sweep of the
threshold grid on the *full* input.  The oracle also reports what that sweep
would have cost on the simulated clock, which is the number that makes the
paper's case: the sweep costs two orders of magnitude more than one run.

One oracle is one unit of work: the sweep prices its grid through
:func:`repro.core.problem.evaluate_grid` — one vectorized call for problems
with batch pricing (``evaluate_many``, see docs/PERFORMANCE.md), a scalar
loop otherwise — and a study fans out across whole oracles
(:meth:`repro.engine.Engine.cached_map`), never across one oracle's grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import PartitionProblem
from repro.core.search import ExhaustiveSearch, SearchResult
from repro.obs import runtime as _obs


@dataclass(frozen=True)
class OracleResult:
    """Best threshold, its runtime, and the cost of finding it exhaustively."""

    threshold: float
    best_time_ms: float
    search_cost_ms: float
    n_evaluations: int
    evaluations: tuple[tuple[float, float], ...]

    @property
    def search_cost_multiple(self) -> float:
        """How many best-case runs the exhaustive search itself costs."""
        if self.best_time_ms == 0:
            return float("inf")
        return self.search_cost_ms / self.best_time_ms

    # -- persistence (repro.engine.cache) ----------------------------------

    def to_record(self) -> dict:
        """A JSON-safe dict that round-trips via :meth:`from_record`."""
        return {
            "threshold": self.threshold,
            "best_time_ms": self.best_time_ms,
            "search_cost_ms": self.search_cost_ms,
            "n_evaluations": self.n_evaluations,
            "evaluations": [[t, ms] for t, ms in self.evaluations],
        }

    @classmethod
    def from_record(cls, record: dict) -> "OracleResult":
        return cls(
            threshold=float(record["threshold"]),
            best_time_ms=float(record["best_time_ms"]),
            search_cost_ms=float(record["search_cost_ms"]),
            n_evaluations=int(record["n_evaluations"]),
            evaluations=tuple(
                (float(t), float(ms)) for t, ms in record["evaluations"]
            ),
        )


def exhaustive_oracle(problem: PartitionProblem) -> OracleResult:
    """Sweep the full grid on the full input; exact but impractical.

    :class:`~repro.core.search.ExhaustiveSearch` does the sweep (first
    strict minimum in grid order, cost as the left-fold sum of every
    probe); the ``oracle/<problem>`` obs span and the
    ``oracle.evaluations`` counter are recorded here.
    """
    with _obs.span(f"oracle/{problem.name}", cat="core") as sp:
        result: SearchResult = ExhaustiveSearch().minimize(problem)
        oracle = OracleResult(
            threshold=result.threshold,
            best_time_ms=result.value_ms,
            search_cost_ms=result.cost_ms,
            n_evaluations=result.n_evaluations,
            evaluations=result.evaluations,
        )
        sp.add_sim_ms(oracle.search_cost_ms)
        sp.set(threshold=oracle.threshold, n_evaluations=oracle.n_evaluations)
    _obs.counter("oracle.evaluations").inc(oracle.n_evaluations)
    return oracle
