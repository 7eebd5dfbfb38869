"""Cut-vector tuning: the framework's steps for ``p``-device problems.

For two devices the paper's threshold is a scalar; for a
:class:`~repro.platform.cluster.ClusterSpec` of ``p`` devices it is a
vector of ``p - 1`` non-decreasing cumulative percentages ("the values of
the threshold(s) now can be treated as a vector", Section II).  This
module supplies the vector analogs of the scalar tuner stack:

* :func:`coordinate_descent` — the identify search: cyclic 1-D refinement
  of each coordinate with the others held fixed, every candidate set
  priced through :func:`repro.core.problem.evaluate_grid` (vectorized when
  the problem batches, scalar otherwise);
* :func:`cluster_oracle` — the exhaustive analog: enumerate every
  non-decreasing integer cut vector when that is tractable, multi-start
  coordinate descent when the lattice is too large (the count grows as
  ``C(101 + p - 2, p - 1)``);
* :func:`tune_cluster` — the full sample → identify → extrapolate
  pipeline: search the *sampled* problem, map the winning vector onto the
  full input unchanged (the identity extrapolation both percent-axis
  problems use), and account the estimation cost on the simulated clock.

Every entry point works on any problem implementing the vector protocol:
``n_cuts`` (vector length), ``evaluate_ms(vector)``, ``coordinate_grid()``,
``naive_static_thresholds()``, and optionally ``sample`` /
``sampling_cost_ms`` / ``evaluate_many``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from repro.core.problem import evaluate_grid
from repro.obs import runtime as _obs
from repro.util.errors import SearchError, ValidationError
from repro.util.rng import RngLike

#: Candidate-count ceiling for exhaustive cut-vector enumeration; above
#: it the oracle coarsens its stride and finally falls back to
#: multi-start coordinate descent.
DEFAULT_MAX_CANDIDATES = 250_000


@dataclass(frozen=True, kw_only=True)
class CutVectorResult:
    """Outcome of a cut-vector search (the vector analog of SearchResult).

    Attributes
    ----------
    thresholds:
        The winning non-decreasing cut vector, in percent.
    value_ms:
        ``evaluate_ms`` at the winner.
    n_evaluations:
        Number of candidate vectors priced.
    cost_ms:
        Total simulated cost of the search — every probe is one run of the
        heterogeneous algorithm, so its cost is its simulated runtime.
    strategy:
        Which search produced the result (``"exhaustive"``,
        ``"coordinate-descent"``, ...), for reports.
    """

    thresholds: tuple[float, ...]
    value_ms: float
    n_evaluations: int
    cost_ms: float
    strategy: str = "coordinate-descent"

    @property
    def search_cost_multiple(self) -> float:
        """How many best-case runs the search itself costs."""
        if self.value_ms == 0:
            return float("inf")
        return self.cost_ms / self.value_ms

    def to_record(self) -> dict:
        """A JSON-safe dict that round-trips via :meth:`from_record`."""
        return {
            "thresholds": list(self.thresholds),
            "value_ms": self.value_ms,
            "n_evaluations": self.n_evaluations,
            "cost_ms": self.cost_ms,
            "strategy": self.strategy,
        }

    @classmethod
    def from_record(cls, record: dict) -> "CutVectorResult":
        return cls(
            thresholds=tuple(float(t) for t in record["thresholds"]),
            value_ms=float(record["value_ms"]),
            n_evaluations=int(record["n_evaluations"]),
            cost_ms=float(record["cost_ms"]),
            strategy=str(record.get("strategy", "coordinate-descent")),
        )


@dataclass(frozen=True, kw_only=True)
class ClusterTuneResult:
    """Outcome of the sampled cut-vector pipeline on one problem.

    ``thresholds`` are the extrapolated (identity) cuts; ``value_ms``
    prices them on the *full* problem; ``tuning_cost_ms`` is what finding
    them cost — sample construction plus every probe on the sample.
    """

    thresholds: tuple[float, ...]
    value_ms: float
    sample_size: int
    n_evaluations: int
    tuning_cost_ms: float

    def to_record(self) -> dict:
        """A JSON-safe dict that round-trips via :meth:`from_record`."""
        return {
            "thresholds": list(self.thresholds),
            "value_ms": self.value_ms,
            "sample_size": self.sample_size,
            "n_evaluations": self.n_evaluations,
            "tuning_cost_ms": self.tuning_cost_ms,
        }

    @classmethod
    def from_record(cls, record: dict) -> "ClusterTuneResult":
        return cls(
            thresholds=tuple(float(t) for t in record["thresholds"]),
            value_ms=float(record["value_ms"]),
            sample_size=int(record["sample_size"]),
            n_evaluations=int(record["n_evaluations"]),
            tuning_cost_ms=float(record["tuning_cost_ms"]),
        )


def n_cuts_of(problem) -> int:
    """Vector length of *problem*: ``n_cuts``, falling back to ``n_gpus``."""
    n = getattr(problem, "n_cuts", None)
    if n is None:
        n = getattr(problem, "n_gpus", None)
    if n is None:
        raise ValidationError(
            f"problem {getattr(problem, 'name', problem)!r} exposes neither "
            "n_cuts nor n_gpus — not a cut-vector problem"
        )
    return int(n)


def _descend(
    problem,
    start: Sequence[float] | None,
    max_sweeps: int,
    step: int,
) -> CutVectorResult:
    """Cyclic coordinate descent with full cost accounting.

    Each sweep refines one coordinate at a time over the percent grid
    (stride *step*, then stride 1 around the winner), holding the others
    fixed and keeping the vector non-decreasing.  Every coordinate pass
    prices its whole candidate set in one :func:`evaluate_grid` batch (a
    scalar loop when the problem has no batch pricing); the winner is the
    first candidate to strictly improve, exactly as the scalar scan picked
    it.
    """
    n_cuts = n_cuts_of(problem)
    if start is None:
        current = [float(t) for t in problem.naive_static_thresholds()]
    else:
        current = [float(t) for t in start]
    if len(current) != n_cuts:
        raise ValidationError(
            f"start vector has {len(current)} cuts, problem needs {n_cuts}"
        )
    evals = 1
    best_val = float(problem.evaluate_ms(current))
    cost = best_val
    for _ in range(max_sweeps):
        moved = False
        for i in range(n_cuts):
            lo = current[i - 1] if i > 0 else 0.0
            hi = current[i + 1] if i + 1 < n_cuts else 100.0

            def probe(
                cands: np.ndarray,
                skip: set[float],
                best_c: float,
                best_c_val: float,
                coord: int = i,
            ) -> tuple[float, float]:
                nonlocal evals, cost
                kept = np.asarray(
                    [float(c) for c in cands if float(c) not in skip],
                    dtype=np.float64,
                )
                if kept.size == 0:
                    return best_c, best_c_val
                trials = np.tile(
                    np.asarray(current, dtype=np.float64), (kept.size, 1)
                )
                trials[:, coord] = kept
                vals = evaluate_grid(problem, trials)
                evals += int(kept.size)
                cost += float(vals.sum())
                j = int(np.argmin(vals))
                if float(vals[j]) < best_c_val:
                    return float(kept[j]), float(vals[j])
                return best_c, best_c_val

            best_c, best_c_val = probe(
                np.arange(lo, hi + 1, step), {current[i]}, current[i], best_val
            )
            # Fine pass around the coarse winner.
            best_c, best_c_val = probe(
                np.arange(max(lo, best_c - step), min(hi, best_c + step) + 1),
                {current[i], best_c},
                best_c,
                best_c_val,
            )
            if best_c != current[i]:
                current[i] = best_c
                best_val = best_c_val
                moved = True
        if not moved:
            break
    return CutVectorResult(
        thresholds=tuple(current),
        value_ms=best_val,
        n_evaluations=evals,
        cost_ms=cost,
        strategy="coordinate-descent",
    )


def coordinate_descent(
    problem,
    start: Sequence[float] | None = None,
    max_sweeps: int = 6,
    step: int = 4,
) -> tuple[tuple[float, ...], float, int]:
    """Cyclic coordinate descent over the threshold vector.

    Returns ``(thresholds, value_ms, n_evaluations)`` — the historical
    tuple contract; :func:`cluster_oracle` and :func:`tune_cluster` carry
    the richer :class:`CutVectorResult`.  The ``search/CoordinateDescent``
    obs span mirrors the scalar strategies' instrumentation and is skipped
    entirely when observability is off (byte-identical results either
    way).
    """
    if not _obs.enabled():
        r = _descend(problem, start, max_sweeps, step)
        return r.thresholds, r.value_ms, r.n_evaluations
    with _obs.span(
        "search/CoordinateDescent", cat="core", problem=problem.name
    ) as sp:
        r = _descend(problem, start, max_sweeps, step)
        sp.add_sim_ms(r.cost_ms)
        sp.set(thresholds=list(r.thresholds), n_evaluations=r.n_evaluations)
    _obs.counter("search.evaluations").inc(r.n_evaluations)
    return r.thresholds, r.value_ms, r.n_evaluations


def cut_vector_lattice(n_cuts: int, step: int = 1) -> np.ndarray:
    """All non-decreasing percent vectors of length *n_cuts*, stride *step*.

    The exhaustive candidate set: rows are sorted combinations (with
    repetition) of the 0..100 grid thinned to every *step*-th point, in
    lexicographic order.  The count is ``C(g + n_cuts - 1, n_cuts)`` for a
    ``g``-point grid — tractable for small ``p``, which is why
    :func:`cluster_oracle` falls back to coordinate descent beyond it.
    """
    if n_cuts < 1:
        raise ValidationError("n_cuts must be >= 1")
    if step < 1:
        raise ValidationError("step must be >= 1")
    points = np.arange(0.0, 101.0, step, dtype=np.float64)
    combos = list(combinations_with_replacement(points, n_cuts))
    return np.asarray(combos, dtype=np.float64).reshape(len(combos), n_cuts)


def _count_lattice(n_points: int, n_cuts: int) -> int:
    """``C(n_points + n_cuts - 1, n_cuts)`` without building the lattice."""
    import math

    return math.comb(n_points + n_cuts - 1, n_cuts)


def cluster_oracle(
    problem, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> CutVectorResult:
    """Best cut vector on the full input; exact when tractable.

    Strides 1, 2, 4 over the percent lattice are tried in order until the
    candidate count fits *max_candidates*; the winning stride's lattice is
    priced through :func:`evaluate_grid` (one vectorized call for batched
    problems) and the first strict minimum in lexicographic order wins —
    the same tie-breaking as the scalar oracle.  When even the stride-4
    lattice is too large (p >= 6 at the default ceiling), the oracle
    degrades to multi-start coordinate descent seeded from NaiveStatic,
    equal shares, and the all-accelerators corner, keeping the best.

    Like :func:`repro.core.oracle.exhaustive_oracle`, one call is one unit
    of work: a study fans out across whole oracles, one per
    (dataset, cluster).
    """
    n_cuts = n_cuts_of(problem)
    with _obs.span(f"oracle/{problem.name}", cat="core") as sp:
        lattice = None
        for stride in (1, 2, 4):
            if _count_lattice(len(range(0, 101, stride)), n_cuts) <= max_candidates:
                lattice = cut_vector_lattice(n_cuts, stride)
                break
        if lattice is None:
            starts: list[Sequence[float] | None] = [None]
            equal = [100.0 * (i + 1) / (n_cuts + 1) for i in range(n_cuts)]
            starts.append([round(t) for t in equal])
            starts.append([0.0] * n_cuts)  # everything on the accelerators
            best: CutVectorResult | None = None
            evals = 0
            cost = 0.0
            for s in starts:
                r = _descend(problem, s, max_sweeps=6, step=4)
                evals += r.n_evaluations
                cost += r.cost_ms
                if best is None or r.value_ms < best.value_ms:
                    best = r
            assert best is not None
            oracle = CutVectorResult(
                thresholds=best.thresholds,
                value_ms=best.value_ms,
                n_evaluations=evals,
                cost_ms=cost,
                strategy="multi-start-descent",
            )
        else:
            vals = evaluate_grid(problem, lattice)
            if vals.size == 0:
                raise SearchError("empty cut-vector lattice")
            j = int(np.argmin(vals))
            oracle = CutVectorResult(
                thresholds=tuple(float(x) for x in lattice[j]),
                value_ms=float(vals[j]),
                n_evaluations=int(vals.size),
                cost_ms=float(vals.sum()),
                strategy="exhaustive",
            )
        sp.add_sim_ms(oracle.cost_ms)
        sp.set(
            thresholds=list(oracle.thresholds),
            n_evaluations=oracle.n_evaluations,
        )
    _obs.counter("oracle.evaluations").inc(oracle.n_evaluations)
    return oracle


def tune_cluster(
    problem,
    sample_size: int | None = None,
    rng: RngLike = None,
    max_sweeps: int = 6,
    step: int = 4,
) -> ClusterTuneResult:
    """Sample → identify → extrapolate for a cut-vector problem.

    The identify step runs :func:`coordinate_descent` on the *sampled*
    problem (bound to the overhead-free machine, as every sampled problem
    is); both multiway problems partition a percent axis, so the sampled
    winner extrapolates to the full input unchanged — the identity map the
    scalar CC and spmm pipelines use.  ``tuning_cost_ms`` charges sample
    construction plus every probe on the sample, the number behind the
    paper's "Overhead %" column.
    """
    if sample_size is None:
        sample_size = problem.default_sample_size()
    with _obs.span(
        f"tune-cluster/{problem.name}", cat="core", sample_size=sample_size
    ) as sp:
        sampled = problem.sample(sample_size, rng=rng)
        r = _descend(sampled, None, max_sweeps, step)
        tuning_cost = float(problem.sampling_cost_ms(sample_size)) + r.cost_ms
        value = float(problem.evaluate_ms(list(r.thresholds)))
        sp.add_sim_ms(tuning_cost)
        sp.set(thresholds=list(r.thresholds), n_evaluations=r.n_evaluations)
    return ClusterTuneResult(
        thresholds=r.thresholds,
        value_ms=value,
        sample_size=sample_size,
        n_evaluations=r.n_evaluations,
        tuning_cost_ms=tuning_cost,
    )
