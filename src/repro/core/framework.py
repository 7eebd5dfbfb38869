"""The Sample -> Identify -> Extrapolate driver.

:class:`SamplingPartitioner` is the user-facing entry point of the library:
point it at any :class:`~repro.core.problem.PartitionProblem` and it returns
a :class:`PartitionEstimate` — the threshold to use, plus a full accounting
of what the estimation cost on the simulated clock (the paper's "Overhead"
column is ``estimation_cost / (estimation_cost + phase2_time)``).

Because the sampled problem is small, the framework can afford several
independent sample/identify repetitions and aggregate them (the paper notes
this freedom explicitly); ``repeats > 1`` averages the identified sample
thresholds before extrapolating and sums the costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.extrapolate import Extrapolator, IdentityExtrapolator
from repro.core.problem import PartitionProblem
from repro.core.search import SearchResult, SearchStrategy
from repro.obs import runtime as _obs
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator


@dataclass(frozen=True)
class PartitionEstimate:
    """Everything the framework learned about one problem.

    Attributes
    ----------
    threshold:
        The extrapolated threshold to use on the full input.
    sample_threshold:
        The (average) threshold identified on the sample(s).
    sample_size:
        Sample size used.
    estimation_cost_ms:
        Simulated cost of the whole estimation: sample construction plus
        every identify probe, summed over repeats.
    searches:
        Per-repeat identify results.
    extrapolator:
        Description of the extrapolation law applied.
    """

    threshold: float
    sample_threshold: float
    sample_size: int
    estimation_cost_ms: float
    searches: tuple[SearchResult, ...]
    extrapolator: str

    def overhead_percent(self, phase2_ms: float) -> float:
        """The paper's Overhead %: estimation share of the end-to-end time."""
        total = self.estimation_cost_ms + phase2_ms
        if total <= 0:
            raise ValidationError("total time must be positive")
        return 100.0 * self.estimation_cost_ms / total

    # -- persistence (repro.engine.cache) ----------------------------------

    def to_record(self) -> dict:
        """A JSON-safe dict that round-trips via :meth:`from_record`."""
        return {
            "threshold": self.threshold,
            "sample_threshold": self.sample_threshold,
            "sample_size": self.sample_size,
            "estimation_cost_ms": self.estimation_cost_ms,
            "searches": [s.to_record() for s in self.searches],
            "extrapolator": self.extrapolator,
        }

    @classmethod
    def from_record(cls, record: dict) -> "PartitionEstimate":
        return cls(
            threshold=float(record["threshold"]),
            sample_threshold=float(record["sample_threshold"]),
            sample_size=int(record["sample_size"]),
            estimation_cost_ms=float(record["estimation_cost_ms"]),
            searches=tuple(
                SearchResult.from_record(s) for s in record["searches"]
            ),
            extrapolator=str(record["extrapolator"]),
        )


class SamplingPartitioner:
    """Sampling-based work partitioning (the paper's Section II framework).

    Parameters
    ----------
    search:
        Identify strategy, run on each sampled problem.
    extrapolator:
        Sample-to-full threshold mapping (identity by default).
    sample_size:
        Override the problem's default sample size (used by the
        sensitivity studies, Figures 4/6/9).
    repeats:
        Independent sample/identify repetitions to aggregate.
    rng:
        Seed or generator for the sampling randomness.
    """

    def __init__(
        self,
        search: SearchStrategy,
        *,
        extrapolator: Extrapolator | None = None,
        sample_size: int | None = None,
        repeats: int = 1,
        rng: RngLike = None,
    ) -> None:
        if repeats < 1:
            raise ValidationError("repeats must be >= 1")
        if sample_size is not None and sample_size < 1:
            raise ValidationError("sample_size must be >= 1 when given")
        self.search = search
        self.extrapolator = extrapolator or IdentityExtrapolator()
        self.sample_size = sample_size
        self.repeats = repeats
        self.rng = as_generator(rng)

    def estimate(self, problem: PartitionProblem) -> PartitionEstimate:
        """Run Sample -> Identify -> Extrapolate on *problem*.

        When observability is enabled, the whole call is wrapped in an
        ``estimate/<problem>`` span charged the full estimation cost, with
        child ``sample/<problem>`` spans per repetition (the identify
        search records its own ``search/<Strategy>`` span) and one
        ``extrapolate/<problem>`` span; see docs/OBSERVABILITY.md.
        """
        with _obs.span(
            f"estimate/{problem.name}", cat="core", repeats=self.repeats
        ) as est_span:
            size = (
                self.sample_size
                if self.sample_size is not None
                else problem.default_sample_size()
            )
            searches: list[SearchResult] = []
            cost = 0.0
            sample_thresholds: list[float] = []
            # Problems whose threshold axis is not scale free (the scale-free
            # spmm row-density cutoff) expose the scale information extrapolation
            # laws need; share-type problems simply omit the hook.
            context_fn = getattr(problem, "extrapolation_context", None)
            context: dict = context_fn(size) if context_fn is not None else {}
            # Identify runs are priced work-only (the sampled problem lives on an
            # overhead-free machine); the fixed per-run launch constants the real
            # machine would charge are accounted through run_overhead_ms.
            overhead_fn = getattr(problem, "run_overhead_ms", None)
            per_run_fixed = overhead_fn(size) if overhead_fn is not None else 0.0
            for _ in range(self.repeats):
                with _obs.span(
                    f"sample/{problem.name}", cat="core", sample_size=size
                ) as sample_span:
                    sub = problem.sample(size, rng=self.rng)
                    sampling_ms = problem.sampling_cost_ms(size)
                    sample_span.add_sim_ms(sampling_ms)
                cost += sampling_ms
                result = self.search.minimize(sub)
                searches.append(result)
                # Wall-clock cost of the probes: problems whose sample decision
                # values are not literal run times (the degree-weighted CC
                # sample) expose probe_cost_ms; otherwise the probe cost is the
                # sum of the evaluated times.
                probe_cost_fn = getattr(sub, "probe_cost_ms", None)
                # Literal (ablation) samples, and samples that keep every row
                # of a tiny input, report real run times directly and
                # advertise is_sample=False; their probe costs are the
                # evaluated times themselves.
                if probe_cost_fn is not None and getattr(sub, "is_sample", True):
                    cost += result.n_evaluations * probe_cost_fn() + result.extra_cost_ms
                else:
                    cost += result.cost_ms
                cost += result.n_evaluations * per_run_fixed
                sample_thresholds.append(result.threshold)
            sample_t = float(np.mean(sample_thresholds))
            with _obs.span(f"extrapolate/{problem.name}", cat="core"):
                full_t = self.extrapolator.extrapolate(sample_t, context)
            est_span.add_sim_ms(cost)
            est_span.set(threshold=full_t, sample_size=size)
            return PartitionEstimate(
                threshold=full_t,
                sample_threshold=sample_t,
                sample_size=size,
                estimation_cost_ms=cost,
                searches=tuple(searches),
                extrapolator=self.extrapolator.describe(),
            )
