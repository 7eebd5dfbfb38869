"""Dynamic re-balancing: rounds, hindsight threshold updates, and work stealing.

The paper's framework fixes the threshold once, before Phase II, from a
sampled estimate.  That is the right call when per-unit costs are stable —
and exactly the wrong one when they drift across the input (density ramps,
adversarial row orderings).  :class:`DynamicRebalance` measures what
holding the threshold costs there.  It runs one loop on any
rounds-capable partition problem:

* the input's partition axis is cut into ``rounds`` contiguous blocks
  (:meth:`round_block` on the problem);
* round 0 runs at the same sampled estimate the static strategy would use
  (``rounds=1`` therefore *is* the static strategy, bit for bit);
* after each round the threshold moves (damped by :data:`RELAX`) toward
  the hindsight-optimal share of the block that just ran: its data is in
  hand, so its cost curve can be re-priced and minimized —
  follow-the-leader, one round of lag against drift;
* with ``steal=True`` and a problem that can price chunked span queues
  (:meth:`round_queues`), each round drains through
  :meth:`Timeline.steal_remaining` so the idle device claims unstarted
  chunks from the laggard — imbalance the between-round threshold move
  cannot reach.

Problems opt in per axis:

``round_axis_n()`` / ``round_block(lo, hi)``
    required — the rounds axis and its contiguous blocks.
``cpu_share_at(t)`` / ``threshold_for_cpu_share(s)``
    optional — threshold <-> CPU-work-share mapping; identity on the
    percent axis by default (exact for spmm and dense GEMM, overridden by
    CC's GPU-share axis and the HH density cutoff).
``round_queues(t, chunks)``
    optional — stealable :class:`~repro.platform.timeline.SpanQueue` pair
    for a round at threshold ``t``.

Observability: ``rebalance.rounds`` counts executed rounds,
``rebalance.stolen_rows`` the rows that migrated between devices; both are
plain counters with the usual zero-overhead-when-disabled contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.core.framework import PartitionEstimate, SamplingPartitioner
from repro.core.problem import evaluate_grid
from repro.core.search import CoarseToFineSearch
from repro.obs import runtime as _obs
from repro.platform.timeline import Timeline
from repro.util.errors import ValidationError

#: Damping of the between-round share move: the next share goes this far
#: from the current one toward the finished block's hindsight optimum.
#: Full steps chase adversarial alternation (sawtooth); half-steps track
#: monotone drift (ramps) while staying near the mean split under
#: oscillation.
RELAX = 0.5
#: Chunks per device queue when a round drains through work stealing.
STEAL_CHUNKS = 8

#: ``rows[a:b)`` span labels carry their row count; anything else counts 1.
_ROWS_LABEL = re.compile(r"rows\[(\d+):(\d+)\)")


def _rows_in_label(label: str) -> int:
    m = _ROWS_LABEL.search(label)
    if m is None:
        return 1
    return max(int(m.group(2)) - int(m.group(1)), 1)


def round_bounds(n: int, rounds: int) -> list[tuple[int, int]]:
    """*rounds* near-equal contiguous blocks of ``[0, n)``, empties dropped.

    With ``rounds >= n`` the non-empty blocks are the ``n`` unit blocks, so
    at most ``min(rounds, n)`` blocks are built whatever *rounds* is.
    """
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    if n < 0:
        raise ValidationError("n must be non-negative")
    if n == 0:
        return []
    rounds = min(rounds, n)
    edges = [int(round(i * n / rounds)) for i in range(rounds + 1)]
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


@dataclass(frozen=True)
class RoundRecord:
    """One executed round: where it ran, at what cut, and what it cost."""

    index: int
    lo: int
    hi: int
    thresholds: tuple[float, ...]
    makespan_ms: float
    stolen_rows: int = 0


@dataclass(frozen=True)
class DynamicRebalanceResult:
    """Outcome of a rounds-based run.

    ``timeline`` is the spliced whole-run trace (rounds are barriers:
    round ``r+1`` starts when round ``r``'s laggard finishes); it takes no
    part in equality, so two results compare by their rounds and totals.
    """

    problem_name: str
    rounds: tuple[RoundRecord, ...]
    total_ms: float
    estimate: PartitionEstimate
    timeline: Timeline = field(compare=False)

    @property
    def thresholds(self) -> tuple[tuple[float, ...], ...]:
        return tuple(r.thresholds for r in self.rounds)

    @property
    def stolen_rows(self) -> int:
        return sum(r.stolen_rows for r in self.rounds)


class DynamicRebalance:
    """Rounds-based partitioning with hindsight threshold updates.

    Parameters
    ----------
    partitioner:
        Produces the round-0 threshold (the static estimate); defaults to
        a fresh :class:`SamplingPartitioner` over
        :class:`~repro.core.search.CoarseToFineSearch`.
    rounds:
        Contiguous blocks the axis is cut into, at most one per axis item.
        ``1`` reproduces the static strategy exactly (same estimate, same
        single timeline); so does an empty axis, which has nothing to cut.
    steal:
        Drain rounds through :meth:`Timeline.steal_remaining`, with
        :data:`STEAL_CHUNKS` chunks per device queue, when the problem
        prices stealable queues (``round_queues``); problems without the
        hook fall back to their analytic round timeline.
    """

    name = "dynamic-rebalance"

    def __init__(
        self,
        partitioner: SamplingPartitioner | None = None,
        *,
        rounds: int = 4,
        steal: bool = False,
    ) -> None:
        if rounds < 1:
            raise ValidationError("rounds must be >= 1")
        self.partitioner = (
            partitioner
            if partitioner is not None
            else SamplingPartitioner(CoarseToFineSearch())
        )
        self.rounds = rounds
        self.steal = steal

    # -- threshold geometry ------------------------------------------------

    def _clamp(self, problem, threshold: float) -> float:
        grid = problem.threshold_grid()
        return float(min(max(threshold, float(grid[0])), float(grid[-1])))

    def _share_at(self, problem, threshold: float) -> float:
        share_fn = getattr(problem, "cpu_share_at", None)
        if share_fn is not None:
            return float(share_fn(threshold))
        return threshold / 100.0

    def _threshold_for(self, problem, share: float) -> float:
        inv_fn = getattr(problem, "threshold_for_cpu_share", None)
        if inv_fn is not None:
            return float(inv_fn(share))
        return 100.0 * min(max(share, 0.0), 1.0)

    def _next_threshold(self, observed, upcoming, threshold: float) -> float:
        """Move the cut toward the split the finished round argues for.

        The block that just ran is fully in hand, so its cost curve can be
        re-priced at every cutoff (:func:`~repro.core.problem.evaluate_grid`)
        and minimized — "what split *should* round *k* have used?"  That is
        follow-the-leader: exact on the observed block, one round of lag
        against drift.  No balance heuristic survives this problem family's
        cost structure — the phases are barriers, the chunked CPU and
        warp-padded GPU kernels are straggler-bound (a lane's time can be
        flat in its share), so the true per-block optimum is not where any
        busy/finish ratio balances and can even sit at an all-GPU boundary.

        The share is *read* off the block that just ran (*observed*) and
        *applied* through the block about to run (*upcoming*): on an
        absolute threshold axis (the HH density cutoff) mapping the share
        through a stale distribution would lag every drift by a full round.
        :data:`RELAX` damps the move.
        """
        s = self._share_at(observed, threshold)
        grid = np.asarray(observed.threshold_grid(), dtype=np.float64)
        times = evaluate_grid(observed, grid)
        s_star = self._share_at(observed, float(grid[int(np.argmin(times))]))
        s_next = min(max(s + RELAX * (s_star - s), 0.0), 1.0)
        return self._clamp(upcoming, self._threshold_for(upcoming, s_next))

    # -- execution ---------------------------------------------------------

    def run(self, problem) -> DynamicRebalanceResult:
        """Partition *problem* across rounds, re-balancing between them."""
        estimate = self.partitioner.estimate(problem)
        threshold = self._clamp(problem, estimate.threshold)
        if self.rounds == 1 or problem.round_axis_n() == 0:
            # Literally the static path: one timeline at the sampled
            # estimate, no slicing, no stealing — the bit-identity anchor.
            tl = problem.timeline(threshold)
            record = RoundRecord(
                index=0,
                lo=0,
                hi=problem.round_axis_n(),
                thresholds=(threshold,),
                makespan_ms=tl.total_ms,
            )
            _obs.counter("rebalance.rounds").inc(1)
            return DynamicRebalanceResult(
                problem_name=problem.name,
                rounds=(record,),
                total_ms=tl.total_ms,
                estimate=estimate,
                timeline=tl,
            )
        return self._run_rounds(problem, estimate, threshold)

    def _run_rounds(
        self, problem, estimate: PartitionEstimate, threshold: float
    ) -> DynamicRebalanceResult:
        bounds = round_bounds(problem.round_axis_n(), self.rounds)
        blocks = [problem.round_block(lo, hi) for lo, hi in bounds]
        # Round 0 applies the estimate's *share* through the first block's
        # own distribution — the estimate's rate knowledge with the
        # in-hand data knowledge.  Identity on percent-share axes; on the
        # HH density axis it is what spares round 0 from paying the full
        # drift between the input mixture and its first block.
        threshold = self._clamp(
            blocks[0],
            self._threshold_for(blocks[0], self._share_at(problem, threshold)),
        )
        tl = Timeline()
        records: list[RoundRecord] = []
        for index, (lo, hi) in enumerate(bounds):
            block = blocks[index]
            round_tl, stolen = self._run_block(block, threshold)
            tl.extend(round_tl, prefix=f"round{index}/")
            records.append(
                RoundRecord(
                    index=index,
                    lo=lo,
                    hi=hi,
                    thresholds=(threshold,),
                    makespan_ms=round_tl.total_ms,
                    stolen_rows=stolen,
                )
            )
            if index + 1 < len(bounds):
                threshold = self._next_threshold(
                    block, blocks[index + 1], threshold
                )
        _obs.counter("rebalance.rounds").inc(len(records))
        stolen_total = sum(r.stolen_rows for r in records)
        if stolen_total:
            _obs.counter("rebalance.stolen_rows").inc(stolen_total)
        return DynamicRebalanceResult(
            problem_name=problem.name,
            rounds=tuple(records),
            total_ms=tl.total_ms,
            estimate=estimate,
            timeline=tl,
        )

    def _run_block(self, block, threshold: float) -> tuple[Timeline, int]:
        """One round: steal-drained when the problem prices queues."""
        queues_fn = getattr(block, "round_queues", None)
        if not self.steal or queues_fn is None:
            return block.timeline(threshold), 0
        queues = queues_fn(threshold, chunks=STEAL_CHUNKS)
        round_tl = Timeline()
        report = round_tl.steal_remaining(queues)
        stolen = sum(_rows_in_label(label) for _, _, label in report.moved)
        return round_tl, stolen


def per_round_oracle(problem, rounds: int) -> tuple[list[float], float]:
    """The clairvoyant lower bound the ablation compares against.

    Exhaustively grid-minimizes each round block in isolation and sums the
    per-round makespans — what a scheduler that knew every block's true
    cost curve in advance would pay under the same round barriers.
    Returns ``(per_round_thresholds, total_ms)``.
    """
    bounds = round_bounds(problem.round_axis_n(), rounds)
    thresholds: list[float] = []
    total = 0.0
    for lo, hi in bounds:
        block = problem.round_block(lo, hi)
        grid = np.asarray(block.threshold_grid(), dtype=np.float64)
        times = evaluate_grid(block, grid)
        best = int(np.argmin(times))
        thresholds.append(float(grid[best]))
        total += float(times[best])
    return thresholds, total


__all__ = [
    "DynamicRebalance",
    "DynamicRebalanceResult",
    "RoundRecord",
    "per_round_oracle",
    "round_bounds",
]
