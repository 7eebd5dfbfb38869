"""Dynamic re-balancing: rounds, timing-ratio updates, and work stealing.

The paper's framework fixes the threshold once, before Phase II, from a
sampled estimate.  That is the right call when per-unit costs are stable —
and exactly the wrong one when they drift across the input (density ramps,
adversarial row orderings) or when the initial rate model is simply off.
Charm++-style heterogeneous load balancers handle this by *re-estimating
the device rate ratio from observed busy times* between phases
(``UpdateTimingRatios``); per-level work-stealing executors handle the
residual imbalance inside a phase by letting the idle device claim
unstarted work from the laggard's queue.

:class:`DynamicRebalance` brings both to any rounds-capable partition
problem:

* the input's partition axis is cut into ``rounds`` contiguous blocks
  (:meth:`round_block` on the problem);
* round 0 runs at the same sampled estimate the static strategy would use
  (``rounds=1`` therefore *is* the static strategy, bit for bit);
* after each round the threshold moves (damped by ``relax``) toward the
  split the finished round argues for: the hindsight-optimal share of the
  block that just ran (its data is in hand, so its cost curve can be
  re-priced and minimized — follow-the-leader, one round of lag against
  drift), with a ``UpdateTimingRatios``-style balance of the per-lane
  finish times read off the simulated
  :class:`~repro.platform.timeline.Timeline` as the fallback for
  problems that cannot re-price a block;
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
``device_shares_at(v)`` / ``thresholds_for_device_shares(s)``
    the cut-vector equivalents for multiway problems.
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
from typing import Sequence

import numpy as np

from repro.core.framework import PartitionEstimate, SamplingPartitioner
from repro.core.search import CoarseToFineSearch
from repro.obs import runtime as _obs
from repro.platform.timeline import Timeline
from repro.util.errors import ValidationError

#: ``rows[a:b)`` span labels carry their row count; anything else counts 1.
_ROWS_LABEL = re.compile(r"rows\[(\d+):(\d+)\)")


def _rows_in_label(label: str) -> int:
    m = _ROWS_LABEL.search(label)
    if m is None:
        return 1
    return max(int(m.group(2)) - int(m.group(1)), 1)


def round_bounds(n: int, rounds: int) -> list[tuple[int, int]]:
    """*rounds* near-equal contiguous blocks of ``[0, n)``, empties dropped."""
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    if n < 0:
        raise ValidationError("n must be non-negative")
    edges = [int(round(i * n / rounds)) for i in range(rounds + 1)]
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


@dataclass(frozen=True)
class RoundRecord:
    """One executed round: where it ran, at what cut, and what it observed."""

    index: int
    lo: int
    hi: int
    thresholds: tuple[float, ...]
    makespan_ms: float
    busy_ms: dict[str, float] = field(default_factory=dict)
    finish_ms: dict[str, float] = field(default_factory=dict)
    stolen_rows: int = 0

    def to_record(self) -> dict:
        return {
            "index": self.index,
            "lo": self.lo,
            "hi": self.hi,
            "thresholds": list(self.thresholds),
            "makespan_ms": self.makespan_ms,
            "busy_ms": dict(self.busy_ms),
            "finish_ms": dict(self.finish_ms),
            "stolen_rows": self.stolen_rows,
        }

    @classmethod
    def from_record(cls, record: dict) -> "RoundRecord":
        return cls(
            index=int(record["index"]),
            lo=int(record["lo"]),
            hi=int(record["hi"]),
            thresholds=tuple(float(t) for t in record["thresholds"]),
            makespan_ms=float(record["makespan_ms"]),
            busy_ms={str(k): float(v) for k, v in record["busy_ms"].items()},
            finish_ms={
                str(k): float(v)
                for k, v in record.get("finish_ms", {}).items()
            },
            stolen_rows=int(record["stolen_rows"]),
        )


@dataclass(frozen=True)
class DynamicRebalanceResult:
    """Outcome of a rounds-based run.

    ``timeline`` is the spliced whole-run trace (rounds are barriers:
    round ``r+1`` starts when round ``r``'s laggard finishes); it is not
    part of the serialized record — :meth:`from_record` restores
    everything else and leaves it ``None``.
    """

    problem_name: str
    rounds: tuple[RoundRecord, ...]
    total_ms: float
    estimate: PartitionEstimate | None = None
    timeline: Timeline | None = field(default=None, compare=False)

    @property
    def thresholds(self) -> tuple[tuple[float, ...], ...]:
        return tuple(r.thresholds for r in self.rounds)

    @property
    def stolen_rows(self) -> int:
        return sum(r.stolen_rows for r in self.rounds)

    def to_record(self) -> dict:
        return {
            "problem_name": self.problem_name,
            "rounds": [r.to_record() for r in self.rounds],
            "total_ms": self.total_ms,
            "estimate": None if self.estimate is None else self.estimate.to_record(),
        }

    @classmethod
    def from_record(cls, record: dict) -> "DynamicRebalanceResult":
        est = record.get("estimate")
        return cls(
            problem_name=str(record["problem_name"]),
            rounds=tuple(RoundRecord.from_record(r) for r in record["rounds"]),
            total_ms=float(record["total_ms"]),
            estimate=None if est is None else PartitionEstimate.from_record(est),
        )


class DynamicRebalance:
    """Rounds-based partitioning with observed-rate threshold updates.

    Parameters
    ----------
    partitioner:
        Produces the round-0 threshold (the static estimate); defaults to
        a fresh :class:`SamplingPartitioner` over
        :class:`~repro.core.search.CoarseToFineSearch`.
    rounds:
        Contiguous blocks the axis is cut into.  ``1`` reproduces the
        static strategy exactly (same estimate, same single timeline).
    relax:
        Damping of the between-round share move, in ``(0, 1]``; ``1``
        jumps straight to the observed block's hindsight-optimal share.
        Full steps chase adversarial alternation; the default half-step
        tracks monotone drift while staying near the mean split under
        oscillation.
    steal:
        Drain rounds through :meth:`Timeline.steal_remaining` when the
        problem prices stealable queues (``round_queues``); problems
        without the hook fall back to their analytic round timeline.
    steal_chunks:
        Chunks per device queue when stealing.
    steal_overhead_ms:
        Per-stolen-chunk re-dispatch cost.
    min_share:
        Probing floor: when the update would park a device at zero share
        (or a round ran entirely on one device, leaving no rate signal for
        the other), the next round still gives the idle device this much —
        an idle device can never be re-observed, so a zero share is a
        permanent lockout under drift.
    """

    name = "dynamic-rebalance"

    def __init__(
        self,
        partitioner: SamplingPartitioner | None = None,
        *,
        rounds: int = 4,
        relax: float = 0.5,
        steal: bool = False,
        steal_chunks: int = 8,
        steal_overhead_ms: float = 0.0,
        min_share: float = 0.05,
    ) -> None:
        if rounds < 1:
            raise ValidationError("rounds must be >= 1")
        if not 0.0 < relax <= 1.0:
            raise ValidationError("relax must be in (0, 1]")
        if steal_chunks < 1:
            raise ValidationError("steal_chunks must be >= 1")
        if steal_overhead_ms < 0.0:
            raise ValidationError("steal_overhead_ms must be non-negative")
        if not 0.0 <= min_share < 0.5:
            raise ValidationError("min_share must be in [0, 0.5)")
        self.partitioner = (
            partitioner
            if partitioner is not None
            else SamplingPartitioner(CoarseToFineSearch())
        )
        self.rounds = rounds
        self.relax = relax
        self.steal = steal
        self.steal_chunks = steal_chunks
        self.steal_overhead_ms = steal_overhead_ms
        self.min_share = min_share

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

    def _next_threshold(
        self,
        observed,
        upcoming,
        threshold: float,
        busy: dict[str, float],
        finish: dict[str, float],
    ) -> float:
        """Move the cut toward the split the finished round argues for.

        **Hindsight re-optimization (default).**  The block that just ran
        is fully in hand, so its cost curve can be re-priced at every
        cutoff (``evaluate_many``) and minimized — "what split *should*
        round *k* have used?"  That is follow-the-leader: exact on the
        observed block, one round of lag against drift.  No balance
        heuristic survives this problem family's cost structure — the
        phases are barriers, the chunked CPU and warp-padded GPU kernels
        are straggler-bound (a lane's time can be flat in its share), so
        the true per-block optimum is not where any busy/finish ratio
        balances and can even sit at an all-GPU boundary.

        **Finish-time ratio fallback.**  A problem without batch pricing
        falls back to a ``UpdateTimingRatios``-style balance on per-lane
        *finish* times (the makespan is their max): rates ``tau_c = f_c /
        s`` and ``tau_g = f_g / (1 - s)``, balanced at ``s* = tau_g /
        (tau_c + tau_g)``.  The PCIe lane extends the chain of the device
        whose output it ships — the GPU by default, the CPU where a
        problem declares ``rebalance_pcie_device = "cpu"`` (CC ships the
        CPU's labels up for the merge).  Degenerate observations (a
        device that ran nothing carries no rate signal) probe with the
        ``min_share`` floor instead of staying blind forever.

        Either way the share is *read* off the block that just ran
        (*observed*) and *applied* through the block about to run
        (*upcoming*): on an absolute threshold axis (the HH density
        cutoff) mapping the share through a stale distribution would lag
        every drift by a full round.  ``relax`` damps the move — under
        adversarial alternation (sawtooth) chasing each block at full
        step oscillates around the mean split.
        """
        s = self._share_at(observed, threshold)
        evaluate_many = getattr(observed, "evaluate_many", None)
        if evaluate_many is not None:
            grid = np.asarray(observed.threshold_grid(), dtype=np.float64)
            times = np.asarray(evaluate_many(grid), dtype=np.float64)
            s_star = self._share_at(
                observed, float(grid[int(np.argmin(times))])
            )
            s_next = min(max(s + self.relax * (s_star - s), 0.0), 1.0)
            return self._clamp(upcoming, self._threshold_for(upcoming, s_next))
        pcie_dev = getattr(observed, "rebalance_pcie_device", "gpu")
        pcie_f = finish.get("pcie", 0.0)
        f_c = finish.get("cpu", 0.0)
        f_g = finish.get("gpu", 0.0)
        if pcie_dev == "cpu":
            f_c = max(f_c, pcie_f)
        else:
            f_g = max(f_g, pcie_f)
        floor = self.min_share
        if s <= 0.0 or busy.get("cpu", 0.0) <= 0.0 or f_c <= 0.0:
            # CPU ran nothing: no rate signal — probe it with the floor
            # share rather than staying blind forever.
            s_next = max(s, floor)
        elif s >= 1.0 or busy.get("gpu", 0.0) <= 0.0 or f_g <= 0.0:
            s_next = min(s, 1.0 - floor) if floor > 0.0 else s
        else:
            tau_c = f_c / s
            tau_g = f_g / (1.0 - s)
            s_star = tau_g / (tau_c + tau_g)
            s_next = s + self.relax * (s_star - s)
            s_next = min(max(s_next, floor), 1.0 - floor)
        return self._clamp(upcoming, self._threshold_for(upcoming, s_next))

    def _next_vector(
        self, problem, thresholds: Sequence[float], finish: dict[str, float]
    ) -> tuple[float, ...]:
        """The cut-vector generalization: balance p observed per-share rates."""
        shares = problem.device_shares_at(thresholds)
        names = ["cpu"] + [f"gpu{i}" for i in range(len(shares) - 1)]
        speeds = np.zeros(len(shares), dtype=np.float64)
        known = []
        for i, (name, share) in enumerate(zip(names, shares)):
            f = finish.get(name, 0.0)
            if share > 0.0 and f > 0.0:
                speeds[i] = share / f  # share units per finish ms
                known.append(i)
        if len(known) < 2:
            return tuple(float(t) for t in thresholds)
        # Devices that ran nothing this round carry no rate signal; give
        # them the mean observed speed so they re-enter the split.
        mean_speed = float(speeds[known].mean())
        for i in range(len(shares)):
            if i not in known:
                speeds[i] = mean_speed
        target = speeds / speeds.sum()
        current = np.asarray(shares, dtype=np.float64)
        # The probing floor keeps every device observable next round (the
        # renormalization inside thresholds_for_device_shares absorbs it).
        blended = np.clip(
            current + self.relax * (target - current), self.min_share, 1.0
        )
        return tuple(
            float(t) for t in problem.thresholds_for_device_shares(blended)
        )

    # -- execution ---------------------------------------------------------

    def run(self, problem) -> DynamicRebalanceResult:
        """Partition *problem* across rounds, re-balancing between them."""
        estimate = self.partitioner.estimate(problem)
        threshold = self._clamp(problem, estimate.threshold)
        if self.rounds == 1:
            # Literally the static path: one timeline at the sampled
            # estimate, no slicing, no stealing — the bit-identity anchor.
            tl = problem.timeline(threshold)
            lanes = ("cpu", "gpu", "pcie")
            record = RoundRecord(
                index=0,
                lo=0,
                hi=problem.round_axis_n(),
                thresholds=(threshold,),
                makespan_ms=tl.total_ms,
                busy_ms={lane: tl.busy_ms(lane) for lane in lanes},
                finish_ms={lane: tl.finish_ms(lane) for lane in lanes},
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
        self, problem, estimate: PartitionEstimate | None, threshold: float
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
            lanes = ("cpu", "gpu", "pcie")
            busy = {lane: round_tl.busy_ms(lane) for lane in lanes}
            finish = {lane: round_tl.finish_ms(lane) for lane in lanes}
            tl.extend(round_tl, prefix=f"round{index}/")
            records.append(
                RoundRecord(
                    index=index,
                    lo=lo,
                    hi=hi,
                    thresholds=(threshold,),
                    makespan_ms=round_tl.total_ms,
                    busy_ms=busy,
                    finish_ms=finish,
                    stolen_rows=stolen,
                )
            )
            if index + 1 < len(bounds):
                threshold = self._next_threshold(
                    block, blocks[index + 1], threshold, busy, finish
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
        queues = queues_fn(threshold, chunks=self.steal_chunks)
        round_tl = Timeline()
        report = round_tl.steal_remaining(
            queues, steal_overhead_ms=self.steal_overhead_ms
        )
        stolen = sum(_rows_in_label(label) for _, _, label in report.moved)
        return round_tl, stolen

    # -- cut-vector (multiway) execution -----------------------------------

    def run_vector(
        self, problem, thresholds: Sequence[float]
    ) -> DynamicRebalanceResult:
        """Rounds-based run of a cut-vector (p-device) problem.

        The caller supplies the round-0 vector (typically coordinate
        descent on a sample, or the cluster's naive static cuts); between
        rounds all p observed per-share rates are re-balanced at once.
        ``rounds=1`` is again exactly the static vector run.
        """
        vector = tuple(float(t) for t in thresholds)
        if self.rounds == 1:
            tl = problem.timeline(vector)
            shares = problem.device_shares_at(vector)
            names = ["cpu"] + [f"gpu{i}" for i in range(len(shares) - 1)]
            record = RoundRecord(
                index=0,
                lo=0,
                hi=problem.round_axis_n(),
                thresholds=vector,
                makespan_ms=tl.total_ms,
                busy_ms={name: tl.busy_ms(name) for name in names},
                finish_ms={name: tl.finish_ms(name) for name in names},
            )
            _obs.counter("rebalance.rounds").inc(1)
            return DynamicRebalanceResult(
                problem_name=problem.name,
                rounds=(record,),
                total_ms=tl.total_ms,
                estimate=None,
                timeline=tl,
            )
        bounds = round_bounds(problem.round_axis_n(), self.rounds)
        tl = Timeline()
        records: list[RoundRecord] = []
        for index, (lo, hi) in enumerate(bounds):
            block = problem.round_block(lo, hi)
            round_tl = block.timeline(vector)
            shares = problem.device_shares_at(vector)
            names = ["cpu"] + [f"gpu{i}" for i in range(len(shares) - 1)]
            busy = {name: round_tl.busy_ms(name) for name in names}
            finish = {name: round_tl.finish_ms(name) for name in names}
            tl.extend(round_tl, prefix=f"round{index}/")
            records.append(
                RoundRecord(
                    index=index,
                    lo=lo,
                    hi=hi,
                    thresholds=vector,
                    makespan_ms=round_tl.total_ms,
                    busy_ms=busy,
                    finish_ms=finish,
                )
            )
            if index + 1 < len(bounds):
                vector = self._next_vector(block, vector, finish)
        _obs.counter("rebalance.rounds").inc(len(records))
        return DynamicRebalanceResult(
            problem_name=problem.name,
            rounds=tuple(records),
            total_ms=tl.total_ms,
            estimate=None,
            timeline=tl,
        )


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
        times = block.evaluate_many(grid)
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
