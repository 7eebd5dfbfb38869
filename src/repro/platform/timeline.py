"""Execution-trace recording.

A :class:`Timeline` is the simulator's clock.  Heterogeneous algorithms
append *spans* to it: sequential spans advance the clock by their duration,
overlapped groups (the CPU and GPU working simultaneously, Phase II of
Algorithms 1-3) advance it by the maximum of their members — the classic
fork-join composition.

Timelines are also evidence: tests and experiments inspect the recorded
spans to check that, e.g., the estimation phase really ran before Phase II
and that the overhead percentage is computed from the right spans.

The store is an append-only list of :class:`Span` records and a clock.
Timelines are small: a paper pipeline records at most eight spans, and
the largest schedule any experiment builds (``ablation-dynamic``'s greedy
work queue) a few thousand, so every append is one list append
(docs/PERFORMANCE.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

_F64 = np.float64


@dataclass(frozen=True)
class Span:
    """One contiguous activity on one resource.

    Attributes
    ----------
    resource:
        ``"cpu"``, ``"gpu"``, ``"pcie"``, or any caller-defined label.
    label:
        What the resource was doing (``"phase2/spgemm"`` ...).
    start_ms / duration_ms:
        Position on the simulated clock.
    """

    resource: str
    label: str
    start_ms: float
    duration_ms: float

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


class SpanQueue:
    """A FIFO of *planned* (not yet recorded) spans for one resource.

    The work-stealing executor's unit of exchange: each item carries a
    label plus its cost **on every resource that could execute it**, so an
    idle device can claim an item from another queue and re-price it for
    itself.  Items are appended with the batch :meth:`push_many` API and
    drained by :meth:`Timeline.steal_remaining`.
    """

    __slots__ = ("resource", "labels", "costs", "origins")

    def __init__(self, resource: str) -> None:
        self.resource = resource
        #: Item labels, oldest first.
        self.labels: list[str] = []
        #: Per-item cost by candidate resource name.
        self.costs: list[dict[str, float]] = []
        #: Origin resource for stolen items, ``None`` for native ones.
        self.origins: list[str | None] = []

    def push_many(
        self, labels: Sequence[str], costs: Mapping[str, Sequence[float]]
    ) -> None:
        """Append a batch of planned items.

        *costs* maps each candidate resource to that resource's per-item
        durations; it must price at least this queue's own resource, and
        every array must match ``len(labels)``.
        """
        k = len(labels)
        if self.resource not in costs:
            raise ValueError(
                f"costs must include the queue's own resource {self.resource!r}"
            )
        table = {}
        for res, arr in costs.items():
            col = np.asarray(arr, dtype=_F64)
            if col.shape != (k,):
                raise ValueError(
                    f"costs[{res!r}] must have shape ({k},), got {col.shape}"
                )
            if k and float(col.min()) < 0.0:
                raise ValueError("span costs must be non-negative")
            table[res] = col
        for i in range(k):
            self.labels.append(str(labels[i]))
            self.costs.append({res: float(col[i]) for res, col in table.items()})
            self.origins.append(None)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class StealReport:
    """What one :meth:`Timeline.steal_remaining` drain did.

    ``finish_ms`` holds each resource's absolute finish on the shared
    clock; ``stolen`` counts the items each resource *claimed* from
    another queue; ``moved`` lists every migration as
    ``(victim, thief, label)`` in commit order.
    """

    start_ms: float
    finish_ms: dict[str, float] = field(default_factory=dict)
    stolen: dict[str, int] = field(default_factory=dict)
    moved: tuple[tuple[str, str, str], ...] = ()

    @property
    def makespan_ms(self) -> float:
        """Barrier-to-barrier duration of the drained round."""
        if not self.finish_ms:
            return 0.0
        return max(self.finish_ms.values()) - self.start_ms

    @property
    def total_stolen(self) -> int:
        return sum(self.stolen.values())


class Timeline:
    """An append-only trace with a monotone clock."""

    __slots__ = ("_spans", "_cursor")

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._cursor: float = 0.0

    def _append(self, resource: str, label: str, start_ms: float, duration_ms: float) -> Span:
        # Plain floats, like the clock: a numpy duration never turns a
        # span or ``total_ms`` into an np.float64.
        span = Span(resource, label, float(start_ms), float(duration_ms))
        self._spans.append(span)
        return span

    # -- recording ---------------------------------------------------------

    def run(self, resource: str, label: str, duration_ms: float) -> Span:
        """Append one sequential span and advance the clock."""
        self._check_duration(duration_ms)
        span = self._append(resource, label, self._cursor, duration_ms)
        self._cursor += float(duration_ms)
        return span

    def overlap(self, tasks: Sequence[tuple[str, str, float]]) -> float:
        """Start every ``(resource, label, duration_ms)`` task now.

        All tasks share the current clock as their start; the clock advances
        by the longest duration.  Returns that duration (the makespan of the
        group).  An empty group is a no-op returning 0.
        """
        longest = 0.0
        for resource, label, duration_ms in tasks:
            self._check_duration(duration_ms)
            self._append(resource, label, self._cursor, duration_ms)
            longest = max(longest, float(duration_ms))
        self._cursor += longest
        return longest

    def record(self, resource: str, label: str, start_ms: float, duration_ms: float) -> Span:
        """Append a span at an explicit offset (scheduler-style recording).

        Unlike :meth:`run`, the span starts at *start_ms* rather than the
        cursor; the clock advances to the span's end if that is later.
        Used by schedulers that compute placements before recording them.
        """
        self._check_duration(duration_ms)
        if start_ms < 0:
            raise ValueError(f"start must be non-negative, got {start_ms}")
        span = self._append(resource, label, start_ms, duration_ms)
        self._cursor = max(self._cursor, span.end_ms)
        return span

    def extend(self, other: "Timeline", prefix: str = "") -> None:
        """Append *other*'s spans after this timeline's clock.

        Used to splice a sub-computation's trace (e.g. one identify run on
        the sampled input) into the parent trace.  Labels gain *prefix*.
        """
        offset = self._cursor
        for span in other.spans:
            self._append(
                span.resource, prefix + span.label, offset + span.start_ms, span.duration_ms
            )
        self._cursor = offset + other.total_ms

    # -- work-stealing execution -------------------------------------------

    def steal_remaining(self, queues: Sequence[SpanQueue]) -> StealReport:
        """Drain *queues* concurrently, letting idle devices steal.

        Every queue starts at the current clock (a fork), each resource
        executes its items in FIFO order, and the clock advances by the
        longest per-resource finish (a join) — the same barrier semantics
        as :meth:`overlap`.  Before execution the laggard's *unstarted*
        tail items migrate, one at a time, to whichever device would
        otherwise go idle first, as long as each move strictly lowers the
        pair's joint finish; a device never loses its last item (that one
        counts as already running).  A claimed item costs the thief its
        own-rate price.

        Because all costs are known up front, the greedy idle-time steals
        collapse to this deterministic tail re-balancing — the simulated
        analogue of a per-level ``balance()`` + ``executeWorkstealing()``
        pass.  Stolen spans keep their label with a ``|stolen`` suffix so
        traces show who ran what.
        """
        by_name = {}
        for q in queues:
            if q.resource in by_name:
                raise ValueError(f"duplicate queue for resource {q.resource!r}")
            by_name[q.resource] = q
        names = sorted(by_name)
        start = self._cursor
        if not names:
            return StealReport(start_ms=start)
        finish = {
            name: sum(c[name] for c in by_name[name].costs) for name in names
        }
        moved: list[tuple[str, str, str]] = []
        stolen = {name: 0 for name in names}
        if len(names) > 1:
            while True:
                victim = max(names, key=lambda r: (finish[r], r))
                q_victim = by_name[victim]
                if len(q_victim) <= 1:
                    break
                thieves = [r for r in names if r != victim]
                thief = min(thieves, key=lambda r: (finish[r], r))
                cost = q_victim.costs[-1]
                if thief not in cost:
                    break  # tail item cannot run elsewhere
                new_victim = finish[victim] - cost[victim]
                new_thief = finish[thief] + cost[thief]
                if max(new_victim, new_thief) >= max(
                    finish[victim], finish[thief]
                ):
                    break
                q_thief = by_name[thief]
                q_thief.labels.append(q_victim.labels.pop())
                q_thief.costs.append(q_victim.costs.pop())
                q_victim.origins.pop()
                q_thief.origins.append(victim)
                finish[victim] = new_victim
                finish[thief] = new_thief
                stolen[thief] += 1
                moved.append((victim, thief, q_thief.labels[-1]))
        # Record each resource's (post-steal) schedule back to back from
        # the fork point; the clock joins at the longest finish.
        for name in names:
            q = by_name[name]
            at = start
            for i, label in enumerate(q.labels):
                cost = q.costs[i][name]
                if q.origins[i] is not None:
                    label = f"{label}|stolen"
                self.record(name, label, at, cost)
                at += cost
            finish[name] = at
            q.labels.clear()
            q.costs.clear()
            q.origins.clear()
        return StealReport(
            start_ms=start,
            finish_ms=finish,
            stolen=stolen,
            moved=tuple(moved),
        )

    @staticmethod
    def _check_duration(duration_ms: float) -> None:
        if duration_ms < 0:
            raise ValueError(f"duration must be non-negative, got {duration_ms}")

    # -- inspection ---------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        return list(self._spans)

    @property
    def total_ms(self) -> float:
        """Simulated makespan: the current clock position."""
        return self._cursor

    def busy_ms(self, resource: str) -> float:
        """Total time *resource* spent busy (ignores gaps and overlaps)."""
        durations = np.array([s.duration_ms for s in self._spans], dtype=_F64)
        lane = np.array([s.resource == resource for s in self._spans], dtype=bool)
        return float(np.sum(durations, where=lane, initial=0.0))

    def labels(self) -> list[str]:
        return [s.label for s in self._spans]

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline(spans={len(self._spans)}, total_ms={self._cursor:.3f})"
