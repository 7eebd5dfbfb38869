"""Execution-trace recording.

A :class:`Timeline` is the simulator's clock.  Heterogeneous algorithms
append *spans* to it: sequential spans advance the clock by their duration,
overlapped groups (the CPU and GPU working simultaneously, Phase II of
Algorithms 1-3) advance it by the maximum of their members — the classic
fork-join composition.

Timelines are also evidence: tests and experiments inspect the recorded
spans to check that, e.g., the estimation phase really ran before Phase II
and that the overhead percentage is computed from the right spans.

Storage is columnar: starts and durations live in growable numpy arrays,
resources and labels are interned into per-timeline string pools addressed
by int32 codes.  The scalar recording API (:meth:`Timeline.run`,
:meth:`Timeline.overlap`, :meth:`Timeline.record`) is unchanged and
bit-identical to the historical list-of-``Span`` implementation; the batch
API (:meth:`Timeline.run_many`, :meth:`Timeline.overlap_many`,
:meth:`Timeline.record_many`) appends whole span groups in a handful of
array operations while producing exactly the spans the scalar calls would
— batch starts come from a ``cumsum`` over ``[cursor, d0, d1, ...]``,
which is the same left-fold the scalar cursor performs, so the two paths
agree to the bit.  :attr:`Timeline.spans` still materializes ``Span``
objects (lazily, cached) so every existing consumer sees identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

_F64 = np.float64
_CODE = np.int32
_MIN_CAPACITY = 16


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


@dataclass(frozen=True)
class TimelineColumns:
    """Zero-copy columnar view of a timeline (read-only numpy arrays).

    ``resources[i]`` / ``labels[i]`` are codes into ``resource_pool`` /
    ``label_pool``.  Consumers that aggregate over many spans (utilization,
    busy time, trace export) should prefer this over :attr:`Timeline.spans`
    — no ``Span`` objects are materialized.
    """

    starts: np.ndarray
    durations: np.ndarray
    resources: np.ndarray
    labels: np.ndarray
    resource_pool: tuple[str, ...]
    label_pool: tuple[str, ...]

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.durations


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

    __slots__ = (
        "_starts",
        "_durs",
        "_res",
        "_lab",
        "_n",
        "_cursor",
        "_res_pool",
        "_res_ids",
        "_lab_pool",
        "_lab_ids",
        "_span_cache",
    )

    def __init__(self) -> None:
        self._starts = np.empty(_MIN_CAPACITY, dtype=_F64)
        self._durs = np.empty(_MIN_CAPACITY, dtype=_F64)
        self._res = np.empty(_MIN_CAPACITY, dtype=_CODE)
        self._lab = np.empty(_MIN_CAPACITY, dtype=_CODE)
        self._n = 0
        self._cursor: float = 0.0
        self._res_pool: list[str] = []
        self._res_ids: dict[str, int] = {}
        self._lab_pool: list[str] = []
        self._lab_ids: dict[str, int] = {}
        self._span_cache: list[Span] = []

    # -- storage -----------------------------------------------------------

    def _grow_to(self, needed: int) -> None:
        cap = self._starts.shape[0]
        if needed <= cap:
            return
        new_cap = max(needed, cap * 2)
        for name in ("_starts", "_durs", "_res", "_lab"):
            old = getattr(self, name)
            fresh = np.empty(new_cap, dtype=old.dtype)
            fresh[: self._n] = old[: self._n]
            setattr(self, name, fresh)

    def _intern_resource(self, resource: str) -> int:
        code = self._res_ids.get(resource)
        if code is None:
            code = len(self._res_pool)
            self._res_ids[resource] = code
            self._res_pool.append(resource)
        return code

    def _intern_label(self, label: str) -> int:
        code = self._lab_ids.get(label)
        if code is None:
            code = len(self._lab_pool)
            self._lab_ids[label] = code
            self._lab_pool.append(label)
        return code

    def _append(self, resource: str, label: str, start: float, dur: float) -> None:
        i = self._n
        self._grow_to(i + 1)
        self._starts[i] = start
        self._durs[i] = dur
        self._res[i] = self._intern_resource(resource)
        self._lab[i] = self._intern_label(label)
        self._n = i + 1

    # -- recording ---------------------------------------------------------

    def run(self, resource: str, label: str, duration_ms: float) -> Span:
        """Append one sequential span and advance the clock."""
        self._check_duration(duration_ms)
        span = Span(resource, label, self._cursor, duration_ms)
        self._append(resource, label, self._cursor, duration_ms)
        self._cursor += duration_ms
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
            longest = max(longest, duration_ms)
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
        span = Span(resource, label, start_ms, duration_ms)
        self._append(resource, label, start_ms, duration_ms)
        self._cursor = max(self._cursor, span.end_ms)
        return span

    # -- batch recording ---------------------------------------------------

    def run_many(self, tasks: Sequence[tuple[str, str, float]]) -> float:
        """Append sequential spans for every task; returns the time advanced.

        Equivalent to calling :meth:`run` per task — starts are the prefix
        sums ``cumsum([cursor, d0, d1, ...])``, the same left-fold the
        scalar cursor walks, so both paths yield bit-identical spans.
        """
        if not tasks:
            return 0.0
        durs = np.array([t[2] for t in tasks], dtype=_F64)
        if np.any(durs < 0):
            bad = float(durs[durs < 0][0])
            raise ValueError(f"duration must be non-negative, got {bad}")
        prefix = np.cumsum(np.concatenate(([self._cursor], durs)))
        i = self._n
        k = len(tasks)
        self._grow_to(i + k)
        self._starts[i : i + k] = prefix[:-1]
        self._durs[i : i + k] = durs
        for j, (resource, label, _) in enumerate(tasks):
            self._res[i + j] = self._intern_resource(resource)
            self._lab[i + j] = self._intern_label(label)
        self._n = i + k
        before = self._cursor
        self._cursor = float(prefix[-1])
        return self._cursor - before

    def overlap_many(self, groups: Sequence[Sequence[tuple[str, str, float]]]) -> np.ndarray:
        """Append one :meth:`overlap` group per entry; returns the makespans.

        Groups run back to back: each group's spans share a start, the clock
        advances by the group maximum before the next group begins — exactly
        a loop of scalar ``overlap`` calls, bit for bit.
        """
        longest = np.zeros(len(groups), dtype=_F64)
        for g, tasks in enumerate(groups):
            if not tasks:
                continue
            durs = np.array([t[2] for t in tasks], dtype=_F64)
            if np.any(durs < 0):
                bad = float(durs[durs < 0][0])
                raise ValueError(f"duration must be non-negative, got {bad}")
            longest[g] = max(0.0, float(np.max(durs)))
        starts = np.cumsum(np.concatenate(([self._cursor], longest)))
        total = sum(len(tasks) for tasks in groups)
        i = self._n
        self._grow_to(i + total)
        for g, tasks in enumerate(groups):
            for resource, label, duration_ms in tasks:
                self._starts[i] = starts[g]
                self._durs[i] = duration_ms
                self._res[i] = self._intern_resource(resource)
                self._lab[i] = self._intern_label(label)
                i += 1
        self._n = i
        self._cursor = float(starts[-1])
        return longest

    def record_many(
        self,
        resources: Sequence[str],
        labels: Sequence[str],
        starts: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Append placed spans in bulk (vector :meth:`record`).

        The clock advances to the latest span end if that is later than the
        current cursor — ``max`` is order-insensitive, so this matches a
        loop of scalar ``record`` calls exactly.
        """
        k = len(resources)
        if not (k == len(labels)):
            raise ValueError("resources and labels must have equal length")
        starts = np.asarray(starts, dtype=_F64)
        durations = np.asarray(durations, dtype=_F64)
        if starts.shape != (k,) or durations.shape != (k,):
            raise ValueError("starts and durations must be 1-D arrays matching resources")
        if k == 0:
            return
        if np.any(durations < 0):
            bad = float(durations[durations < 0][0])
            raise ValueError(f"duration must be non-negative, got {bad}")
        if np.any(starts < 0):
            bad = float(starts[starts < 0][0])
            raise ValueError(f"start must be non-negative, got {bad}")
        i = self._n
        self._grow_to(i + k)
        self._starts[i : i + k] = starts
        self._durs[i : i + k] = durations
        for j in range(k):
            self._res[i + j] = self._intern_resource(resources[j])
            self._lab[i + j] = self._intern_label(labels[j])
        self._n = i + k
        self._cursor = max(self._cursor, float(np.max(starts + durations)))

    def extend(self, other: "Timeline", prefix: str = "") -> None:
        """Append *other*'s spans after this timeline's clock.

        Used to splice a sub-computation's trace (e.g. one identify run on
        the sampled input) into the parent trace.  Labels gain *prefix*.
        """
        offset = self._cursor
        k = other._n
        i = self._n
        self._grow_to(i + k)
        if k:
            self._starts[i : i + k] = offset + other._starts[:k]
            self._durs[i : i + k] = other._durs[:k]
            res_map = np.array(
                [self._intern_resource(r) for r in other._res_pool], dtype=_CODE
            )
            lab_map = np.array(
                [self._intern_label(prefix + lab) for lab in other._lab_pool],
                dtype=_CODE,
            )
            self._res[i : i + k] = res_map[other._res[:k]]
            self._lab[i : i + k] = lab_map[other._lab[:k]]
            self._n = i + k
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
        # the fork point, then join the clock at the longest finish.
        resources: list[str] = []
        labels: list[str] = []
        durs: list[float] = []
        starts: list[float] = []
        for name in names:
            q = by_name[name]
            at = start
            for i, label in enumerate(q.labels):
                cost = q.costs[i][name]
                if q.origins[i] is not None:
                    label = f"{label}|stolen"
                resources.append(name)
                labels.append(label)
                starts.append(at)
                durs.append(cost)
                at += cost
            finish[name] = at
            q.labels.clear()
            q.costs.clear()
            q.origins.clear()
        if resources:
            self.record_many(
                resources,
                labels,
                np.asarray(starts, dtype=_F64),
                np.asarray(durs, dtype=_F64),
            )
        self._cursor = max(self._cursor, max(finish.values()))
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

    def columns(self) -> TimelineColumns:
        """Read-only columnar view of the recorded spans (no copies)."""
        n = self._n
        views = []
        for arr in (self._starts, self._durs, self._res, self._lab):
            v = arr[:n].view()
            v.flags.writeable = False
            views.append(v)
        return TimelineColumns(
            starts=views[0],
            durations=views[1],
            resources=views[2],
            labels=views[3],
            resource_pool=tuple(self._res_pool),
            label_pool=tuple(self._lab_pool),
        )

    @property
    def spans(self) -> list[Span]:
        cache = self._span_cache
        for i in range(len(cache), self._n):
            cache.append(
                Span(
                    self._res_pool[self._res[i]],
                    self._lab_pool[self._lab[i]],
                    float(self._starts[i]),
                    float(self._durs[i]),
                )
            )
        return list(cache)

    @property
    def total_ms(self) -> float:
        """Simulated makespan: the current clock position."""
        return self._cursor

    def busy_ms(self, resource: str) -> float:
        """Total time *resource* spent busy (ignores gaps and overlaps)."""
        code = self._res_ids.get(resource)
        if code is None:
            return 0.0
        mask = self._res[: self._n] == code
        return float(np.sum(self._durs[: self._n], where=mask, initial=0.0))

    def finish_ms(self, resource: str) -> float:
        """Latest span end on *resource*'s lane (0.0 when it recorded none).

        The makespan is the max of the per-lane finishes, so these are
        what a load balancer equalizes; :meth:`busy_ms` undercounts a lane
        whose work is serialized behind another's (a d2h that can only
        start once the producing kernel ends still pushes the finish out).
        """
        code = self._res_ids.get(resource)
        if code is None:
            return 0.0
        n = self._n
        mask = self._res[:n] == code
        if not np.any(mask):
            return 0.0
        ends = self._starts[:n] + self._durs[:n]
        return float(np.max(ends, where=mask, initial=0.0))

    def utilization(self, resource: str | None = None):
        """Busy fraction of the makespan, vectorized over the columns.

        With *resource*, the float ``busy_ms(resource) / total_ms``;
        without, a dict of that fraction for every recorded resource.  An
        empty store (or a zero-length makespan) yields 0.0 fractions — no
        division by zero — and the no-argument form yields ``{}`` when
        nothing was recorded.  For merged-interval fractions that count
        overlapped stretches once, see :func:`repro.obs.timeline_view.utilization`.
        """
        makespan_ms = self._cursor
        if resource is not None:
            if makespan_ms <= 0.0:
                return 0.0
            return self.busy_ms(resource) / makespan_ms
        n = self._n
        if n == 0 or makespan_ms <= 0.0:
            return {name: 0.0 for name in self._res_pool}
        busy = np.bincount(
            self._res[:n], weights=self._durs[:n], minlength=len(self._res_pool)
        )
        return {
            name: float(busy[code]) / makespan_ms
            for code, name in enumerate(self._res_pool)
        }

    def labelled_ms(self, label_prefix: str) -> float:
        """Wall-clock span covered by spans whose label starts with the prefix.

        Computed as ``max(end) - min(start)`` over matching spans, i.e. the
        duration of that phase on the shared clock.
        """
        hits = [
            code
            for code, lab in enumerate(self._lab_pool)
            if lab.startswith(label_prefix)
        ]
        if not hits:
            return 0.0
        mask = np.isin(self._lab[: self._n], np.array(hits, dtype=_CODE))
        if not np.any(mask):
            return 0.0
        starts = self._starts[: self._n][mask]
        ends = starts + self._durs[: self._n][mask]
        return float(np.max(ends) - np.min(starts))

    def labels(self) -> list[str]:
        pool = self._lab_pool
        return [pool[code] for code in self._lab[: self._n]]

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline(spans={self._n}, total_ms={self._cursor:.3f})"


def merge_parallel(timelines: Iterable[Timeline]) -> float:
    """Makespan of independent timelines executed concurrently."""
    return max((t.total_ms for t in timelines), default=0.0)
