"""Columnar Timeline: batch APIs vs scalar replay, bit for bit.

The batch recording APIs (``run_many`` / ``overlap_many`` / ``record_many``)
and the vectorized aggregations must produce exactly what a loop of scalar
calls produces — same spans, same cursor, same floats to the last bit —
because serial-vs-pooled byte-identity elsewhere in the suite rides on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform.timeline import Span, Timeline, TimelineColumns

TASKS = [
    ("cpu", "phase1/estimate", 3.25),
    ("gpu", "phase2/spgemm", 7.5),
    ("cpu", "phase1/estimate", 0.125),  # repeated resource+label: interned
    ("pcie", "h2d", 1.1000000000000001),  # not exactly representable
    ("gpu", "phase3/merge", 0.0),  # zero-duration span is legal
]


def _spans_equal(a: list[Span], b: list[Span]) -> bool:
    # Bit-level, not approx: compare the float fields via their bit patterns.
    if len(a) != len(b):
        return False
    return all(
        x.resource == y.resource
        and x.label == y.label
        and np.float64(x.start_ms).tobytes() == np.float64(y.start_ms).tobytes()
        and np.float64(x.duration_ms).tobytes() == np.float64(y.duration_ms).tobytes()
        for x, y in zip(a, b)
    )


class TestRunMany:
    def test_matches_scalar_replay_bit_for_bit(self):
        scalar, batch = Timeline(), Timeline()
        for resource, label, duration_ms in TASKS:
            scalar.run(resource, label, duration_ms)
        advanced = batch.run_many(TASKS)
        assert _spans_equal(scalar.spans, batch.spans)
        assert np.float64(scalar.total_ms).tobytes() == np.float64(batch.total_ms).tobytes()
        assert advanced == batch.total_ms

    def test_continues_from_existing_cursor(self):
        scalar, batch = Timeline(), Timeline()
        for tl in (scalar, batch):
            tl.run("cpu", "warmup", 0.7)
        for resource, label, duration_ms in TASKS:
            scalar.run(resource, label, duration_ms)
        batch.run_many(TASKS)
        assert _spans_equal(scalar.spans, batch.spans)
        assert scalar.total_ms == batch.total_ms

    def test_empty_is_a_noop(self):
        tl = Timeline()
        assert tl.run_many([]) == 0.0
        assert tl.total_ms == 0.0
        assert len(tl) == 0

    def test_negative_duration_rejected(self):
        tl = Timeline()
        with pytest.raises(ValueError, match="non-negative"):
            tl.run_many([("cpu", "a", 1.0), ("cpu", "b", -0.5)])


class TestOverlapMany:
    def test_matches_scalar_replay_bit_for_bit(self):
        groups = [
            [("cpu", "p2/cpu", 5.5), ("gpu", "p2/gpu", 3.25)],
            [],  # empty group: scalar overlap() is a zero-advance no-op
            [("gpu", "p3/gpu", 2.0)],
            [("cpu", "p4/a", 1.5), ("gpu", "p4/b", 1.5), ("pcie", "p4/c", 0.25)],
        ]
        scalar, batch = Timeline(), Timeline()
        scalar_makespans = [scalar.overlap(g) for g in groups]
        batch_makespans = batch.overlap_many(groups)
        assert _spans_equal(scalar.spans, batch.spans)
        assert scalar.total_ms == batch.total_ms
        assert list(batch_makespans) == scalar_makespans

    def test_negative_duration_rejected(self):
        tl = Timeline()
        with pytest.raises(ValueError, match="non-negative"):
            tl.overlap_many([[("cpu", "a", -1.0)]])


class TestRecordMany:
    def test_matches_scalar_replay_bit_for_bit(self):
        placements = [
            ("gpu0", "chunk/0", 0.0, 4.0),
            ("gpu1", "chunk/1", 0.0, 2.5),
            ("gpu0", "chunk/2", 4.0, 1.75),
            ("gpu1", "chunk/3", 2.5, 3.0),
        ]
        scalar, batch = Timeline(), Timeline()
        for resource, label, start_ms, duration_ms in placements:
            scalar.record(resource, label, start_ms, duration_ms)
        batch.record_many(
            [p[0] for p in placements],
            [p[1] for p in placements],
            np.array([p[2] for p in placements]),
            np.array([p[3] for p in placements]),
        )
        assert _spans_equal(scalar.spans, batch.spans)
        assert scalar.total_ms == batch.total_ms

    def test_cursor_only_moves_forward(self):
        tl = Timeline()
        tl.run("cpu", "long", 100.0)
        tl.record_many(["gpu"], ["short"], np.array([1.0]), np.array([2.0]))
        assert tl.total_ms == 100.0  # an earlier placement cannot rewind

    def test_validation(self):
        tl = Timeline()
        with pytest.raises(ValueError, match="equal length"):
            tl.record_many(["cpu"], [], np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="1-D"):
            tl.record_many(["cpu"], ["a"], np.array([[0.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            tl.record_many(["cpu"], ["a"], np.array([0.0]), np.array([-1.0]))
        with pytest.raises(ValueError, match="start"):
            tl.record_many(["cpu"], ["a"], np.array([-0.5]), np.array([1.0]))
        tl.record_many([], [], np.array([]), np.array([]))  # empty: no-op
        assert len(tl) == 0


class TestExtend:
    def test_matches_scalar_splice(self):
        sub = Timeline()
        sub.run_many(TASKS)
        vec, ref = Timeline(), Timeline()
        for tl in (vec, ref):
            tl.run("cpu", "outer", 2.0)
        vec.extend(sub, prefix="sub/")
        for span in sub.spans:
            ref.record(span.resource, "sub/" + span.label, 2.0 + span.start_ms, span.duration_ms)
        # extend advances by sub.total_ms even when the last span is not
        # the latest end; replicate that on the reference.
        ref._cursor = 2.0 + sub.total_ms
        assert _spans_equal(vec.spans, ref.spans)
        assert vec.total_ms == ref.total_ms

    def test_remaps_codes_not_strings(self):
        # The two timelines intern the same resources in different orders;
        # extend must remap codes through the pools, not copy them raw.
        a, b = Timeline(), Timeline()
        a.run("gpu", "x", 1.0)
        a.run("cpu", "y", 1.0)
        b.run("cpu", "p", 1.0)
        b.run("gpu", "q", 1.0)
        a.extend(b)
        assert [s.resource for s in a.spans] == ["gpu", "cpu", "cpu", "gpu"]


class TestColumnsAndAggregation:
    def test_columns_are_read_only_views(self):
        tl = Timeline()
        tl.run_many(TASKS)
        cols = tl.columns()
        assert isinstance(cols, TimelineColumns)
        assert cols.starts.size == len(TASKS)
        for arr in (cols.starts, cols.durations, cols.resources, cols.labels):
            assert not arr.flags.writeable
            assert not arr.flags.owndata  # views over the store, no copies
        assert cols.resource_pool == ("cpu", "gpu", "pcie")
        # Decode round-trips to the span view.
        decoded = [cols.resource_pool[c] for c in cols.resources]
        assert decoded == [s.resource for s in tl.spans]
        np.testing.assert_array_equal(cols.ends, cols.starts + cols.durations)

    def test_spans_returns_consistent_objects_incrementally(self):
        tl = Timeline()
        tl.run("cpu", "a", 1.0)
        first = tl.spans
        tl.run("gpu", "b", 2.0)
        second = tl.spans
        assert second[0] is first[0]  # cache extends; no rebuild
        assert [s.label for s in second] == ["a", "b"]

    def test_busy_and_labelled_match_span_arithmetic(self):
        tl = Timeline()
        tl.run_many(TASKS)
        tl.overlap_many([[("cpu", "phase2/x", 2.0), ("gpu", "phase2/y", 3.0)]])
        for resource in ("cpu", "gpu", "pcie", "never-used"):
            expected = sum(
                s.duration_ms for s in tl.spans if s.resource == resource
            )
            assert tl.busy_ms(resource) == pytest.approx(expected)
        phase2 = [s for s in tl.spans if s.label.startswith("phase2")]
        lo = min(s.start_ms for s in phase2)
        hi = max(s.end_ms for s in phase2)
        assert tl.labelled_ms("phase2") == pytest.approx(hi - lo)
        assert tl.labelled_ms("no-such-phase") == 0.0
        assert tl.labels() == [s.label for s in tl.spans]

    def test_growth_preserves_history(self):
        # Cross the initial capacity several times; early spans must survive.
        tl = Timeline()
        for i in range(100):
            tl.run("cpu", f"step/{i}", float(i % 7))
        assert len(tl) == 100
        assert tl.spans[0] == Span("cpu", "step/0", 0.0, 0.0)
        assert tl.spans[99].label == "step/99"
        assert tl.total_ms == pytest.approx(sum(float(i % 7) for i in range(100)))


class TestFinishMs:
    def test_matches_latest_span_end(self):
        tl = Timeline()
        tl.record("cpu", "a", 0.0, 3.0)
        tl.record("cpu", "b", 1.0, 1.0)  # ends before the first span
        tl.record("gpu", "c", 0.5, 5.0)
        assert tl.finish_ms("cpu") == 3.0
        assert tl.finish_ms("gpu") == 5.5

    def test_unknown_or_empty_lane_is_zero(self):
        tl = Timeline()
        assert tl.finish_ms("cpu") == 0.0
        tl.record("cpu", "a", 0.0, 1.0)
        assert tl.finish_ms("gpu") == 0.0

    def test_finish_at_least_busy(self):
        tl = Timeline()
        tl.record("gpu", "kernel", 2.0, 1.5)  # idle gap before the span
        assert tl.busy_ms("gpu") == 1.5
        assert tl.finish_ms("gpu") == 3.5


class TestUtilizationGuards:
    def test_empty_store_is_all_zeros(self):
        tl = Timeline()
        assert tl.utilization("cpu") == 0.0
        assert tl.utilization() == {}

    def test_zero_makespan_is_zero_not_nan(self):
        tl = Timeline()
        tl.record("cpu", "noop", 0.0, 0.0)
        scalar = tl.utilization("cpu")
        assert scalar == 0.0 and not np.isnan(scalar)
        assert tl.utilization() == {"cpu": 0.0}

    def test_fractions_match_span_arithmetic(self):
        tl = Timeline()
        tl.record("cpu", "a", 0.0, 2.0)
        tl.record("gpu", "b", 0.0, 8.0)
        assert tl.utilization("cpu") == pytest.approx(0.25)
        assert tl.utilization() == {
            "cpu": pytest.approx(0.25),
            "gpu": pytest.approx(1.0),
        }


class TestSpanQueue:
    def test_push_many_requires_own_resource(self):
        from repro.platform.timeline import SpanQueue

        q = SpanQueue("cpu")
        with pytest.raises(ValueError):
            q.push_many(["a"], {"gpu": [1.0]})

    def test_push_many_validates_shapes_and_signs(self):
        from repro.platform.timeline import SpanQueue

        q = SpanQueue("cpu")
        with pytest.raises(ValueError):
            q.push_many(["a", "b"], {"cpu": [1.0]})
        with pytest.raises(ValueError):
            q.push_many(["a"], {"cpu": [-1.0]})


class TestStealRemaining:
    @staticmethod
    def _queue(resource, labels, costs):
        from repro.platform.timeline import SpanQueue

        q = SpanQueue(resource)
        q.push_many(labels, costs)
        return q

    def test_idle_device_claims_laggard_tail(self):
        tl = Timeline()
        cpu = self._queue("cpu", ["c0"], {"cpu": [1.0], "gpu": [1.0]})
        gpu = self._queue(
            "gpu",
            ["g0", "g1", "g2", "g3"],
            {"cpu": [2.0] * 4, "gpu": [2.0] * 4},
        )
        report = tl.steal_remaining([cpu, gpu])
        assert report.total_stolen > 0
        assert report.stolen["cpu"] == report.total_stolen
        # Every migration is a (victim, thief, label) triple.
        assert all(v == "gpu" and t == "cpu" for v, t, _ in report.moved)
        # Stealing shrank the round below the no-steal makespan.
        assert report.makespan_ms < 8.0
        assert any(label.endswith("|stolen") for label in tl.labels())

    def test_balanced_queues_steal_nothing(self):
        tl = Timeline()
        cpu = self._queue("cpu", ["c0"], {"cpu": [2.0], "gpu": [2.0]})
        gpu = self._queue("gpu", ["g0"], {"cpu": [2.0], "gpu": [2.0]})
        report = tl.steal_remaining([cpu, gpu])
        assert report.total_stolen == 0
        assert report.makespan_ms == 2.0

    def test_last_item_never_stolen(self):
        tl = Timeline()
        cpu = self._queue("cpu", [], {"cpu": []})
        gpu = self._queue("gpu", ["g0"], {"cpu": [0.1], "gpu": [10.0]})
        report = tl.steal_remaining([cpu, gpu])
        assert report.total_stolen == 0  # the laggard's only item is running

    def test_duplicate_resource_rejected(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.steal_remaining(
                [
                    self._queue("cpu", [], {"cpu": []}),
                    self._queue("cpu", [], {"cpu": []}),
                ]
            )

    def test_round_starts_at_cursor_and_joins_clock(self):
        tl = Timeline()
        tl.record("cpu", "warmup", 0.0, 5.0)
        report = tl.steal_remaining(
            [self._queue("gpu", ["g0"], {"gpu": [2.0]})]
        )
        assert report.start_ms == 5.0
        assert report.finish_ms["gpu"] == 7.0
        assert tl.total_ms == 7.0
