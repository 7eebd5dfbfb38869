"""Tests for repro.platform.timeline, pcie and machine."""

import numpy as np
import pytest

from repro.platform.costmodel import PROFILE_SPGEMM
from repro.platform.device import cpu_xeon_e5_2650_dual, gpu_tesla_k40c
from repro.platform.machine import HeterogeneousMachine, paper_testbed
from repro.platform.pcie import PcieLink, pcie_gen3_x16
from repro.platform.timeline import Span, SpanQueue, Timeline
from repro.util.errors import ValidationError

TASKS = [
    ("cpu", "phase1/estimate", 3.25),
    ("gpu", "phase2/spgemm", 7.5),
    ("cpu", "phase1/estimate", 0.125),  # repeated resource and label
    ("pcie", "h2d", 1.1000000000000001),  # not exactly representable
    ("gpu", "phase3/merge", 0.0),  # zero-duration span is legal
]


def _run_all(tl: Timeline, tasks) -> None:
    for resource, label, duration_ms in tasks:
        tl.run(resource, label, duration_ms)


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


class TestPcie:
    def test_zero_bytes_free(self):
        assert pcie_gen3_x16().transfer_ms(0) == 0.0

    def test_affine_cost(self):
        link = PcieLink(bandwidth_gbs=10.0, latency_us=5.0)
        # 10 MB at 10 GB/s = 1 ms, plus 0.005 ms latency.
        assert link.transfer_ms(10e6) == pytest.approx(1.005)

    def test_latency_dominates_small_transfers(self):
        link = pcie_gen3_x16()
        assert link.transfer_ms(8) == pytest.approx(link.latency_us * 1e-3, rel=0.01)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValidationError):
            pcie_gen3_x16().transfer_ms(-1)

    def test_rejects_bad_link(self):
        with pytest.raises(ValidationError):
            PcieLink(bandwidth_gbs=0, latency_us=1)
        with pytest.raises(ValidationError):
            PcieLink(bandwidth_gbs=1, latency_us=-1)


class TestTimeline:
    def test_sequential_spans_advance_clock(self):
        tl = Timeline()
        tl.run("cpu", "a", 1.0)
        tl.run("gpu", "b", 2.0)
        assert tl.total_ms == pytest.approx(3.0)
        assert tl.spans[1].start_ms == pytest.approx(1.0)

    def test_overlap_takes_max(self):
        tl = Timeline()
        makespan = tl.overlap([("cpu", "a", 3.0), ("gpu", "b", 5.0)])
        assert makespan == 5.0
        assert tl.total_ms == 5.0
        assert all(s.start_ms == 0.0 for s in tl.spans)

    def test_empty_overlap_is_noop(self):
        tl = Timeline()
        assert tl.overlap([]) == 0.0
        assert tl.total_ms == 0.0

    def test_busy_ms_per_resource(self):
        tl = Timeline()
        tl.overlap([("cpu", "a", 3.0), ("gpu", "b", 5.0)])
        tl.run("cpu", "c", 1.0)
        assert tl.busy_ms("cpu") == pytest.approx(4.0)
        assert tl.busy_ms("gpu") == pytest.approx(5.0)
        assert tl.busy_ms("pcie") == 0.0

    def test_extend_offsets_spans(self):
        inner = Timeline()
        inner.run("gpu", "k", 2.0)
        outer = Timeline()
        outer.run("cpu", "setup", 1.0)
        outer.extend(inner, prefix="sub/")
        assert outer.total_ms == pytest.approx(3.0)
        assert outer.spans[-1].label == "sub/k"
        assert outer.spans[-1].start_ms == pytest.approx(1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().run("cpu", "x", -1.0)

    def test_span_end(self):
        assert Span("cpu", "x", 1.0, 2.0).end_ms == 3.0

    def test_spans_snapshot_ignores_later_appends(self):
        tl = Timeline()
        tl.run("cpu", "a", 1.0)
        first = tl.spans
        tl.run("gpu", "b", 2.0)
        assert [s.label for s in first] == ["a"]
        assert [s.label for s in tl.spans] == ["a", "b"]

    def test_spans_hold_plain_floats(self):
        # The clock turns into an np.float64 after a numpy duration; the
        # recorded spans still hand back Python floats.
        tl = Timeline()
        tl.run("cpu", "a", np.float64(1.5))
        tl.overlap([("gpu", "b", np.float64(2.0))])
        tl.record("pcie", "c", np.float64(0.5), np.float64(0.25))
        for span in tl.spans:
            assert type(span.start_ms) is float
            assert type(span.duration_ms) is float

    def test_busy_and_labels_match_span_arithmetic(self):
        tl = Timeline()
        _run_all(tl, TASKS)
        tl.overlap([("cpu", "phase2/x", 2.0), ("gpu", "phase2/y", 3.0)])
        for resource in ("cpu", "gpu", "pcie", "never-used"):
            expected = sum(
                s.duration_ms for s in tl.spans if s.resource == resource
            )
            assert tl.busy_ms(resource) == pytest.approx(expected)
        assert tl.labels() == [s.label for s in tl.spans]


class TestExtend:
    def test_matches_scalar_splice(self):
        sub = Timeline()
        _run_all(sub, TASKS)
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


class TestMachine:
    def test_paper_testbed_composition(self):
        m = paper_testbed()
        assert m.cpu.kind == "cpu" and m.gpu.kind == "gpu"
        assert m.gpu_peak_share == pytest.approx(0.88, abs=0.005)

    def test_slots_validated(self):
        cpu, gpu = cpu_xeon_e5_2650_dual(), gpu_tesla_k40c()
        with pytest.raises(ValidationError):
            HeterogeneousMachine(cpu=gpu, gpu=gpu, link=pcie_gen3_x16())
        with pytest.raises(ValidationError):
            HeterogeneousMachine(cpu=cpu, gpu=cpu, link=pcie_gen3_x16())

    def test_time_scale_shrinks_fixed_constants_only(self):
        full = paper_testbed()
        scaled = paper_testbed(time_scale=1 / 16)
        assert scaled.gpu.kernel_launch_us == pytest.approx(full.gpu.kernel_launch_us / 16)
        assert scaled.link.latency_us == pytest.approx(full.link.latency_us / 16)
        # Rates untouched.
        assert scaled.gpu.peak_gflops == full.gpu.peak_gflops
        assert scaled.link.bandwidth_gbs == full.link.bandwidth_gbs

    def test_time_scale_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            paper_testbed(time_scale=0.0)

    def test_without_fixed_overheads(self):
        m = paper_testbed().without_fixed_overheads()
        assert m.cpu.kernel_launch_us == 0.0
        assert m.gpu.kernel_launch_us == 0.0
        assert m.link.latency_us == 0.0
        # Rates and capacities survive.
        assert m.gpu.cores == paper_testbed().gpu.cores

    def test_device_time_helpers_consistent_with_costmodel(self):
        m = paper_testbed()
        assert m.cpu_sequential_ms(10.0, PROFILE_SPGEMM) > 0
        assert m.transfer_ms(1e6) > 0


class TestSpanQueue:
    def test_push_many_requires_own_resource(self):
        q = SpanQueue("cpu")
        with pytest.raises(ValueError):
            q.push_many(["a"], {"gpu": [1.0]})

    def test_push_many_validates_shapes_and_signs(self):
        q = SpanQueue("cpu")
        with pytest.raises(ValueError):
            q.push_many(["a", "b"], {"cpu": [1.0]})
        with pytest.raises(ValueError):
            q.push_many(["a"], {"cpu": [-1.0]})


class TestStealRemaining:
    @staticmethod
    def _queue(resource, labels, costs):
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
