"""Tests for repro.analysis.hazards: every hazard class + clean paths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.hazards import HAZARDS, check_many, check_spans, check_timeline
from repro.core.framework import SamplingPartitioner
from repro.core.search import RaceCoarseSearch
from repro.hetero.cc import CcProblem
from repro.hetero.dense_mm import DenseMmProblem
from repro.hetero.dynamic import simulate_dynamic_spmm
from repro.hetero.dynamic_rebalance import DynamicRebalance
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.multiway_cc import MultiwayCcProblem
from repro.hetero.multiway_spmm import MultiwaySpmmProblem
from repro.hetero.spmm import SpmmProblem
from repro.platform.cluster import cluster_testbed
from repro.platform.timeline import Span, Timeline
from repro.obs.timeline_view import validate_timeline
from repro.util.errors import ValidationError
from tests.conftest import random_graph, random_sparse


def codes(findings):
    return [f.code for f in findings]


def clean_timeline() -> Timeline:
    tl = Timeline()
    tl.run("pcie", "phase2/h2d-operands", 1.0)
    tl.overlap([("cpu", "phase2/work-cpu", 2.0), ("gpu", "phase2/work-gpu", 5.0)])
    tl.run("pcie", "phase2/d2h-result", 1.0)
    return tl


class TestCleanPaths:
    def test_clean_timeline_no_findings(self):
        assert check_timeline(clean_timeline()) == []

    def test_empty_timeline_no_findings(self):
        assert check_timeline(Timeline()) == []

    def test_abutting_spans_not_overlap(self):
        tl = Timeline()
        tl.run("cpu", "a", 1.0)
        tl.run("cpu", "b", 1.0)
        assert check_timeline(tl) == []

    def test_validate_timeline_passes_clean(self):
        validate_timeline(clean_timeline())


class TestOverlapHzd001:
    def test_overlap_on_one_resource(self):
        spans = [
            Span("gpu", "a", 0.0, 5.0),
            Span("gpu", "b", 3.0, 4.0),
        ]
        findings = check_spans(spans)
        assert codes(findings) == ["HZD001"]
        assert findings[0].line == 1
        assert "'gpu'" in findings[0].message

    def test_containment_counts_as_overlap(self):
        spans = [
            Span("cpu", "outer", 0.0, 10.0),
            Span("cpu", "inner", 2.0, 1.0),
        ]
        assert codes(check_spans(spans)) == ["HZD001"]

    def test_same_interval_other_resource_ok(self):
        spans = [
            Span("cpu", "a", 0.0, 5.0),
            Span("gpu", "b", 0.0, 5.0),
        ]
        assert check_spans(spans) == []


class TestClockHzd002:
    def test_negative_start(self):
        findings = check_spans([Span("cpu", "a", -1.0, 2.0)])
        assert codes(findings) == ["HZD002"]
        assert "origin" in findings[0].message

    def test_out_of_order_recording_same_resource(self):
        spans = [
            Span("cpu", "late", 5.0, 1.0),
            Span("cpu", "early", 0.0, 1.0),
        ]
        findings = check_spans(spans)
        assert codes(findings) == ["HZD002"]
        assert findings[0].line == 1

    def test_interleaved_resources_ok(self):
        # A scheduler may record cpu@10 then gpu@2: order is per-resource.
        spans = [
            Span("cpu", "a", 10.0, 1.0),
            Span("gpu", "b", 2.0, 1.0),
        ]
        assert check_spans(spans) == []

    def test_span_past_reported_makespan(self):
        findings = check_spans([Span("cpu", "a", 0.0, 5.0)], total_ms=3.0)
        assert codes(findings) == ["HZD002"]
        assert "makespan" in findings[0].message


class TestBadNumbersHzd003:
    def test_negative_duration(self):
        findings = check_spans([Span("cpu", "a", 0.0, -2.0)])
        assert codes(findings) == ["HZD003"]
        assert findings[0].line == 0

    def test_nan_duration(self):
        findings = check_spans([Span("cpu", "a", 0.0, math.nan)])
        assert codes(findings) == ["HZD003"]

    def test_nan_start(self):
        assert codes(check_spans([Span("cpu", "a", math.nan, 1.0)])) == ["HZD003"]

    def test_inf_duration(self):
        assert codes(check_spans([Span("cpu", "a", 0.0, math.inf)])) == ["HZD003"]

    def test_malformed_span_excluded_from_other_checks(self):
        spans = [
            Span("cpu", "bad", 0.0, math.nan),
            Span("cpu", "good", 0.0, 1.0),
        ]
        assert codes(check_spans(spans)) == ["HZD003"]


class TestPcieHzd004:
    def test_gpu_before_h2d_lands(self):
        spans = [
            Span("pcie", "phase2/h2d-operands", 0.0, 2.0),
            Span("gpu", "phase2/spgemm-gpu", 1.0, 4.0),
        ]
        findings = check_spans(spans)
        assert codes(findings) == ["HZD004"]
        assert findings[0].line == 1
        assert "h2d" in findings[0].message

    def test_gpu_after_h2d_ok(self):
        spans = [
            Span("pcie", "phase2/h2d-operands", 0.0, 2.0),
            Span("gpu", "phase2/spgemm-gpu", 2.0, 4.0),
        ]
        assert check_spans(spans) == []

    def test_other_phase_not_matched(self):
        spans = [
            Span("pcie", "phase3/h2d-operands", 0.0, 2.0),
            Span("gpu", "phase2/spgemm-gpu", 0.0, 4.0),
        ]
        assert check_spans(spans) == []

    def test_gpu_recorded_before_upload_not_dependent(self):
        # CC's shape: SV sweep runs, then labels upload, then merge.
        spans = [
            Span("gpu", "phase2/cc-gpu-sv", 0.0, 4.0),
            Span("pcie", "phase2/h2d-cpu-labels", 4.0, 1.0),
            Span("gpu", "phase2/merge-cross-edges", 5.0, 2.0),
        ]
        assert check_spans(spans) == []

    def test_d2h_is_not_an_upload(self):
        spans = [
            Span("pcie", "phase2/d2h-result", 0.0, 2.0),
            Span("gpu", "phase2/combine-gpu", 0.0, 1.0),
        ]
        assert check_spans(spans) == []

    def test_numbered_gpu_resources_matched(self):
        spans = [
            Span("pcie", "phase2/h2d-shard", 0.0, 2.0),
            Span("gpu1", "phase2/work", 0.0, 1.0),
        ]
        assert codes(check_spans(spans)) == ["HZD004"]


class TestPlumbing:
    def test_validate_timeline_raises_with_codes(self):
        tl = Timeline()
        tl.record("gpu", "a", 0.0, 5.0)
        tl.record("gpu", "b", 3.0, 4.0)
        with pytest.raises(ValidationError, match="HZD001"):
            validate_timeline(tl, source="unit-test")

    def test_check_many_tags_sources(self):
        bad = Timeline()
        bad.record("cpu", "a", 0.0, 2.0)
        bad.record("cpu", "b", 1.0, 2.0)
        findings = check_many([("good", clean_timeline()), ("bad", bad)])
        assert [f.path for f in findings] == ["bad"]

    def test_catalog_covers_emitted_codes(self):
        assert {"HZD001", "HZD002", "HZD003", "HZD004"} == set(HAZARDS)


class TestRunnerValidationHook:
    def test_validate_reported_traces_clean_problem(self, machine):
        from repro.experiments.runner import validate_reported_traces

        problem = SpmmProblem(random_sparse(60, 60, 0.08, seed=2), machine)
        validate_reported_traces(problem, [0.0, 50.0, 100.0])

    def test_problem_without_timeline_skipped(self):
        from repro.experiments.runner import validate_reported_traces

        class NoTimeline:
            name = "bare"

        validate_reported_traces(NoTimeline(), [1.0])

    def test_hazardous_timeline_raises(self):
        from repro.experiments.runner import validate_reported_traces

        class BadProblem:
            name = "bad"

            def timeline(self, threshold):
                tl = Timeline()
                tl.record("gpu", "a", 0.0, 5.0)
                tl.record("gpu", "b", 2.0, 5.0)
                return tl

        with pytest.raises(ValidationError, match="HZD001"):
            validate_reported_traces(BadProblem(), [1.0])


class TestProducedTimelinesAreClean:
    """The simulator's own pipelines must never trip the checker."""

    def test_spmm_pipeline_clean(self, machine):
        problem = SpmmProblem(random_sparse(80, 80, 0.08, seed=3), machine)
        for threshold in (0.0, 35.0, 70.0, 100.0):
            assert check_timeline(problem.timeline(threshold)) == []

    def test_cc_pipeline_clean(self, machine):
        problem = CcProblem(random_graph(300, 900, seed=5), machine)
        for threshold in (0.0, 50.0, 95.0, 100.0):
            assert check_timeline(problem.timeline(threshold)) == []

    def test_hh_pipeline_clean(self, machine):
        problem = HhCpuProblem(random_sparse(90, 90, 0.1, seed=9), machine)
        grid = problem.threshold_grid()
        for threshold in (float(grid[0]), float(grid[len(grid) // 2]), float(grid[-1])):
            assert check_timeline(problem.timeline(threshold)) == []

    def test_dynamic_schedule_clean(self, machine):
        problem = SpmmProblem(random_sparse(80, 80, 0.08, seed=3), machine)
        result = simulate_dynamic_spmm(problem, chunk_rows=16)
        assert check_timeline(result.timeline) == []

    # -- generative: every produced timeline, batched = scalar ---------------

    @staticmethod
    def _assert_clean_and_priced(problem, threshold, rel=0.0):
        """Hazard-clean timeline whose makespan the batch pricer reproduces."""
        tl = problem.timeline(threshold)
        assert check_timeline(tl) == []
        batch = np.array([threshold], dtype=np.float64)
        priced = float(problem.evaluate_many(batch)[0])
        if rel:
            assert priced == pytest.approx(tl.total_ms, rel=rel, abs=0.0)
        else:
            assert priced == tl.total_ms

    @staticmethod
    def _grid_points(grid, data):
        """Both grid ends and one point strictly between two grid points."""
        points = [float(grid[0]), float(grid[-1])]
        if grid.size > 1:
            i = data.draw(st.integers(0, grid.size - 2), label="gap")
            frac = data.draw(st.floats(0.01, 0.99), label="frac")
            points.append(float(grid[i] + frac * (grid[i + 1] - grid[i])))
        return points

    @pytest.mark.parametrize("kind", ["cc", "spmm", "hh"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        density=st.sampled_from([0.0, 0.05, 0.2]),
        sampled=st.booleans(),
        data=st.data(),
    )
    @example(n=1, seed=0, density=0.0, sampled=False, data=None)
    def test_scalar_pipelines_clean_and_priced_alike(
        self, machine, kind, n, seed, density, sampled, data
    ):
        if kind == "cc":
            problem = CcProblem(
                random_graph(n, int(density * n * n), seed), machine
            )
        elif kind == "spmm":
            problem = SpmmProblem(random_sparse(n, n, density, seed), machine)
        else:
            problem = HhCpuProblem(random_sparse(n, n, density, seed), machine)
        if sampled:
            problem = problem.sample(max(1, n // 2), rng=seed)
        grid = problem.threshold_grid()
        points = (
            self._grid_points(grid, data)
            if data is not None
            else [float(grid[0]), float(grid[-1])]
        )
        if kind == "hh":
            points.append(float(grid[-1]) + 1.0)  # above the top density
        rel = 1e-9 if kind == "hh" and sampled else 0.0
        for t in points:
            self._assert_clean_and_priced(problem, t, rel)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(0, 64), data=st.data())
    @example(n=0, data=None)
    def test_dense_mm_clean_and_priced_alike(self, machine, n, data):
        problem = DenseMmProblem(n, machine)
        grid = problem.threshold_grid()
        points = (
            self._grid_points(grid, data)
            if data is not None
            else [float(grid[0]), float(grid[-1])]
        )
        for t in points:
            self._assert_clean_and_priced(problem, t)

    @pytest.mark.parametrize("kind", ["cc", "spmm"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        n_gpus=st.sampled_from([1, 2, 7]),
        topology=st.sampled_from(["shared", "dedicated"]),
        mixed=st.booleans(),
        cuts=st.lists(
            st.one_of(
                st.sampled_from([0.0, 100.0]),
                st.integers(0, 100).map(float),
                st.floats(0.0, 100.0),
            ),
            min_size=7,
            max_size=7,
        ),
        shape=st.sampled_from(["drawn", "repeated", "zeros", "full"]),
    )
    @example(
        n=1, seed=0, n_gpus=7, topology="shared", mixed=True,
        cuts=[50.0] * 7, shape="repeated",
    )
    def test_multiway_clean_and_priced_alike(
        self, kind, n, seed, n_gpus, topology, mixed, cuts, shape
    ):
        cluster = cluster_testbed(
            n_gpus=n_gpus, time_scale=1 / 16, topology=topology, mixed=mixed
        )
        if kind == "cc":
            problem = MultiwayCcProblem(random_graph(n, 2 * n, seed), cluster)
        else:
            problem = MultiwaySpmmProblem(random_sparse(n, n, 0.1, seed), cluster)
        vector = sorted(cuts[:n_gpus])
        if shape == "repeated":  # zero-width ranges between equal cuts
            vector = [vector[0]] * n_gpus
        elif shape == "zeros":
            vector = [0.0] * n_gpus
        elif shape == "full":
            vector = [100.0] * n_gpus
        tl = problem.timeline(vector)
        assert check_timeline(tl) == []
        priced = problem.evaluate_many(np.array([vector], dtype=np.float64))
        assert float(priced[0]) == tl.total_ms

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_dynamic_schedules_clean(self, machine, n, seed, data):
        problem = SpmmProblem(random_sparse(n, n, 0.1, seed), machine)
        chunk_rows = data.draw(st.integers(1, n), label="chunk_rows")
        schedule = simulate_dynamic_spmm(problem, chunk_rows)
        assert check_timeline(schedule.timeline) == []
        rounds = data.draw(st.integers(1, 8), label="rounds")
        result = DynamicRebalance(
            SamplingPartitioner(RaceCoarseSearch(), rng=seed),
            rounds=rounds,
            steal=True,
        ).run(problem)
        assert check_timeline(result.timeline) == []
