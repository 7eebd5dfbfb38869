"""Tests for repro.obs.timeline_view and repro.platform.calibration."""

import numpy as np
import pytest

from repro.obs.timeline_view import (
    critical_summary,
    idle_spans,
    render_gantt,
    utilization,
)
from repro.platform.calibration import (
    calibrate_profile,
    fit_efficiency,
    validate_profile,
)
from repro.platform.costmodel import KernelProfile, effective_rate_per_ms
from repro.platform.device import cpu_xeon_e5_2650_dual, gpu_tesla_k40c
from repro.platform.timeline import Timeline
from repro.util.errors import ValidationError

CPU = cpu_xeon_e5_2650_dual()
GPU = gpu_tesla_k40c()


def sample_timeline() -> Timeline:
    tl = Timeline()
    tl.overlap([("cpu", "phase2/a", 2.0), ("gpu", "phase2/b", 5.0)])
    tl.run("pcie", "phase2/x", 1.0)
    tl.run("gpu", "phase2/merge", 2.0)
    return tl


class TestUtilization:
    def test_busy_fractions(self):
        u = utilization(sample_timeline())
        assert u["gpu"].busy_ms == pytest.approx(7.0)
        assert u["gpu"].busy_fraction == pytest.approx(7.0 / 8.0)
        assert u["cpu"].busy_fraction == pytest.approx(2.0 / 8.0)
        assert u["pcie"].n_spans == 1

    def test_empty_timeline(self):
        assert utilization(Timeline()) == {}

    def test_zero_makespan_is_zero_not_nan(self):
        tl = Timeline()
        tl.record("cpu", "noop", 0.0, 0.0)
        u = utilization(tl)["cpu"]
        assert u.busy_ms == 0.0 and u.makespan_ms == 0.0
        assert u.busy_fraction == 0.0 and not np.isnan(u.busy_fraction)

    def test_overlapping_spans_not_double_counted(self):
        # Regression: busy time is measured on merged intervals, so a
        # hand-built trace with self-overlap cannot exceed 100% utilization.
        tl = Timeline()
        tl.record("cpu", "a", 0.0, 6.0)
        tl.record("cpu", "b", 2.0, 6.0)  # overlaps [2, 6)
        tl.record("cpu", "c", 9.0, 1.0)  # disjoint tail
        u = utilization(tl)
        assert u["cpu"].busy_ms == pytest.approx(9.0)  # [0,8) + [9,10)
        assert u["cpu"].busy_fraction == pytest.approx(0.9)
        assert u["cpu"].n_spans == 3

    def test_contained_span_not_double_counted(self):
        tl = Timeline()
        tl.record("gpu", "outer", 0.0, 10.0)
        tl.record("gpu", "inner", 3.0, 2.0)
        assert utilization(tl)["gpu"].busy_ms == pytest.approx(10.0)

    def test_idle_spans(self):
        gaps = idle_spans(sample_timeline(), "cpu")
        # CPU works [0, 2) then idles to the end at 8.
        assert gaps == [(pytest.approx(2.0), pytest.approx(8.0))]

    def test_idle_spans_interior_gap(self):
        gaps = idle_spans(sample_timeline(), "gpu")
        # GPU busy [0,5) and [6,8): one interior gap.
        assert len(gaps) == 1
        assert gaps[0] == (pytest.approx(5.0), pytest.approx(6.0))

    def test_critical_summary_ordering(self):
        top = critical_summary(sample_timeline(), top=2)
        assert top[0] == ("phase2/b", 5.0)
        assert len(top) == 2

    def test_critical_summary_rejects_zero(self):
        with pytest.raises(ValidationError):
            critical_summary(sample_timeline(), top=0)


class TestGantt:
    def test_rows_per_resource(self):
        art = render_gantt(sample_timeline(), width=32)
        lines = art.splitlines()
        assert len(lines) == 4  # axis + 3 resources
        assert lines[1].startswith("cpu")
        assert lines[2].startswith("gpu")
        assert lines[3].startswith("pcie")

    def test_busy_cells_proportional(self):
        art = render_gantt(sample_timeline(), width=64)
        gpu_row = [l for l in art.splitlines() if l.startswith("gpu")][0]
        cpu_row = [l for l in art.splitlines() if l.startswith("cpu")][0]
        assert gpu_row.count("#") > cpu_row.count("#")

    def test_empty(self):
        assert "empty" in render_gantt(Timeline())

    def test_min_width(self):
        with pytest.raises(ValidationError):
            render_gantt(sample_timeline(), width=4)


class TestCalibration:
    def test_round_trip_exact(self):
        # Generate measurements from a known profile; the fit recovers it.
        true = KernelProfile("k", cpu_efficiency=0.04, gpu_efficiency=0.01)
        rate = effective_rate_per_ms(CPU, true)
        measurements = [(w, w / rate) for w in (1e6, 5e6, 2e7)]
        assert fit_efficiency(CPU, measurements) == pytest.approx(0.04, rel=1e-9)

    def test_median_resists_outlier(self):
        true_eff = 0.05
        rate = CPU.peak_gflops * 1e6 * true_eff
        measurements = [(1e6, 1e6 / rate), (2e6, 2e6 / rate), (1e6, 100.0)]
        fitted = fit_efficiency(CPU, measurements)
        assert fitted == pytest.approx(true_eff, rel=1e-6)

    def test_calibrate_profile_both_devices(self):
        cpu_rate = CPU.peak_gflops * 1e6 * 0.03
        gpu_rate = GPU.peak_gflops * 1e6 * 0.002
        profile = calibrate_profile(
            "fitted",
            CPU,
            GPU,
            [(1e6, 1e6 / cpu_rate)],
            [(1e7, 1e7 / gpu_rate)],
        )
        assert profile.cpu_efficiency == pytest.approx(0.03, rel=1e-6)
        assert profile.gpu_efficiency == pytest.approx(0.002, rel=1e-6)

    def test_memory_bound_fit(self):
        eff = 0.2
        rate = CPU.mem_bandwidth_gbs * 1e6 / 16.0 * eff
        fitted = fit_efficiency(
            CPU, [(1e6, 1e6 / rate)], bound="memory", bytes_per_unit=16.0
        )
        assert fitted == pytest.approx(eff, rel=1e-6)

    def test_above_peak_rejected(self):
        with pytest.raises(ValidationError):
            fit_efficiency(CPU, [(1e15, 0.001)])

    def test_bad_measurements_rejected(self):
        with pytest.raises(ValidationError):
            fit_efficiency(CPU, [])
        with pytest.raises(ValidationError):
            fit_efficiency(CPU, [(0.0, 1.0)])

    def test_validate_profile_errors(self):
        profile = KernelProfile("k", cpu_efficiency=0.05, gpu_efficiency=0.01)
        rate = effective_rate_per_ms(CPU, profile)
        report = validate_profile(
            CPU, profile, [(1e6, 1e6 / rate), (1e6, 2e6 / rate)]
        )
        assert report.relative_errors[0] == pytest.approx(0.0, abs=1e-12)
        assert report.relative_errors[1] == pytest.approx(0.5)
        assert report.max_error == pytest.approx(0.5)
        assert report.mean_error == pytest.approx(0.25)
