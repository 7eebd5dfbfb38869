"""Observability determinism suite.

Three contracts from docs/OBSERVABILITY.md:

* **Observing never changes a number.**  A study renders byte-identically
  with recording on or off.
* **Pooled spans merge losslessly.**  ``workers=2`` ships worker span
  buffers and metric snapshots back to the parent; the merged aggregates
  (span name -> count / simulated ms, plus every non-pool metric) equal
  the serial run's.  Only the ``pool/*`` spans and ``pool.*`` metrics —
  which describe the transport itself — may differ.
* **The trace reconciles with the report.**  Per-dataset estimation
  overhead recomputed from ``estimate/`` and ``phase2/`` span simulated-ms
  totals matches the Figure 3(b) ``overhead %`` column.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import fig3_cc
from repro.experiments.config import ExperimentConfig
from repro.obs import aggregate_records, runtime

BASE = ExperimentConfig(scale=1 / 256, seed=11, datasets=("cant", "pwtk"))


@pytest.fixture(autouse=True)
def _obs_off_after():
    yield
    runtime.disable()


def _observed_run(config: ExperimentConfig):
    """Run fig3 with recording on; return (report, span aggregates, metrics)."""
    tracer, metrics = runtime.enable()
    report = fig3_cc.run(config)
    records = tracer.records()
    snapshot = metrics.snapshot()
    runtime.disable()
    return report, aggregate_records(records), snapshot


def _comparable(aggregates: dict, snapshot: dict):
    """Strip transport-only observations and wall-clock fields.

    Wall time legitimately differs between processes and runs; counts and
    simulated-ms are the deterministic part (mirrors ``diff_aggregates``).
    """
    spans = {
        name: (agg["count"], round(agg["sim_ms"], 9))
        for name, agg in aggregates.items()
        if not name.startswith("pool/")
    }
    metrics = {
        "counters": {
            k: v
            for k, v in snapshot["counters"].items()
            if not k.startswith("pool.")
        },
        "gauges": {
            k: v
            for k, v in snapshot["gauges"].items()
            if not k.startswith("pool.")
        },
        "histograms": {
            k: v
            for k, v in snapshot["histograms"].items()
            if not k.startswith("pool.")
        },
    }
    return spans, metrics


class TestProblemSpans:
    def test_built_on_cold_runs_only(self, tmp_path):
        config = replace(BASE, cache_dir=str(tmp_path / "cache"))
        tracer, _ = runtime.enable()
        cold = fig3_cc.run(config)
        cold_records = tracer.records()
        tracer, _ = runtime.enable()
        warm = fig3_cc.run(config)
        warm_records = tracer.records()
        runtime.disable()
        built = [r for r in cold_records if r.name.startswith("problem/")]
        assert sorted(r.name for r in built) == [f"problem/{n}" for n in BASE.datasets]
        assert all(r.cat == "experiments" and r.args["kind"] == "cc" for r in built)
        assert not [r for r in warm_records if r.name.startswith("problem/")]
        assert cold.render() == warm.render() == fig3_cc.run(BASE).render()


class TestObservingChangesNothing:
    def test_report_identical_with_and_without_recording(self):
        plain = fig3_cc.run(BASE)
        assert not runtime.enabled()
        observed, aggregates, _ = _observed_run(BASE)
        assert observed.render() == plain.render()
        assert aggregates  # and we actually recorded something


class TestPooledSpansMatchSerial:
    def test_workers2_aggregates_identical(self):
        _, serial_agg, serial_snap = _observed_run(BASE)
        parallel_report, parallel_agg, parallel_snap = _observed_run(
            replace(BASE, workers=2)
        )
        serial_report = fig3_cc.run(BASE)
        assert parallel_report.render() == serial_report.render()
        assert _comparable(parallel_agg, parallel_snap) == _comparable(
            serial_agg, serial_snap
        )
        # The pooled run did go through the pool instrumentation.
        assert parallel_snap["counters"].get("pool.tasks", 0) > 0
        assert "pool/map" in parallel_agg
        assert "pool/map" not in serial_agg


class TestTraceReconcilesWithReport:
    def test_overhead_percent_recomputed_from_spans(self):
        report, aggregates, _ = _observed_run(BASE)
        table_b = report.tables[1]
        assert table_b.headers[-1] == "overhead %"
        for row in table_b.rows:
            dataset, reported_overhead = row[0], row[-1]
            est_ms = aggregates[f"estimate/{dataset}"]["sim_ms"]
            phase2_ms = aggregates[f"phase2/{dataset}"]["sim_ms"]
            recomputed = 100.0 * est_ms / (est_ms + phase2_ms)
            assert recomputed == pytest.approx(reported_overhead, abs=1e-9)
