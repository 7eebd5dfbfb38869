"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from iteration import SERVE_SEED_POOL, SRC, digest  # noqa: E402
from spans import COUNTERS, LAYER_METRICS, Recorder, ledger, self_times  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent]


class TestLedger:
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            _span("root", 0.0, 10.0, None),
            _span("a", 1.0, 4.0, 0),
            _span("b", 3.0, 6.0, 0),  # overlaps a (another thread)
            _span("c", 2.0, 3.0, 1),
        ]
        assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span("root", 0.0, 2.0, None), _span("a", 1.0, 5.0, 0)]
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_layers_and_unattributed_sum_to_the_root(self):
        spans = [
            _span("before", -5.0, -1.0, None),  # outside the timed section
            _span("root", 0.0, 1.0, None),
            _span("core.oracle_ms", 0.1, 0.5, 1),
            _span("hetero.evaluate_many_ms", 0.2, 0.4, 2),
            _span("core.oracle_ms", 0.6, 0.7, 1),
        ]
        totals = ledger(spans, 1, ["core.oracle_ms", "hetero.evaluate_many_ms", "serve.tune_ms"])
        assert totals["core.oracle_ms"] == pytest.approx(300.0)
        assert totals["hetero.evaluate_many_ms"] == pytest.approx(200.0)
        assert totals["serve.tune_ms"] == 0.0
        assert totals["unattributed_ms"] == pytest.approx(500.0)
        assert sum(totals.values()) == pytest.approx(1000.0)

    def test_recorder_parents_other_threads_to_the_root(self):
        import threading

        recorder = Recorder()
        work = recorder.wrap(lambda: None, "serve.tune_ms")
        root = recorder.open_root()
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        nested = recorder.wrap(work, "serve.build_problem_ms")
        nested()
        recorder.close_root()
        parents = {span[0]: span[3] for span in recorder.spans}
        assert parents["serve.build_problem_ms"] == root
        assert [s[3] for s in recorder.spans if s[0] == "serve.tune_ms"] == [root, 2]


class TestTailRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert run.samples_beyond(1000, 99) == 10
        assert run.samples_beyond(999, 99) == 9
        assert run.percentile(list(range(999)), 99) is None
        assert run.percentile(list(range(1000)), 99) == 989

    def test_median_needs_ten_samples_beyond_it_too(self):
        assert run.percentile([1.0, 2.0, 3.0], 50) is None
        assert run.percentile([float(x) for x in range(21)], 50) == 10.0


class TestOutputCheck:
    RESULT = {"failed": 0, "degraded": False, "digest": "a" * 64}

    def test_matching_digest_passes(self):
        assert run.check_iteration(self.RESULT, "a" * 64, 2) == (0, [])

    def test_digest_mismatch_fails_every_operation(self):
        failed, problems = run.check_iteration(self.RESULT, "b" * 64, 2)
        assert failed == 2 and "digest" in problems[0]

    def test_unrecorded_seed_fails(self):
        assert run.check_iteration(self.RESULT, None, 1)[0] == 1

    def test_degraded_pool_is_a_failure(self):
        failed, problems = run.check_iteration({**self.RESULT, "degraded": True}, "a" * 64, 2)
        assert failed == 2 and "degraded" in problems[0]

    def test_missing_result_fails_every_operation(self):
        assert run.check_iteration(None, "a" * 64, 4096)[0] == 4096

    def test_seed_mapping_keeps_recorded_seeds(self):
        recorded = list(range(16)) + [1009]
        assert run.program_seed(1009, recorded) == 1009
        assert run.program_seed(3, recorded) == 3
        assert run.program_seed(35, recorded) == 3


def _iterate(tmp_path, workload, **job):
    job = {"workload": workload, "seed": 1, "cache_dir": str(tmp_path / "cache"), **job}
    job.setdefault("workers", 1)
    job.setdefault("trace", True)
    out = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "iteration.py"), json.dumps(job), str(out)],
        check=True,
        timeout=300,
    )
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload,workers", [("paper-cold", 1), ("sweep-pooled", 2)])
def test_experiment_paths_smoke(tmp_path, workload, workers):
    result = _iterate(tmp_path, workload, workers=workers, scale=1 / 128)
    assert result["failed"] == 0 and not result["degraded"]
    layers = result["layers"]
    assert set(LAYER_METRICS + COUNTERS) <= set(layers)
    assert layers["engine.cache_misses"] > 0 and layers["engine.cache_bytes_written"] > 0
    if workers > 1:
        assert layers["engine.pool_tasks"] > 0
        serial = _iterate(tmp_path, workload, scale=1 / 128, cache_dir=str(tmp_path / "serial"))
        assert serial["digest"] == result["digest"]
    else:
        assert layers["core.oracle_evaluations"] > 0
        assert layers["unattributed_ms"] < 0.1 * result["wall_s"] * 1e3
        warm = _iterate(tmp_path, "paper-warm", scale=1 / 128)
        assert warm["digest"] == result["digest"]
        assert warm["layers"]["engine.cache_hits"] == layers["engine.cache_misses"]


def test_serve_path_smoke_matches_run_bench(tmp_path):
    sys.path.insert(0, str(SRC))
    from repro.serve.bench import run_bench
    from repro.serve.loadgen import TrafficSpec

    result = _iterate(tmp_path, "serve-stream", requests=64)
    assert result["failed"] == 0 and len(result["latencies_ms"]) == 64
    assert result["counters"]["serve.computed"] > 0
    bench = run_bench(
        TrafficSpec(n_requests=64, seed=1, seed_pool=SERVE_SEED_POOL),
        cache_dir=str(tmp_path / "bench"),
        workers=1,
        warmup=False,
    )
    assert result["digest"] == bench["digest"]


def test_digest_joins_lines():
    import hashlib

    assert digest(["a", "b"]) == hashlib.sha256(b"a\nb").hexdigest()


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(LAYER_METRICS + COUNTERS) <= names
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
