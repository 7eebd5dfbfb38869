"""Tests for repro.engine.cache and Engine.cached_map."""

from __future__ import annotations

import json

import pytest

from repro.core.baselines import BaselineComparison, compare_with_baselines
from repro.core.framework import PartitionEstimate
from repro.core.oracle import OracleResult, exhaustive_oracle
from repro.core.search import SearchResult
from repro.engine import (
    Engine,
    ResultCache,
    code_version_salt,
    fingerprint,
    get_engine,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import study_partitioner, study_problem

TINY = ExperimentConfig(scale=1 / 256)


def _double(x: int) -> dict:
    return {"value": 2 * x}


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_distinguishes_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_salt_changes_key(self, tmp_path):
        a = ResultCache(tmp_path, salt="v1")
        b = ResultCache(tmp_path, salt="v2")
        fields = {"kind": "x"}
        assert a.key(fields) != b.key(fields)

    def test_default_salt_is_code_version(self, tmp_path):
        assert ResultCache(tmp_path).salt == code_version_salt()
        assert len(code_version_salt()) == 64


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, salt="t")
        fields = {"kind": "unit", "dataset": "cant"}
        assert cache.get(fields) is None
        cache.put(fields, {"x": 1.5})
        assert cache.get(fields) == {"x": 1.5}
        assert len(cache) == 1

    def test_entry_records_its_fields(self, tmp_path):
        cache = ResultCache(tmp_path, salt="t")
        fields = {"kind": "unit", "names": ("a", "b")}
        cache.put(fields, {"x": 1})
        entry = json.loads(cache.path(fields).read_text())
        assert entry["fields"]["kind"] == "unit"
        assert entry["fields"]["names"] == ["a", "b"]

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="t")
        fields = {"kind": "unit"}
        cache.put(fields, {"x": 1})
        cache.path(fields).write_text("{not json")
        assert cache.get(fields) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path, salt="t")
        cache.put({"a": 1}, {"x": 1})
        cache.put({"a": 2}, {"x": 2})
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_float_roundtrip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path, salt="t")
        value = 0.1 + 0.2  # not representable prettily; must survive exactly
        cache.put({"k": 1}, {"v": value})
        assert cache.get({"k": 1})["v"] == value


class TestCachedMap:
    def test_cold_then_warm(self, tmp_path):
        engine = Engine(workers=1, cache=ResultCache(tmp_path, salt="t"))
        keys = [{"i": i} for i in range(4)]
        cold = engine.cached_map(_double, [0, 1, 2, 3], key_fields=keys)
        assert [r["value"] for r in cold] == [0, 2, 4, 6]
        assert engine.stats.misses == 4 and engine.stats.hits == 0
        warm = engine.cached_map(_double, [0, 1, 2, 3], key_fields=keys)
        assert warm == cold
        assert engine.stats.hits == 4 and engine.stats.misses == 4

    def test_partial_warm_computes_only_misses(self, tmp_path):
        engine = Engine(workers=1, cache=ResultCache(tmp_path, salt="t"))
        engine.cached_map(_double, [0, 1], key_fields=[{"i": 0}, {"i": 1}])
        out = engine.cached_map(
            _double, [0, 1, 2], key_fields=[{"i": 0}, {"i": 1}, {"i": 2}]
        )
        assert [r["value"] for r in out] == [0, 2, 4]
        assert engine.stats.hits == 2 and engine.stats.misses == 3

    def test_count_hook_tracks_computed_only(self, tmp_path):
        engine = Engine(workers=1, cache=ResultCache(tmp_path, salt="t"))
        count = lambda r: r["value"]
        engine.cached_map(_double, [5], key_fields=[{"i": 5}], count=count)
        assert engine.stats.computed_evaluations == 10
        engine.cached_map(_double, [5], key_fields=[{"i": 5}], count=count)
        assert engine.stats.computed_evaluations == 10  # warm: nothing computed

    def test_no_cache_engine_still_computes(self):
        engine = Engine(workers=1, cache=None)
        out = engine.cached_map(_double, [1, 2], key_fields=[{"i": 1}, {"i": 2}])
        assert [r["value"] for r in out] == [2, 4]
        assert engine.stats.hits == 0 and engine.stats.misses == 0

    def test_mismatched_keys_rejected(self):
        engine = Engine(workers=1)
        with pytest.raises(ValueError):
            engine.cached_map(_double, [1, 2], key_fields=[{"i": 1}])

    def test_prepare_runs_only_for_misses(self, tmp_path):
        engine = Engine(workers=1, cache=ResultCache(tmp_path, salt="t"))
        engine.cached_map(_double, [1], key_fields=[{"i": 1}])
        prepared = []

        def prepare(x):
            prepared.append(x)
            return 10 * x

        out = engine.cached_map(
            _double, [1, 2], key_fields=[{"i": 1}, {"i": 2}], prepare=prepare
        )
        assert [r["value"] for r in out] == [2, 40]
        assert prepared == [2]


class TestGetEngine:
    def test_shared_per_key(self, tmp_path):
        a = get_engine(workers=1, cache_dir=str(tmp_path))
        b = get_engine(workers=1, cache_dir=str(tmp_path))
        assert a is b
        assert get_engine(workers=1, cache_dir=None) is not a

    def test_config_engine_uses_fields(self, tmp_path):
        config = ExperimentConfig(scale=1 / 256, cache_dir=str(tmp_path))
        engine = config.engine()
        assert engine.cache is not None
        assert engine.workers == 1


class TestRecordRoundtrips:
    """to_record()/from_record() must reproduce results exactly."""

    def test_search_result(self):
        result = SearchResult(
            threshold=42.0,
            value_ms=1.25,
            evaluations=((40.0, 2.0), (42.0, 1.25)),
            cost_ms=3.25,
            extra_cost_ms=0.5,
        )
        assert SearchResult.from_record(result.to_record()) == result

    def test_oracle_result(self):
        problem = study_problem(TINY, "cc", "cant")
        oracle = exhaustive_oracle(problem)
        assert OracleResult.from_record(oracle.to_record()) == oracle

    def test_json_roundtrip_is_byte_exact(self):
        problem = study_problem(TINY, "cc", "cant")
        oracle = exhaustive_oracle(problem)
        via_json = json.loads(json.dumps(oracle.to_record()))
        assert OracleResult.from_record(via_json) == oracle

    def test_estimate_and_comparison(self):
        problem = study_problem(TINY, "cc", "cant")
        comparison = compare_with_baselines(
            problem, study_partitioner(TINY, "cc", "cant"), naive_average=80.0
        )
        est = comparison.estimate
        assert PartitionEstimate.from_record(est.to_record()) == est
        back = BaselineComparison.from_record(
            json.loads(json.dumps(comparison.to_record()))
        )
        assert back == comparison

    def test_comparison_none_naive_average(self):
        problem = study_problem(TINY, "cc", "cant")
        comparison = compare_with_baselines(problem, study_partitioner(TINY, "cc", "cant"))
        back = BaselineComparison.from_record(comparison.to_record())
        assert back.naive_average_threshold is None
        assert back.naive_average_time_ms is None
