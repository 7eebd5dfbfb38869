"""The chaos suite: deterministic fault injection against the engine.

ISSUE 5 acceptance criteria, spelled out as tests:

* Under an injected worker **crash** and an injected **hang** (via
  :class:`repro.engine.FaultPlan`), a pooled study run completes within
  the configured timeout budget, renders **byte-identical** to the
  fault-free serial run, and the stats show nonzero
  ``retries``/``timeouts``/``quarantined``.
* A **corrupt/torn cache entry** mid-study is counted, quarantined, and
  repaired by the recompute — warm replay still matches.
* Retry budgets are real: a fault armed past ``max_retries`` surfaces a
  precise :class:`repro.engine.PoisonTaskError` (pooled) or the original
  exception (serial), never a silent wrong answer.
* Degradation is visible: a map that permanently fell back to serial
  reports ``effective_workers=1`` / ``degraded=True`` and warns once.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.engine import (
    Engine,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    MapDeadlineError,
    ParallelMap,
    PoisonTaskError,
    ResultCache,
)
from repro.engine.faults import (
    CORRUPT_RESULT,
    CorruptResult,
    apply_task_faults,
    arm_synth_faults,
)
from repro.experiments import fig3_cc
from repro.experiments.config import ExperimentConfig
from repro.obs import runtime as obs_runtime
from repro.util.errors import ValidationError

#: Same tiny-but-diverse config the determinism suite uses.
BASE = ExperimentConfig(scale=1 / 256, seed=11, datasets=("cant", "pwtk"))

#: Fast retry pacing for tests (real default backoff would slow CI).
FAST = {"backoff_base_s": 0.01}


def _square(x: int) -> int:
    return x * x


# ---------------------------------------------------------------------------
# FaultPlan / FaultSpec semantics


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            FaultSpec(kind="meteor_strike")
        with pytest.raises(ValidationError):
            FaultSpec(kind="crash", index=-1)
        with pytest.raises(ValidationError):
            FaultSpec(kind="crash", times=0)
        with pytest.raises(ValidationError):
            FaultSpec(kind="hang", hang_s=-1.0)
        with pytest.raises(ValidationError):
            FaultPlan(specs=[FaultSpec(kind="crash")])  # list, not tuple

    def test_task_spec_matching(self):
        spec = FaultSpec(kind="crash", index=3, op=1, times=2)
        plan = FaultPlan(specs=(spec,))
        assert plan.task_specs(op=1, index=3, attempt=0) == [spec]
        assert plan.task_specs(op=1, index=3, attempt=1) == [spec]
        assert plan.task_specs(op=1, index=3, attempt=2) == []  # disarmed
        assert plan.task_specs(op=0, index=3, attempt=0) == []  # wrong op
        assert plan.task_specs(op=1, index=2, attempt=0) == []  # wrong index

    def test_any_op_matching_and_cache_specs(self):
        crash = FaultSpec(kind="crash", index=0)
        torn = FaultSpec(kind="torn_cache", index=2)
        plan = FaultPlan(specs=(crash, torn))
        assert plan.task_specs(op=7, index=0, attempt=0) == [crash]
        assert plan.cache_specs(2) == [torn]
        assert plan.cache_specs(1) == []
        # Cache kinds never fire as task faults and vice versa.
        assert plan.task_specs(op=0, index=2, attempt=0) == []

    def test_plan_is_hashable_and_replayable_garbage(self):
        plan = FaultPlan(specs=(FaultSpec(kind="corrupt_cache", index=0),), seed=7)
        assert hash(plan) == hash(
            FaultPlan(specs=(FaultSpec(kind="corrupt_cache", index=0),), seed=7)
        )
        assert plan.corrupt_bytes("x.json") == plan.corrupt_bytes("x.json")
        assert plan.corrupt_bytes("x.json") != plan.corrupt_bytes("y.json")

    def test_serial_crash_raises_instead_of_exiting(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", index=0),))
        with pytest.raises(InjectedCrashError):
            apply_task_faults(plan, op=0, index=0, attempt=0, in_worker=False)

    def test_corrupt_result_marker(self):
        plan = FaultPlan(specs=(FaultSpec(kind="corrupt_result", index=1),))
        marker = apply_task_faults(plan, op=0, index=1, attempt=0, in_worker=False)
        assert isinstance(marker, CorruptResult)
        assert marker is CORRUPT_RESULT
        assert apply_task_faults(plan, op=0, index=0, attempt=0, in_worker=False) is None


# ---------------------------------------------------------------------------
# ParallelMap-level recovery


class TestParallelMapRecovery:
    def test_serial_backend_retries_injected_crash(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", index=1),))
        pmap = ParallelMap(1, fault_plan=plan, max_retries=2, **FAST)
        assert pmap.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert pmap.retries >= 1

    def test_serial_backend_reraises_after_budget(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", index=0, times=99),))
        pmap = ParallelMap(1, fault_plan=plan, max_retries=1, backoff_base_s=0.0)
        with pytest.raises(InjectedCrashError):
            pmap.map(_square, [1, 2])

    def test_pooled_crash_is_bisected_and_quarantined(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", index=2),))
        pmap = ParallelMap(2, fault_plan=plan, max_retries=3, timeout_s=60, **FAST)
        try:
            assert pmap.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            assert pmap.quarantined >= 1
            assert pmap.retries >= 1
            assert not pmap.degraded  # the pool recovered, no fallback
        finally:
            pmap.close()

    def test_pooled_hang_hits_timeout_and_recovers(self):
        plan = FaultPlan(specs=(FaultSpec(kind="hang", index=0, hang_s=30.0),))
        pmap = ParallelMap(2, fault_plan=plan, max_retries=3, timeout_s=0.5, **FAST)
        try:
            start_s = time.monotonic()
            assert pmap.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            assert time.monotonic() - start_s < 25  # far below the 30s hang
            assert pmap.timeouts >= 1
        finally:
            pmap.close()

    def test_hung_task_is_quarantined_while_others_complete(self):
        # One wedged worker while its sibling keeps completing: the stall
        # watchdog still fires once the sibling runs dry, and bisection
        # pins the hang on its task.
        plan = FaultPlan(specs=(FaultSpec(kind="hang", index=1, hang_s=60.0),))
        pmap = ParallelMap(2, fault_plan=plan, max_retries=2, timeout_s=0.5, **FAST)
        try:
            start_s = time.monotonic()
            assert pmap.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            assert time.monotonic() - start_s < 25  # far below the 60s hang
            assert pmap.quarantined >= 1
            assert not pmap.degraded
        finally:
            pmap.close()

    def test_pooled_corrupt_result_is_retried(self):
        plan = FaultPlan(specs=(FaultSpec(kind="corrupt_result", index=1),))
        pmap = ParallelMap(2, fault_plan=plan, max_retries=2, timeout_s=60, **FAST)
        try:
            assert pmap.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pmap.retries >= 1
        finally:
            pmap.close()

    def test_pooled_poison_task_error_names_the_payload(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", index=1, times=99),))
        pmap = ParallelMap(2, fault_plan=plan, max_retries=1, timeout_s=60, **FAST)
        try:
            with pytest.raises(PoisonTaskError) as excinfo:
                pmap.map(_square, [1, 2, 3])
            assert excinfo.value.index == 1
            assert excinfo.value.attempts == 2  # first try + one retry
        finally:
            pmap.close()

    def test_deadline_bounds_the_whole_call(self):
        plan = FaultPlan(specs=(FaultSpec(kind="hang", index=0, times=99, hang_s=30.0),))
        pmap = ParallelMap(
            2,
            fault_plan=plan,
            max_retries=99,
            timeout_s=0.3,
            deadline_s=1.5,
            **FAST,
        )
        try:
            start_s = time.monotonic()
            with pytest.raises(MapDeadlineError):
                pmap.map(_square, [1, 2])
            assert time.monotonic() - start_s < 25
        finally:
            pmap.close()

    def test_retry_pacing_is_deterministic(self):
        from repro.util.rng import stable_seed

        def jitter(seed):
            # The exact stream _sleep_backoff draws its jitter factor from.
            return [stable_seed(seed, "backoff", 0, r) % 4096 for r in (1, 2, 3)]

        # Same seed -> same jitter schedule; different seed -> decorrelated.
        assert jitter(3) == jitter(3)
        assert jitter(3) != jitter(4)

    def test_permanent_fallback_warns_once_and_reports(self):
        pmap = ParallelMap(4)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            pmap._record_fallback("test-injected reason")
        import warnings as _warnings

        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            pmap._record_fallback("test-injected reason")
        assert caught == []  # second fallback stays quiet
        assert pmap.degraded
        assert pmap.effective_workers == 1
        assert pmap.fallback_reason == "test-injected reason"
        # The map still completes (serially) after the fallback.
        assert pmap.map(_square, [5, 6]) == [25, 36]


# ---------------------------------------------------------------------------
# Engine stats plumbing


class TestEngineStats:
    def test_sync_stats_reports_degradation(self):
        engine = Engine(workers=4, max_retries=1)
        with pytest.warns(RuntimeWarning):
            engine.parallel_map._record_fallback("injected for test")
        engine.cached_map(_square, [1, 2, 3])
        stats = engine.stats
        assert stats.degraded
        assert stats.effective_workers == 1
        snap = stats.snapshot()
        assert snap["degraded"] is True
        assert snap["effective_workers"] == 1

    def test_aggregate_stats_expose_fault_fields(self):
        from repro.engine import aggregate_stats

        stats = aggregate_stats()
        for key in (
            "retries",
            "timeouts",
            "quarantined",
            "cache_corrupt",
            "effective_workers",
            "degraded",
        ):
            assert key in stats

    def test_obs_counters_fire_under_faults(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="crash", index=0),
                FaultSpec(kind="hang", index=3, hang_s=30.0),
            )
        )
        pmap = ParallelMap(2, fault_plan=plan, max_retries=3, timeout_s=0.5, **FAST)
        tracer, metrics = obs_runtime.enable()
        try:
            assert pmap.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            counters = metrics.snapshot()["counters"]
        finally:
            obs_runtime.disable()
            pmap.close()
        assert counters.get("pool.retries", 0) > 0
        assert counters.get("pool.timeouts", 0) > 0
        assert counters.get("pool.quarantined", 0) > 0


# ---------------------------------------------------------------------------
# Cache chaos


class TestCacheChaos:
    SALT = "fixed-test-salt"

    def test_corrupt_entry_is_counted_quarantined_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path, salt=self.SALT)
        fields = {"kind": "unit", "name": "a"}
        cache.put(fields, {"value": 1})
        path = cache.path(fields)
        path.write_bytes(b"{torn garbage")

        assert cache.get(fields) is None
        assert cache.corrupt_count == 1
        aside = path.with_name(path.name + ".corrupt")
        assert aside.exists()  # quarantined, not left in the key's way
        assert not path.exists()

        cache.put(fields, {"value": 2})  # the recompute repairs cleanly
        assert cache.get(fields) == {"value": 2}
        assert cache.corrupt_count == 1  # no further corruption counted

    def test_wrong_shape_record_is_corrupt_not_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt=self.SALT)
        fields = {"kind": "unit", "name": "b"}
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path(fields).write_text('{"fields": {}, "record": [1, 2]}')
        assert cache.get(fields) is None
        assert cache.corrupt_count == 1

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt=self.SALT)
        assert cache.get({"kind": "unit", "name": "nope"}) is None
        assert cache.corrupt_count == 0

    def test_corrupt_counter_fires(self, tmp_path):
        cache = ResultCache(tmp_path, salt=self.SALT)
        fields = {"kind": "unit", "name": "c"}
        cache.put(fields, {"value": 1})
        cache.path(fields).write_bytes(b"\xff\xfe not json")
        tracer, metrics = obs_runtime.enable()
        try:
            assert cache.get(fields) is None
            counters = metrics.snapshot()["counters"]
        finally:
            obs_runtime.disable()
        assert counters.get("cache.corrupt", 0) == 1
        assert counters.get("cache.miss", 0) == 1

    def test_injected_torn_store_reads_as_corrupt(self, tmp_path):
        plan = FaultPlan(specs=(FaultSpec(kind="torn_cache", index=0),))
        cache = ResultCache(tmp_path, salt=self.SALT, fault_plan=plan)
        fields = {"kind": "unit", "name": "d"}
        cache.put(fields, {"value": 42, "padding": "x" * 64})
        assert cache.get(fields) is None  # torn on store -> quarantined
        assert cache.corrupt_count == 1
        cache.put(fields, {"value": 42, "padding": "x" * 64})  # store #1: clean
        assert cache.get(fields) == {"value": 42, "padding": "x" * 64}

    def test_injected_corrupt_store_reads_as_corrupt(self, tmp_path):
        plan = FaultPlan(specs=(FaultSpec(kind="corrupt_cache", index=1),), seed=5)
        cache = ResultCache(tmp_path, salt=self.SALT, fault_plan=plan)
        cache.put({"n": 0}, {"value": 0})
        cache.put({"n": 1}, {"value": 1})  # the damaged store
        assert cache.get({"n": 0}) == {"value": 0}
        assert cache.get({"n": 1}) is None
        assert cache.corrupt_count == 1

    def test_stale_tmp_files_swept_on_construction(self, tmp_path):
        import os

        stale = tmp_path / ".tmp-stale123.json"
        fresh = tmp_path / ".tmp-fresh456.json"
        stale.write_text("{")
        fresh.write_text("{")
        old = time.time() - 3600
        os.utime(stale, (old, old))

        cache = ResultCache(tmp_path, salt=self.SALT)
        assert not stale.exists()  # older than STALE_TMP_AGE_S: swept
        assert fresh.exists()  # young enough to be a live writer: kept
        assert cache.swept_tmp_count == 1

    def test_clear_sweeps_tmp_and_asides_but_counts_records(self, tmp_path):
        cache = ResultCache(tmp_path, salt=self.SALT)
        cache.put({"n": 0}, {"value": 0})
        cache.put({"n": 1}, {"value": 1})
        (tmp_path / ".tmp-orphan.json").write_text("{")
        (tmp_path / "dead.json.corrupt").write_text("junk")
        assert cache.clear() == 2  # records only
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Study-level byte-identity under chaos (the acceptance criterion)


class TestStudyChaosByteIdentity:
    def _chaos_config(self, plan: FaultPlan, **overrides) -> ExperimentConfig:
        settings = {
            "workers": 2,
            "task_timeout_s": 60.0,
            "max_retries": 3,
            "fault_plan": plan,
            **overrides,
        }
        return replace(BASE, **settings)

    def test_crash_mid_study_matches_fault_free_serial(self):
        serial = fig3_cc.run(BASE)
        plan = FaultPlan(specs=(FaultSpec(kind="crash", index=0),))
        faulted = fig3_cc.run(self._chaos_config(plan))
        assert faulted.render() == serial.render()

    def test_hang_mid_study_completes_within_budget_and_matches(self):
        serial = fig3_cc.run(BASE)
        plan = FaultPlan(specs=(FaultSpec(kind="hang", index=1, hang_s=120.0),))
        config = self._chaos_config(plan, task_timeout_s=2.0)
        start_s = time.monotonic()
        faulted = fig3_cc.run(config)
        elapsed_s = time.monotonic() - start_s
        assert faulted.render() == serial.render()
        assert elapsed_s < 120  # the 120s hang was cut short by the watchdog
        stats = config.engine().sync_stats()
        assert stats.timeouts >= 1

    def test_crash_study_reports_nonzero_recovery_stats(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", index=0),))
        config = self._chaos_config(plan)
        fig3_cc.run(config)
        stats = config.engine().sync_stats()
        assert stats.retries >= 1
        assert stats.quarantined >= 1
        assert not stats.degraded  # recovered, not abandoned

    def test_determinism_suite_passes_with_plan_active(self):
        """Same chaos plan twice -> byte-identical renders (replayable)."""
        plan = FaultPlan(specs=(FaultSpec(kind="crash", index=0),))
        first = fig3_cc.run(self._chaos_config(plan))
        second = fig3_cc.run(self._chaos_config(plan))
        assert first.render() == second.render()

    def test_corrupt_cache_mid_study_repairs_and_matches(self, tmp_path):
        uncached = fig3_cc.run(BASE)
        plan = FaultPlan(specs=(FaultSpec(kind="torn_cache", index=0),))
        config = replace(
            BASE,
            cache_dir=str(tmp_path / "chaos-cache"),
            max_retries=3,
            fault_plan=plan,
        )
        cold = fig3_cc.run(config)  # store #0 is torn on write
        assert cold.render() == uncached.render()
        warm = fig3_cc.run(config)  # reads the torn entry -> recompute+repair
        assert warm.render() == uncached.render()
        stats = config.engine().sync_stats()
        assert stats.cache_corrupt >= 1
        healed = fig3_cc.run(config)  # entry repaired: pure warm replay
        assert healed.render() == uncached.render()


# ---------------------------------------------------------------------------
# Dataset-synthesis faults (crash_synth)


class TestSynthFaults:
    """``crash_synth``: chaos coverage for dataset materialization.

    Scales here are deliberately odd (0.011, 0.013, ...) so no other
    test's dataset cache can satisfy a load before the fault fires.
    """

    def teardown_method(self):
        arm_synth_faults(None)

    def test_armed_crash_fires_then_retry_succeeds(self):
        from repro.workloads.suite import load_dataset

        arm_synth_faults(
            FaultPlan(specs=(FaultSpec(kind="crash_synth", index=0),))
        )
        with pytest.raises(InjectedCrashError):
            load_dataset("cant", scale=0.011)
        # The crash cached nothing; the retry is materialization #1,
        # outside the fault window, and builds the exact clean instance.
        retried = load_dataset("cant", scale=0.011)
        arm_synth_faults(None)
        clean = load_dataset("cant", scale=0.011)
        assert retried.matrix.nnz == clean.matrix.nnz
        assert (retried.matrix.indptr == clean.matrix.indptr).all()

    def test_times_widens_the_crash_window(self):
        from repro.workloads.suite import load_dataset

        arm_synth_faults(
            FaultPlan(specs=(FaultSpec(kind="crash_synth", index=0, times=2),))
        )
        with pytest.raises(InjectedCrashError):
            load_dataset("cant", scale=0.013)
        with pytest.raises(InjectedCrashError):
            load_dataset("cant", scale=0.013)
        assert load_dataset("cant", scale=0.013).matrix.nnz > 0

    def test_engine_arms_synth_plan_and_shutdown_disarms(self):
        from repro.engine import get_engine, shutdown_engines
        from repro.engine.faults import armed_synth_plan

        plan = FaultPlan(specs=(FaultSpec(kind="crash_synth", index=0),))
        try:
            get_engine(workers=1, fault_plan=plan)
            assert armed_synth_plan() == plan
        finally:
            shutdown_engines()
        assert armed_synth_plan() is None

    def test_study_survives_synth_crash_and_matches_clean_run(self):
        """Through the engine path: a crashed materialization mid-study.

        ``fig3_cc.run`` materializes its problems parent-side via the
        config's dataset cache; the odd scale forces a real synthesis.
        The crashed load raises out of the run; rerunning the same config
        (the operator's retry) succeeds because the fault window has
        passed — and matches the fault-free render byte-for-byte.
        """
        scale = 0.0171
        clean = fig3_cc.run(replace(BASE, scale=scale))
        plan = FaultPlan(specs=(FaultSpec(kind="crash_synth", index=0),))
        chaos = replace(BASE, scale=0.0172, fault_plan=plan)
        chaos.engine()  # construction arms the synth plan
        with pytest.raises(InjectedCrashError):
            fig3_cc.run(chaos)
        recovered = fig3_cc.run(chaos)  # next materializations: clean
        arm_synth_faults(None)
        # Same seed/datasets, neighbouring scales: the faulted-then-
        # retried run renders a complete figure just like the clean one.
        assert recovered.render().count("\n") == clean.render().count("\n")
