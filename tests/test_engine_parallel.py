"""Tests for repro.engine.parallel: ordered fan-out, serial = pooled."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.oracle import exhaustive_oracle
from repro.engine import Engine, FaultPlan, FaultSpec, shutdown_engines
from repro.engine import parallel
from repro.engine.parallel import ParallelMap
from repro.experiments import cli
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import study_problem
from repro.util.errors import ValidationError
from repro.workloads.band import banded_matrix

TINY = ExperimentConfig(scale=1 / 256)


def _square(x: int) -> int:
    return x * x


class _Unpicklable:
    """A payload that refuses to pickle: pooled maps must never try."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __reduce__(self):
        raise TypeError("payloads travel by fork inheritance, never by pickle")


def _unwrap_square(payload: _Unpicklable) -> int:
    return payload.value * payload.value


def _unwrap_negate(payload: _Unpicklable) -> int:
    return -payload.value


def _draw_then_fail_once(payload) -> float:
    """Consume the payload's generator; the first attempt then raises."""
    rng, marker = payload
    value = float(rng.random())
    if not os.path.exists(marker):
        Path(marker).touch()
        raise RuntimeError("first attempt fails after touching its payload")
    return value


def _col_sums(payload):
    """Deterministic reduction over a CSR payload (module-level: pickled)."""
    matrix, scale = payload
    out = np.zeros(matrix.shape[1])
    np.add.at(out, matrix.indices, matrix.data * scale)
    return out


def _psm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # no /dev/shm on this host: nothing to leak
        return set()


class _ScalarGridProblem:
    """A scalar-only problem (no ``evaluate_many``): the oracle's sweep
    takes :func:`repro.core.problem.evaluate_grid`'s scalar fallback."""

    def __init__(self, n_points: int, center: float) -> None:
        self.name = f"scalar-grid-{n_points}"
        self._grid = np.linspace(0.0, 100.0, n_points)
        self._center = center

    def evaluate_ms(self, threshold: float) -> float:
        return 1.0 + (float(threshold) - self._center) ** 2 / 1000.0

    def threshold_grid(self) -> np.ndarray:
        return self._grid


class TestParallelMap:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ParallelMap(0)

    def test_serial_backend(self):
        pmap = ParallelMap(1)
        assert pmap.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_process_backend_matches_serial_in_order(self):
        pmap = ParallelMap(2)
        try:
            assert pmap.map(_square, list(range(20))) == [x * x for x in range(20)]
        finally:
            pmap.close()

    def test_empty_payloads(self):
        pmap = ParallelMap(2)
        assert pmap.map(_square, []) == []
        pmap.close()

    def test_broken_pool_falls_back_to_serial(self):
        pmap = ParallelMap(4)
        pmap._pool_broken = True  # simulate a host without multiprocessing
        assert pmap.map(_square, [2, 3]) == [4, 9]

    def test_close_is_idempotent(self):
        pmap = ParallelMap(2)
        pmap.map(_square, [1])
        pmap.close()
        pmap.close()

    @pytest.mark.parametrize(
        "call, kwargs",
        [
            pytest.param(ParallelMap, {"workers": 0}, id="workers"),
            pytest.param(ParallelMap, {"timeout_s": 0.0}, id="timeout_s"),
            pytest.param(ParallelMap, {"deadline_s": -1.0}, id="deadline_s"),
            pytest.param(ParallelMap, {"max_retries": -1}, id="max_retries"),
            pytest.param(ParallelMap, {"backoff_base_s": -0.1}, id="backoff_base_s"),
            pytest.param(ParallelMap, {"backoff_jitter": -0.1}, id="backoff_jitter"),
            pytest.param(
                Engine().cached_map,
                {"fn": _square, "payloads": [1, 2], "key_fields": [{"i": 1}]},
                id="cached_map_key_fields",
            ),
        ],
    )
    def test_bad_arguments_raise_validation_error(self, call, kwargs):
        with pytest.raises(ValidationError):
            call(**kwargs)

    def test_pooled_matches_serial_bit_for_bit(self):
        matrix = banded_matrix(800, 9.0, rng=7)
        assert matrix.memory_bytes() >= 1 << 16  # a dataset, not a toy
        payloads = [(matrix, float(i)) for i in range(1, 5)]
        serial = [_col_sums(p) for p in payloads]
        pmap = ParallelMap(2)
        try:
            pooled = pmap.map(_col_sums, payloads)
            assert not pmap.degraded
        finally:
            pmap.close()
        # Per element: the serial list shares one dtype instance that a
        # whole-list pickle would memoize, pooled results do not.
        assert [pickle.dumps(r) for r in pooled] == [pickle.dumps(r) for r in serial]


class TestInheritedPayloads:
    """Pooled maps fork per call: payloads are inherited, tasks ship indices."""

    def test_unpicklable_payloads_match_serial(self):
        payloads = [_Unpicklable(i) for i in range(8)]
        pmap = ParallelMap(2)
        assert pmap.map(_unwrap_square, payloads) == [
            _unwrap_square(p) for p in payloads
        ]
        assert not pmap.degraded

    def test_unpicklable_payloads_survive_bisection_restart(self):
        plan = FaultPlan(specs=(FaultSpec(kind="crash", index=2),))
        pmap = ParallelMap(
            2, fault_plan=plan, max_retries=3, timeout_s=60, backoff_base_s=0.01
        )
        payloads = [_Unpicklable(i) for i in range(6)]
        assert pmap.map(_unwrap_square, payloads) == [i * i for i in range(6)]
        assert pmap.pool_restarts >= 1
        assert pmap.quarantined >= 1
        assert not pmap.degraded
        assert multiprocessing.active_children() == []

    def test_back_to_back_maps_see_their_own_payloads(self):
        pmap = ParallelMap(2)
        first = pmap.map(_unwrap_square, [_Unpicklable(i) for i in range(6)])
        second = pmap.map(_unwrap_negate, [_Unpicklable(i) for i in (10, 11, 12)])
        third = pmap.map(_square, [7, 8])
        assert first == [i * i for i in range(6)]
        assert second == [-10, -11, -12]
        assert third == [49, 64]

    def test_retry_after_a_raise_sees_the_untouched_payload(self, tmp_path):
        # One payload, so one worker: a retry on that worker would draw
        # from the generator the failed attempt already advanced.
        marker = str(tmp_path / "failed-once")
        expected = float(np.random.default_rng(5).random())
        pmap = ParallelMap(2, max_retries=1, backoff_base_s=0.0)
        payload = (np.random.default_rng(5), marker)
        assert pmap.map(_draw_then_fail_once, [payload]) == [expected]
        assert pmap.retries == 1

    def test_no_worker_outlives_the_map(self):
        pmap = ParallelMap(2)
        assert pmap.map(_square, list(range(10))) == [x * x for x in range(10)]
        assert multiprocessing.active_children() == []


class TestNoForkFallback:
    """Without a usable ``fork`` a pooled map is serial from construction."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )

    def test_degraded_before_the_first_map(self, no_fork):
        with pytest.warns(RuntimeWarning) as caught:
            pmap = ParallelMap(2)
            assert pmap.effective_workers == 1
            assert pmap.degraded
            assert "'fork'" in pmap.fallback_reason
            assert pmap.map(_square, [3, 1, 2]) == [9, 1, 4]
            assert pmap.map(_square, [4]) == [16]
        assert len(caught) == 1
        assert caught[0].category is RuntimeWarning
        assert multiprocessing.active_children() == []

    def test_cli_prints_degraded_line(self, no_fork, capsys):
        shutdown_engines()  # no memoized workers=2 engine built with fork
        try:
            with pytest.warns(RuntimeWarning, match="fork"):
                code = cli.main(
                    [
                        "--no-cache", "--workers", "2", "--scale", "0.00390625",
                        "--datasets", "cant", "fig3",
                    ]
                )
        finally:
            shutdown_engines()
        captured = capsys.readouterr()
        assert code == 0
        assert "[engine summary: workers=2 (effective 1);" in captured.out
        assert "[engine DEGRADED: requested workers=2" in captured.err
        assert "'fork'" in captured.err


class TestPooledCliRun:
    def test_pooled_run_ends_clean(self, tmp_path):
        """A pooled CLI run exits 0 with nothing on stderr and no
        shared-memory segment left behind."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        before = _psm_segments()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments", "--no-cache",
                "--workers", "2", "--scale", "0.015625", "fig4", "fig9",
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert _psm_segments() - before == set()


class TestParallelOracle:
    """A study's oracle is one engine unit: the pooled unit is
    bit-identical to the serial sweep, also without ``evaluate_many``."""

    @pytest.mark.parametrize("kind", ["cc", "spmm"], ids=["cc_problem", "spmm_problem"])
    def test_bit_identical_to_serial(self, kind):
        problem = study_problem(TINY, kind, "cant")
        engine = Engine(workers=2)
        [pooled] = engine.cached_map(exhaustive_oracle, [problem])
        assert not engine.stats.degraded
        assert pooled == exhaustive_oracle(problem)  # every field, exactly

    def test_serial_pmap_takes_serial_path(self, monkeypatch):
        # At workers=1 the map is the plain in-process loop: it never
        # sets up the fault-tolerant run that a pool needs.
        problem = study_problem(TINY, "cc", "cant")
        monkeypatch.setattr(parallel, "_MapRun", None)
        assert ParallelMap(1).map(exhaustive_oracle, [problem]) == [
            exhaustive_oracle(problem)
        ]

    @staticmethod
    def _scalar_sweep(problem: _ScalarGridProblem) -> tuple[float, float, float]:
        """First strict minimum in grid order; cost as the left-fold sum."""
        best_t, best_ms, cost_ms = None, float("inf"), 0.0
        for t in problem.threshold_grid():
            ms = problem.evaluate_ms(t)
            cost_ms += ms
            if ms < best_ms:
                best_t, best_ms = float(t), ms
        return best_t, best_ms, cost_ms

    def test_scalar_only_problem_fans_out_bit_identical(self):
        # A 101-point grid, and a 3-point grid whose first two points tie
        # at the minimum (so the first strict minimum must win).
        problems = [_ScalarGridProblem(101, 37.0), _ScalarGridProblem(3, 25.0)]
        engine = Engine(workers=2)
        pooled = engine.cached_map(exhaustive_oracle, problems)
        assert not engine.stats.degraded
        assert engine.stats.effective_workers == 2
        for problem, result in zip(problems, pooled):
            serial = exhaustive_oracle(problem)
            assert result == serial
            grid = problem.threshold_grid()
            assert serial.evaluations == tuple(
                (float(t), problem.evaluate_ms(t)) for t in grid
            )
            assert (
                serial.threshold,
                serial.best_time_ms,
                serial.search_cost_ms,
            ) == self._scalar_sweep(problem)
        assert pooled[1].threshold == 0.0  # the tie resolves to grid order
