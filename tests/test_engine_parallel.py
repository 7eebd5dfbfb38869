"""Tests for repro.engine.parallel: ordered fan-out and oracle equivalence."""

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
from repro.engine.parallel import ParallelMap, chunked
from repro.experiments import cli
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import cc_problem, spmm_problem
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
    """A scalar-only problem (no ``evaluate_many``): takes the pool path.

    Module-level (and trivially picklable) because the fan-out ships the
    problem to worker processes.
    """

    name = "scalar-grid"

    def __init__(self, n_points: int = 101) -> None:
        self._grid = np.linspace(0.0, 100.0, n_points)

    def evaluate_ms(self, threshold: float) -> float:
        t = float(threshold)
        return 1.0 + (t - 37.0) ** 2 / 1000.0

    def threshold_grid(self) -> np.ndarray:
        return self._grid


class _PoisonPool:
    """A many-worker pool whose map must never be called."""

    workers = 8

    def map(self, fn, payloads):
        raise AssertionError("batched problems must not fan out over the pool")


class TestChunked:
    def test_contiguous_and_order_preserving(self):
        chunks = chunked(list(range(10)), 3)
        assert [x for c in chunks for x in c] == list(range(10))
        assert len(chunks) == 3

    def test_near_equal_sizes(self):
        sizes = [len(c) for c in chunked(list(range(11)), 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_chunks(self):
        chunks = chunked([1, 2], 8)
        assert chunks == [[1], [2]]

    def test_empty(self):
        assert chunked([], 4) == []

    def test_rejects_zero_chunks(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


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
            pytest.param(chunked, {"items": [1], "n_chunks": 0}, id="n_chunks"),
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
    """The per-threshold fan-out must be bit-identical to the serial sweep."""

    @pytest.mark.parametrize("factory", [cc_problem, spmm_problem])
    def test_bit_identical_to_serial(self, factory):
        problem = factory(TINY, "cant")
        serial = exhaustive_oracle(problem)
        pmap = ParallelMap(2)
        try:
            parallel = exhaustive_oracle(problem, parallel_map=pmap)
        finally:
            pmap.close()
        assert parallel == serial  # dataclass equality: every field, exactly

    def test_serial_pmap_takes_serial_path(self):
        problem = cc_problem(TINY, "cant")
        assert exhaustive_oracle(problem, parallel_map=ParallelMap(1)) == (
            exhaustive_oracle(problem)
        )

    def test_scalar_only_problem_fans_out_bit_identical(self):
        # cc/spmm now batch-price (and skip the pool), so the fan-out path
        # is exercised by a problem without an evaluate_many hook.
        problem = _ScalarGridProblem()
        serial = exhaustive_oracle(problem)
        pmap = ParallelMap(2)
        try:
            parallel = exhaustive_oracle(problem, parallel_map=pmap)
        finally:
            pmap.close()
        assert parallel == serial

    def test_grid_smaller_than_chunk_count(self):
        # workers * 4 = 8 chunks from a 3-point grid: the empty tails must
        # be dropped, not shipped to workers as no-op tasks.
        problem = _ScalarGridProblem(n_points=3)
        pmap = ParallelMap(2)
        try:
            result = exhaustive_oracle(problem, parallel_map=pmap)
        finally:
            pmap.close()
        assert result == exhaustive_oracle(problem)
        assert result.n_evaluations == 3

    @pytest.mark.parametrize("factory", [cc_problem, spmm_problem])
    def test_batched_problem_skips_pool(self, factory):
        # Path choice is by capability, before the worker count: a batched
        # problem never touches the pool even when one is offered.
        problem = factory(TINY, "cant")
        assert exhaustive_oracle(problem, parallel_map=_PoisonPool()) == (
            exhaustive_oracle(problem)
        )
