"""hh batch pricing by step events, against the paths it must agree with.

``HhCpuProblem.evaluate_many`` sorts each row's nonzeros by contribution
once and reads every aggregate of the Phase II-IV pipeline from small span
tables (docs/PERFORMANCE.md §9).  It replaced a dense evaluator that
bucketed every row at every cutoff; that evaluator stays here as
``dense_evaluate_many``, the reference.

* Full instances and round blocks sum integer-valued float64s, so the
  event path must equal ``evaluate_ms`` and the dense reference bit for
  bit, at any cutoffs: unsorted, repeated, fractional, out of range,
  infinite, or more than one chunk of them.
* Sampled instances weight rows by fractional representation multipliers;
  only the order of those sums differs, so they stay within 1e-9 of
  ``evaluate_ms``.  No test asserts that two paths pick the same argmin on
  a sample: ties within 1e-16 flip it for either path.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.problem import check_thresholds
from repro.experiments import config as config_module
from repro.hetero import hh_cpu as hh_module
from repro.hetero.hh_cpu import HhCpuProblem
from repro.platform.costmodel import effective_rate_per_ms
from repro.platform.machine import paper_testbed
from repro.sparse.construct import from_dense
from repro.workloads.scalefree import scalefree_matrix
from repro.workloads.suite import scalefree_subset_names
from tests.test_construction_equivalence import patterns

#: Sampled instances reorder representation-weighted sums only.
REL_TOL = 1e-9

#: Derandomized, so CI runs the same examples every time.
CI = settings(max_examples=120, deadline=None, derandomize=True)

MACHINE = paper_testbed(time_scale=1 / 16)
SCALES = (1 / 16, 1 / 64)
DATASETS = [(name, scale) for scale in SCALES for name in scalefree_subset_names()]
DATASET_IDS = [f"{name}@1/{round(1 / scale)}" for name, scale in DATASETS]
SAMPLERS = ("rows", "importance", "fold", "thin")


# -- the replaced implementation --------------------------------------------


def dense_evaluate_many(problem: HhCpuProblem, thresholds) -> np.ndarray:
    """The dense evaluator: rows x cutoffs bucket tables, chunked."""
    ts = check_thresholds(thresholds, upper=math.inf)
    if ts.size == 0:
        return np.zeros(0, dtype=np.float64)
    n = problem.a.n_rows
    if n == 0:
        return np.zeros(ts.shape, dtype=np.float64)
    order = np.argsort(problem._d_rows, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    tb = {
        "d_sorted": problem._d_rows[order],
        "rep_sorted": problem._rep[order],
        "mults_sorted": problem._row_mults[order],
        "rank_expanded": rank[problem._rows_expanded],
    }
    flat = ts.ravel()
    ts_order = np.argsort(flat, kind="stable")
    sorted_ts = flat[ts_order]
    out_sorted = np.empty(sorted_ts.size, dtype=np.float64)
    chunk = max(1, int(1_500_000 // (n + 1)))
    for lo in range(0, sorted_ts.size, chunk):
        tc = sorted_ts[lo : lo + chunk]
        out_sorted[lo : lo + tc.size] = _dense_chunk(problem, tc, tb)
    out = np.empty(flat.size, dtype=np.float64)
    out[ts_order] = out_sorted
    return out.reshape(ts.shape)


def _dense_chunk(problem: HhCpuProblem, tc: np.ndarray, tb: dict) -> np.ndarray:
    n = problem.a.n_rows
    g = tc.size
    cpu = problem.machine.cpu
    gpu = problem.machine.gpu
    pe = np.searchsorted(tc, problem._contrib, side="left")
    buckets = np.bincount(
        tb["rank_expanded"] * (g + 1) + pe,
        weights=problem._contrib,
        minlength=n * (g + 1),
    ).astype(np.float64, copy=False).reshape(n, g + 1)
    w_high = buckets[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:]
    w_low = tb["mults_sorted"][:, None] - w_high
    w_high *= 2.0
    w_low *= 2.0
    rep_col = tb["rep_sorted"][:, None]
    quantum = gpu.warp_size * gpu.flops_per_cycle

    def pref(x):
        out = np.empty((n + 1, g), dtype=np.float64)
        out[0] = 0.0
        np.cumsum(x, axis=0, out=out[1:])
        return out

    def prefmax(x):
        out = np.zeros((n + 1, g), dtype=np.float64)
        np.maximum.accumulate(x, axis=0, out=out[1:])
        return out

    def sufmax(x):
        out = np.zeros((n + 1, g), dtype=np.float64)
        out[:n] = np.maximum.accumulate(x[::-1], axis=0)[::-1]
        return out

    b = np.searchsorted(tb["d_sorted"], tc, side="right")
    cols = np.arange(g)
    p_high_rep = pref(w_high * rep_col)
    p_low_rep = pref(w_low * rep_col)
    p_pad_low_rep = pref(np.ceil(w_low / quantum) * quantum * rep_col)
    p_pad_high_rep = pref(np.ceil(w_high / quantum) * quantum * rep_col)
    smax_high = sufmax(w_high)[b, cols]
    smax_low = sufmax(w_low)[b, cols]
    pmax_high = prefmax(w_high)[b, cols]
    pmax_low = prefmax(w_low)[b, cols]

    rate_c = effective_rate_per_ms(cpu, problem.profile)
    rate_g = effective_rate_per_ms(gpu, problem.profile)
    threads = cpu.threads
    warp_rate = rate_g * gpu.warp_size / gpu.cores
    cpu_launch = cpu.kernel_launch_us * 1e-3
    gpu_launch = gpu.kernel_launch_us * 1e-3

    def cpu_chunked(total, atom):
        ms = np.maximum(total / threads, atom) / (rate_c / threads) + cpu_launch
        return np.where(atom > 0.0, ms, 0.0)

    def gpu_warp(padded, strag):
        ms = np.maximum(padded / rate_g, strag / warp_rate) + gpu_launch
        return np.where(strag > 0.0, ms, 0.0)

    total2c = p_high_rep[n] - p_high_rep[b, cols]
    total3c = p_low_rep[n] - p_low_rep[b, cols]
    phase2 = np.maximum(
        cpu_chunked(total2c, smax_high), gpu_warp(p_pad_low_rep[b, cols], pmax_low)
    )
    phase3 = np.maximum(
        cpu_chunked(total3c, smax_low), gpu_warp(p_pad_high_rep[b, cols], pmax_high)
    )
    gpu_mults = (p_low_rep[b, cols] + p_high_rep[b, cols]) / 2.0
    d2h = problem.machine.transfer_ms_many(
        gpu_mults * problem._compression * hh_module._BYTES_PER_NNZ
    )
    cpu_mults = (total2c + total3c) / 2.0
    combine_cpu = (
        hh_module.COMBINE_FACTOR
        * cpu_mults
        / effective_rate_per_ms(cpu, hh_module.PROFILE_COMBINE)
    )
    combine_gpu = gpu_launch + (
        hh_module.COMBINE_FACTOR * gpu_mults
    ) / effective_rate_per_ms(gpu, hh_module.PROFILE_COMBINE)
    phase1 = (
        problem.work_scale
        * float(n)
        / effective_rate_per_ms(cpu, hh_module.PROFILE_ROW_GATHER)
        + cpu_launch
    )
    return (((phase1 + phase2) + phase3) + d2h) + np.maximum(combine_cpu, combine_gpu)


# -- helpers ----------------------------------------------------------------


def scalar(problem: HhCpuProblem, ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=np.float64)
    return np.array([problem.evaluate_ms(float(t)) for t in ts.ravel()]).reshape(
        ts.shape
    )


def assert_bitwise(problem: HhCpuProblem, ts) -> None:
    """Events = scalar = dense reference, bit for bit."""
    ts = np.asarray(ts, dtype=np.float64)
    got = problem.evaluate_many(ts)
    assert got.shape == ts.shape
    assert got.tobytes() == scalar(problem, ts).tobytes()
    assert got.tobytes() == dense_evaluate_many(problem, ts).tobytes()


def assert_close(problem: HhCpuProblem, ts) -> None:
    """A sampled instance: within rounding of the scalar path."""
    ts = np.asarray(ts, dtype=np.float64)
    np.testing.assert_allclose(
        problem.evaluate_many(ts), scalar(problem, ts), rtol=REL_TOL, atol=0.0
    )


def off_grid(problem: HhCpuProblem) -> np.ndarray:
    """Cutoffs no grid holds: reversed, between grid points, repeated,
    beyond every density and infinite."""
    grid = problem.threshold_grid()
    top = float(grid[-1])
    return np.concatenate(
        (grid[::-1], grid[:5] + 0.5, [0.0, 0.0, top, top + 1.0, 3.0, 1e9, math.inf])
    )


# -- strategies -------------------------------------------------------------


def square_patterns():
    """Square patterns with empty rows, explicit zeros, all-zero matrices
    and (sometimes) one dense row."""
    return st.integers(0, 16).flatmap(
        lambda n: st.booleans().flatmap(lambda dense: patterns(n, n, dense_row=dense))
    )


def cutoffs():
    return st.lists(
        st.one_of(
            st.integers(0, 18).map(float),
            st.floats(0.0, 20.0, allow_nan=False),
            st.sampled_from([0.0, 0.5, 1e9, math.inf]),
        ),
        max_size=40,
    )


# -- Hypothesis matrices ----------------------------------------------------


class TestHypothesisMatrices:
    @CI
    @given(square_patterns(), cutoffs())
    def test_full_instance_is_bitwise(self, a, cuts):
        problem = HhCpuProblem(a, MACHINE)
        assert_bitwise(problem, np.concatenate((problem.threshold_grid(), cuts)))

    @CI
    @given(square_patterns(), cutoffs(), st.data())
    def test_round_block_is_bitwise(self, a, cuts, data):
        if a.n_rows == 0:
            return
        problem = HhCpuProblem(a, MACHINE)
        lo = data.draw(st.integers(0, a.n_rows - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, a.n_rows), label="hi")
        block = problem.round_block(lo, hi)
        assert_bitwise(block, np.concatenate((problem.threshold_grid(), cuts)))

    @CI
    @given(
        st.integers(2, 60),
        st.integers(0, 2**16),
        st.sampled_from(SAMPLERS),
        st.integers(1, 12),
        cutoffs(),
    )
    def test_samples_stay_within_rounding(self, n, seed, method, size, cuts):
        problem = HhCpuProblem(
            scalefree_matrix(n, 4.0, alpha=2.2, rng=seed), MACHINE
        )
        sub = problem.sample(size, rng=np.random.default_rng(seed), method=method)
        grid = problem.threshold_grid()
        assert_close(sub, np.concatenate((sub.threshold_grid(), grid, cuts)))

    def test_degenerate_shapes(self):
        for dense in (
            np.zeros((0, 0)),
            np.zeros((5, 5)),
            np.eye(1),
            np.ones((6, 6)),
            np.vstack([np.ones((1, 7)), np.zeros((6, 7))]),
        ):
            problem = HhCpuProblem(from_dense(dense), MACHINE)
            assert_bitwise(problem, off_grid(problem))
            assert_bitwise(problem, np.zeros(0))
            assert_bitwise(problem, np.array([[0.0, 1.0], [math.inf, 0.5]]))

    @CI
    @given(square_patterns(), cutoffs())
    def test_lexsort_fallback_is_bitwise(self, a, cuts):
        # Keys past 2**63 make pair_key decline; the events then come from a
        # lexsort, which no realistic shape reaches, so force it here.
        problem = HhCpuProblem(a, MACHINE)
        ts = np.concatenate((problem.threshold_grid(), cuts))
        want = problem.evaluate_many(ts)
        original = hh_module.pair_key
        hh_module.pair_key = lambda *args: None
        try:
            assert problem.evaluate_many(ts).tobytes() == want.tobytes()
        finally:
            hh_module.pair_key = original

    def test_more_cutoffs_than_one_chunk(self):
        problem = HhCpuProblem(scalefree_matrix(300, 8.0, alpha=2.1, rng=5), MACHINE)
        top = float(problem.threshold_grid()[-1])
        gen = np.random.default_rng(7)
        ts = np.concatenate(
            (
                gen.random(2 * hh_module._CHUNK) * (top + 2.0),
                gen.integers(0, int(top) + 2, size=50).astype(np.float64),
                [math.inf, 0.0, 0.0],
            )
        )
        assert ts.size > 2 * hh_module._CHUNK
        assert_bitwise(problem, ts)
        assert_close(problem.sample(40, rng=3, method="importance"), ts)


# -- the shipped datasets ---------------------------------------------------


@pytest.mark.parametrize(("name", "scale"), DATASETS, ids=DATASET_IDS)
def test_dataset_instances(name, scale):
    problem = HhCpuProblem(config_module._cached_dataset(name, scale).matrix, MACHINE)
    grid = problem.threshold_grid()
    assert_bitwise(problem, grid)
    assert_bitwise(problem, off_grid(problem))
    n = problem.a.n_rows
    assert_bitwise(problem.round_block(n // 3, 2 * n // 3), grid)
    for method in SAMPLERS:
        sub = problem.sample(
            problem.default_sample_size(), rng=np.random.default_rng(11), method=method
        )
        assert_close(sub, np.concatenate((sub.threshold_grid(), grid)))


def test_memory_stays_below_the_dense_tables():
    """One full grid on webbase-1M (n = 62,500 at 1/16): the events and span
    tables stay under a bound that the dense rows x cutoffs tables exceed
    three times over.  The bound includes building the events."""
    bound = 24 * 2**20
    a = config_module._cached_dataset("webbase-1M", 1 / 16).matrix
    grid = HhCpuProblem(a, MACHINE).threshold_grid()

    def peak(price) -> int:
        problem = HhCpuProblem(a, MACHINE)
        tracemalloc.start()
        try:
            price(problem, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(HhCpuProblem.evaluate_many) < bound
    assert peak(dense_evaluate_many) > 3 * bound
