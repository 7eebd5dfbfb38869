"""Extension — dynamic re-balancing vs a static split on drifting workloads.

Not a paper artefact.  The paper's framework fixes the threshold once; this
study measures what that costs when per-row work *drifts* across the input
— the streaming/chunked setting where rows arrive (and must be partitioned)
in blocks.  Four synthetic scale-free workloads, all the same row mass:

* ``density-ramp`` — nnz/row ramps linearly from sparse to dense;
* ``ramp-reversed`` — the same ramp, densest rows first;
* ``sawtooth`` — rows sorted by density then dealt into alternating
  sparse/dense blocks (the adversarial ordering for any fixed cutoff);
* ``shuffled`` — the same rows in random order: the no-drift control.

Each runs under the same ``ROUNDS`` contiguous blocks with three threshold
policies: the static sampled cutoff held for every block (the paper's
method under streaming), :class:`~repro.hetero.dynamic_rebalance.
DynamicRebalance` (damped between-round moves toward the finished
block's hindsight optimum), and the per-round exhaustive oracle
(clairvoyant lower bound).  The "figure" is
the per-round cutoff trajectory on the ramp workload — dynamic converging
onto the oracle path after one observed round.

A final table exercises the work-stealing executor on an spmm instance:
the same rounds with and without :meth:`Timeline.steal_remaining` draining
chunked span queues.
"""

from __future__ import annotations

import numpy as np

from repro.core import SamplingPartitioner
from repro.core.search import GradientDescentSearch, RaceCoarseSearch
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import ExperimentReport, ReportTable
from repro.hetero.dynamic_rebalance import (
    DynamicRebalance,
    per_round_oracle,
    round_bounds,
)
from repro.hetero.hh_cpu import HhCpuProblem
from repro.hetero.spmm import SpmmProblem
from repro.sparse.construct import from_coo
from repro.sparse.csr import CsrMatrix
from repro.util.rng import as_generator, stable_seed

#: Blocks every policy runs under (the streaming granularity).
ROUNDS = 8
#: Density ramp endpoints (nnz/row) of the synthetic workloads.
RAMP_LO, RAMP_HI = 10.0, 200.0

DRIFT_WORKLOADS = ("density-ramp", "ramp-reversed", "sawtooth")
WORKLOADS = DRIFT_WORKLOADS + ("shuffled",)


def _ramp_matrix(n: int, rng) -> CsrMatrix:
    """Rows whose expected nnz ramps linearly from RAMP_LO to RAMP_HI."""
    lengths = np.minimum(
        rng.poisson(np.linspace(RAMP_LO, RAMP_HI, n)), n
    ).astype(np.int64)
    total = int(lengths.sum())
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    cols = (
        rng.integers(0, max(n, 1), size=total)
        if total
        else np.empty(0, dtype=np.int64)
    )
    vals = rng.uniform(0.0, 1.0, size=total)
    return from_coo(rows, cols, vals, (n, n))


def _order_rows(a: CsrMatrix, workload: str, rng) -> CsrMatrix:
    """Reorder the ramp's rows into the named drift pattern."""
    if workload == "density-ramp":
        return a
    if workload == "ramp-reversed":
        return a.select_rows(np.arange(a.n_rows - 1, -1, -1, dtype=np.int64))
    order = np.argsort(a.row_nnz(), kind="stable")
    if workload == "sawtooth":
        groups = np.array_split(order, ROUNDS)
        deal: list[np.ndarray] = []
        lo, hi = 0, len(groups) - 1
        while lo <= hi:
            deal.append(groups[lo])
            if hi != lo:
                deal.append(groups[hi])
            lo, hi = lo + 1, hi - 1
        return a.select_rows(np.concatenate(deal))
    if workload == "shuffled":
        perm = rng.permutation(a.n_rows)
        return a.select_rows(perm.astype(np.int64))
    raise ValueError(f"unknown workload {workload!r}")


def _clamped_estimate(problem, partitioner) -> float:
    est = partitioner.estimate(problem)
    grid = problem.threshold_grid()
    return float(min(max(est.threshold, float(grid[0])), float(grid[-1])))


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    machine = config.machine()
    n = max(256, int(round(32000 * config.scale)))

    rows = []
    metrics: dict = {}
    gains: list[float] = []
    aboves: list[float] = []
    trajectory: ReportTable | None = None
    for workload in WORKLOADS:
        gen = as_generator(stable_seed(config.seed, "ext-dynamic", workload))
        a = _order_rows(_ramp_matrix(n, gen), workload, gen)
        problem = HhCpuProblem(a, machine, name=f"drift/{workload}")

        def partitioner() -> SamplingPartitioner:
            return SamplingPartitioner(
                GradientDescentSearch(),
                repeats=config.repeats,
                rng=stable_seed(config.seed, "ext-dynamic", workload, "est"),
            )

        t0 = _clamped_estimate(problem, partitioner())
        bounds = round_bounds(problem.round_axis_n(), ROUNDS)
        static_ms = sum(
            problem.round_block(lo, hi).evaluate_ms(t0) for lo, hi in bounds
        )
        dynamic = DynamicRebalance(partitioner(), rounds=ROUNDS).run(problem)
        oracle_ts, oracle_ms = per_round_oracle(problem, ROUNDS)

        gain = 100.0 * (static_ms - dynamic.total_ms) / static_ms
        above = 100.0 * (dynamic.total_ms - oracle_ms) / oracle_ms
        rows.append(
            (workload, t0, static_ms, dynamic.total_ms, oracle_ms, gain, above)
        )
        metrics[f"{workload}_static_ms"] = static_ms
        metrics[f"{workload}_dynamic_ms"] = dynamic.total_ms
        metrics[f"{workload}_oracle_ms"] = oracle_ms
        metrics[f"{workload}_gain_percent"] = gain
        metrics[f"{workload}_above_oracle_percent"] = above
        if workload in DRIFT_WORKLOADS:
            gains.append(gain)
            aboves.append(above)
        if workload == "density-ramp":
            trajectory = ReportTable(
                "Figure - per-round density cutoff on the ramp "
                "(static vs dynamic vs oracle)",
                ("round", "static t", "dynamic t", "oracle t"),
                tuple(
                    (r.index, t0, r.thresholds[0], oracle_ts[r.index])
                    for r in dynamic.rounds
                ),
            )

    median_gain = float(np.median(gains))
    median_above = float(np.median(aboves))
    metrics["median_gain_percent"] = median_gain
    metrics["median_above_oracle_percent"] = median_above

    steal_rows, steal_metrics = _steal_study(config, machine, n)
    metrics.update(steal_metrics)

    tables = [
        ReportTable(
            "Streaming makespans (simulated ms)",
            (
                "workload",
                "static t0",
                "static",
                "dynamic",
                "oracle",
                "gain %",
                "above oracle %",
            ),
            tuple(rows),
        ),
    ]
    if trajectory is not None:
        tables.append(trajectory)
    tables.append(
        ReportTable(
            "Work stealing (spmm, adversarial order)",
            ("policy", "makespan ms", "stolen rows"),
            tuple(steal_rows),
        )
    )

    return ExperimentReport(
        exp_id="ext-dynamic",
        title="Extension - dynamic re-balancing and work stealing under drift",
        tables=tuple(tables),
        notes=(
            f"On drifting inputs the dynamic policy beats the static sampled cutoff by"
            f" {median_gain:.1f}% (median) and lands within {median_above:.1f}% of the"
            " per-round oracle;",
            "on the shuffled (no-drift) control the two policies are near-identical -"
            " re-balancing costs nothing when there is nothing to chase;",
            "each move re-optimizes the finished block in hindsight (half-step"
            " damped, so sawtooth alternation is not chased), and the share is"
            " applied through the next block's own density distribution;",
            "work stealing drains per-round span queues so the idle device claims"
            " unstarted chunks the between-round threshold move cannot reach.",
        ),
        metrics=metrics,
    )


def _steal_study(
    config: ExperimentConfig, machine, n: int
) -> tuple[list[tuple], dict]:
    """Spmm rounds with and without the work-stealing executor."""
    gen = as_generator(stable_seed(config.seed, "ext-dynamic", "steal"))
    a = _order_rows(_ramp_matrix(n, gen), "sawtooth", gen)
    problem = SpmmProblem(a, machine, name="drift/steal")

    def partitioner() -> SamplingPartitioner:
        return SamplingPartitioner(
            RaceCoarseSearch(),
            repeats=config.repeats,
            rng=stable_seed(config.seed, "ext-dynamic", "steal", "est"),
        )

    plain = DynamicRebalance(partitioner(), rounds=ROUNDS).run(problem)
    stealing = DynamicRebalance(partitioner(), rounds=ROUNDS, steal=True).run(
        problem
    )
    rows = [
        ("rounds only", plain.total_ms, plain.stolen_rows),
        ("rounds + stealing", stealing.total_ms, stealing.stolen_rows),
    ]
    metrics = {
        "steal_plain_ms": plain.total_ms,
        "steal_stealing_ms": stealing.total_ms,
        "steal_stolen_rows": float(stealing.stolen_rows),
    }
    return rows, metrics
