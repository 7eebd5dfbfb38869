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
from repro.experiments.runner import unit_key, units
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


def _drift_payload(config: ExperimentConfig, problem_class, workload: str, tag: str, search):
    """The ramp matrix reordered into *workload*, as a problem, and two
    identically seeded partitioners; *tag* seeds them and names the problem."""
    n = max(256, int(round(32000 * config.scale)))
    gen = as_generator(stable_seed(config.seed, "ext-dynamic", tag))
    a = _order_rows(_ramp_matrix(n, gen), workload, gen)
    seed = stable_seed(config.seed, "ext-dynamic", tag, "est")
    return (
        problem_class(a, config.machine(), name=f"drift/{tag}"),
        *(SamplingPartitioner(search(), repeats=config.repeats, rng=seed) for _ in range(2)),
    )


def _drift_task(args) -> dict:
    """One workload under the static cutoff, DynamicRebalance and the oracle."""
    problem, estimator, rebalancer = args
    est = estimator.estimate(problem)
    grid = problem.threshold_grid()
    t0 = float(min(max(est.threshold, float(grid[0])), float(grid[-1])))
    bounds = round_bounds(problem.round_axis_n(), ROUNDS)
    static_ms = sum(
        problem.round_block(lo, hi).evaluate_ms(t0) for lo, hi in bounds
    )
    dynamic = DynamicRebalance(rebalancer, rounds=ROUNDS).run(problem)
    oracle_ts, oracle_ms = per_round_oracle(problem, ROUNDS)
    return {
        "t0": t0,
        "static_ms": static_ms,
        "dynamic_ms": dynamic.total_ms,
        "dynamic_ts": [float(r.thresholds[0]) for r in dynamic.rounds],
        "oracle_ts": oracle_ts,
        "oracle_ms": oracle_ms,
    }


def _steal_task(args) -> dict:
    """Spmm rounds with and without the work-stealing executor."""
    problem, plain, stealing = args
    plain = DynamicRebalance(plain, rounds=ROUNDS).run(problem)
    stealing = DynamicRebalance(stealing, rounds=ROUNDS, steal=True).run(problem)
    return {
        "plain_ms": plain.total_ms,
        "plain_stolen": int(plain.stolen_rows),
        "stealing_ms": stealing.total_ms,
        "stolen_rows": int(stealing.stolen_rows),
    }


def run(config: ExperimentConfig | None = None) -> ExperimentReport:
    config = config or ExperimentConfig()
    fields = ("scale", "seed", "repeats")
    results = units(
        config,
        _drift_task,
        [unit_key("drift", config, *fields, workload=w) for w in WORKLOADS],
        lambda i: _drift_payload(
            config, HhCpuProblem, WORKLOADS[i], WORKLOADS[i], GradientDescentSearch
        ),
        schedules=lambda r: [r["t0"]],
    )
    rows = []
    metrics: dict = {}
    gains: list[float] = []
    aboves: list[float] = []
    trajectory: ReportTable | None = None
    for workload, r in zip(WORKLOADS, results):
        static_ms, dynamic_ms, oracle_ms = r["static_ms"], r["dynamic_ms"], r["oracle_ms"]
        gain = 100.0 * (static_ms - dynamic_ms) / static_ms
        above = 100.0 * (dynamic_ms - oracle_ms) / oracle_ms
        rows.append(
            (workload, r["t0"], static_ms, dynamic_ms, oracle_ms, gain, above)
        )
        metrics[f"{workload}_static_ms"] = static_ms
        metrics[f"{workload}_dynamic_ms"] = dynamic_ms
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
                    (i, r["t0"], t, r["oracle_ts"][i])
                    for i, t in enumerate(r["dynamic_ts"])
                ),
            )

    median_gain = float(np.median(gains))
    median_above = float(np.median(aboves))
    metrics["median_gain_percent"] = median_gain
    metrics["median_above_oracle_percent"] = median_above

    (steal,) = units(
        config,
        _steal_task,
        [unit_key("drift-steal", config, *fields)],
        lambda i: _drift_payload(config, SpmmProblem, "sawtooth", "steal", RaceCoarseSearch),
    )
    steal_rows = [
        ("rounds only", steal["plain_ms"], steal["plain_stolen"]),
        ("rounds + stealing", steal["stealing_ms"], steal["stolen_rows"]),
    ]
    metrics["steal_plain_ms"] = steal["plain_ms"]
    metrics["steal_stealing_ms"] = steal["stealing_ms"]
    metrics["steal_stolen_rows"] = float(steal["stolen_rows"])

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
