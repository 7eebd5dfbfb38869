#!/usr/bin/env python
"""Digest the spans of a fixed set of simulated timelines.

A refactor of the simulator (the Timeline store, a hetero kernel, a cost
model) should leave every recorded span alone.  This script builds a
fixed set of timelines at 1/64 scale and prints two SHA-256 digests:

* ``spans`` over every span's resource, label, start and duration (exact
  float hex) and the Python type of both numbers;
* ``totals`` over every timeline's ``total_ms`` value.

Run it on two checkouts and compare the lines:

    PYTHONPATH=src python tools/span_digest.py

The timelines: cc and spmm on all 15 datasets at thresholds
0/13/50/87/100; hh full (four cutoffs, one above the top density) and
sampled on the scale-free subset; multiway cc and spmm at p = 3 and 8,
shared and dedicated, with the NaiveStatic, all-zero and all-100
vectors; ``simulate_dynamic_spmm`` at four chunk sizes;
``DynamicRebalance(rounds=4, steal=True)`` on spmm; dense-mm with
n in {0, 1, 7, 64}.
"""

from __future__ import annotations

import hashlib

from repro import (
    CcProblem,
    DenseMmProblem,
    HhCpuProblem,
    MultiwayCcProblem,
    MultiwaySpmmProblem,
    SpmmProblem,
    cluster_testbed,
    dataset_names,
    load_dataset,
    paper_testbed,
    scalefree_subset_names,
)
from repro.core.framework import SamplingPartitioner
from repro.core.search import RaceCoarseSearch
from repro.hetero.dynamic import simulate_dynamic_spmm
from repro.hetero.dynamic_rebalance import DynamicRebalance

SCALE = 1 / 64
THRESHOLDS = (0.0, 13.0, 50.0, 87.0, 100.0)


def timelines():
    """Yield ``(tag, timeline)`` for the fixed set, in a stable order."""
    machine = paper_testbed(time_scale=SCALE)
    for name in dataset_names():
        ds = load_dataset(name, scale=SCALE)
        cc = CcProblem(ds.as_graph(), machine, name=name)
        spmm = SpmmProblem(ds.matrix, machine, name=name)
        for t in THRESHOLDS:
            yield f"cc/{name}/{t}", cc.timeline(t)
            yield f"spmm/{name}/{t}", spmm.timeline(t)
    for name in scalefree_subset_names():
        hh = HhCpuProblem(load_dataset(name, scale=SCALE).matrix, machine, name=name)
        grid = hh.threshold_grid()
        for t in (0.0, float(grid[grid.size // 2]), float(grid[-1]), float(grid[-1]) + 5.0):
            yield f"hh/{name}/{t}", hh.timeline(t)
        sample = hh.sample(hh.default_sample_size(), rng=3)
        sgrid = sample.threshold_grid()
        for t in (0.0, float(sgrid[sgrid.size // 2]), float(sgrid[-1]) + 1.0):
            yield f"hh-sample/{name}/{t}", sample.timeline(t)
    for name in ("cant", "web-BerkStan", "netherlands_osm", "delaunay_n22"):
        ds = load_dataset(name, scale=SCALE)
        for p in (3, 8):
            for topology in ("shared", "dedicated"):
                cluster = cluster_testbed(
                    n_gpus=p - 1, time_scale=SCALE, topology=topology, mixed=p == 8
                )
                for problem in (
                    MultiwayCcProblem(ds.as_graph(), cluster, name=name),
                    MultiwaySpmmProblem(ds.matrix, cluster, name=name),
                ):
                    tag = f"{type(problem).__name__}/{name}/{p}/{topology}"
                    yield f"{tag}/naive", problem.timeline(problem.naive_static_thresholds())
                    yield f"{tag}/zero", problem.timeline([0.0] * problem.n_cuts)
                    yield f"{tag}/full", problem.timeline([100.0] * problem.n_cuts)
        spmm = SpmmProblem(ds.matrix, machine, name=name)
        n = ds.matrix.n_rows
        for chunk_rows in (1, 7, max(1, n // 16), n):
            yield f"dynamic/{name}/{chunk_rows}", simulate_dynamic_spmm(spmm, chunk_rows).timeline
        rebalance = DynamicRebalance(
            SamplingPartitioner(RaceCoarseSearch(), rng=7), rounds=4, steal=True
        )
        yield f"rebalance/{name}", rebalance.run(spmm).timeline
    for n in (0, 1, 7, 64):
        dense = DenseMmProblem(n, machine)
        for t in THRESHOLDS:
            yield f"dense/{n}/{t}", dense.timeline(t)


def main() -> None:
    spans = hashlib.sha256()
    totals = hashlib.sha256()
    count = 0
    for tag, tl in timelines():
        count += 1
        spans.update(tag.encode())
        for s in tl.spans:
            fields = (
                s.resource,
                s.label,
                float(s.start_ms).hex(),
                float(s.duration_ms).hex(),
                type(s.start_ms).__name__,
                type(s.duration_ms).__name__,
            )
            spans.update("|".join(fields).encode())
        totals.update(f"{tag}:{float(tl.total_ms).hex()}".encode())
    print("timelines", count)
    print("spans", spans.hexdigest())
    print("totals", totals.hexdigest())


if __name__ == "__main__":
    main()
