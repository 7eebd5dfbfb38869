"""One measured iteration of a workload, in a fresh process.

``run.py`` starts ``python perfbench/iteration.py '<job json>' <result path>``
once per iteration, so every iteration pays interpreter start, imports and
engine or server construction (its set-up) before the first timed call.
The job names the workload, the program seed, the cache directory, the
worker count and whether to trace; ``setup_only`` stops at the first
timed call (tests also shrink ``scale`` and ``requests``).  The result file receives one JSON
object: the monotonic time of the first timed call, the timed wall and
CPU time, operation counts, the output digest and, when traced, the layer
ledger.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Experiments each experiment workload runs, through ``REGISTRY``.
EXPERIMENTS = {
    "paper-cold": ("table1",),
    "paper-warm": ("table1",),
    "sweep-pooled": ("fig4", "fig9"),
}

#: Closed-loop serving stream.  16384 requests take about 5 s, long
#: enough to average out second-scale swings in host speed, and put 163
#: samples beyond p99.  A seed pool of 64 (the bench default is 4) makes
#: 768 distinct keys, about one request in 21, so computes, cache
#: writes, cache hits and coalescing all occur.
SERVE_REQUESTS = 16384
SERVE_SEED_POOL = 64
SERVE_CONCURRENCY = 32


def digest(texts: list[str]) -> str:
    """SHA-256 over newline-joined texts (``run_bench``'s response digest)."""
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(parent, name))
        for parent, _, names in os.walk(root)
        for name in names
    )


def _cpu_s() -> float:
    """User+sys CPU of this process and its reaped children so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _quality(reports) -> dict:
    """Table I's time-diff and overhead columns, averaged over the studies."""
    for report in reports:
        if report.exp_id == "table1":
            m = report.metrics
            studies = ("cc", "spmm", "scale_free_spmm")
            return {
                "slowdown_pct": sum(m[f"{s}_time_diff"] for s in studies) / 3,
                "overhead_pct": sum(m[f"{s}_overhead"] for s in studies) / 3,
            }
    return {}


def run_experiments(job: dict, recorder) -> dict:
    """Render ``EXPERIMENTS[workload]`` once through the public registry."""
    from repro.engine import aggregate_stats, shutdown_engines
    from repro.experiments import REGISTRY, ExperimentConfig
    from repro.workloads.suite import DEFAULT_SCALE

    config = ExperimentConfig(
        scale=job.get("scale", DEFAULT_SCALE),
        seed=job["seed"],
        workers=job["workers"],
        cache_dir=job["cache_dir"],
    )
    config.engine()  # engine construction counts as set-up, not timed work
    if job.get("setup_only"):
        return {"t_first": time.monotonic()}
    if recorder is not None:
        from spans import install

        install(recorder)
    reports, texts, failed = [], [], 0
    t_first = time.monotonic()
    cpu_start = _cpu_s()
    start = time.perf_counter()
    root = recorder.open_root() if recorder is not None else None
    for exp_id in EXPERIMENTS[job["workload"]]:
        try:
            report = REGISTRY[exp_id](config)
            texts.append(report.render())
            reports.append(report)
        except Exception:  # noqa: BLE001 - a raise is a counted failure
            traceback.print_exc()
            texts.append(f"{exp_id}: raised")
            failed += 1
    if recorder is not None:
        recorder.close_root()
    wall_s = time.perf_counter() - start
    stats = aggregate_stats()
    shutdown_engines()  # reaps the pool workers, so their CPU counts
    return {
        "t_first": t_first,
        "wall_s": wall_s,
        "cpu_s": _cpu_s() - cpu_start,
        "attempted": len(EXPERIMENTS[job["workload"]]),
        "failed": failed,
        "digest": digest(texts),
        "quality": _quality(reports),
        "degraded": bool(stats["degraded"]),
        "counters": {
            f"engine.{key}": float(stats[key])
            for key in ("retries", "timeouts", "quarantined", "degraded")
        },
        "root": root,
    }


def run_serve(job: dict, recorder) -> dict:
    """Drive one in-process ``TuningServer`` closed-loop over the stream."""
    import asyncio

    from repro.serve.loadgen import TrafficSpec, drive, generate_traffic
    from repro.serve.server import ServeConfig, TuningServer

    spec = TrafficSpec(
        n_requests=job.get("requests", SERVE_REQUESTS),
        seed=job["seed"],
        seed_pool=SERVE_SEED_POOL,
    )
    requests = [timed.request for timed in generate_traffic(spec)]
    server = TuningServer(
        ServeConfig(cache_dir=job["cache_dir"], n_shards=16, max_batch=32)
    )
    if recorder is not None:
        from spans import install

        install(recorder)

    async def stream() -> dict:
        async with server:
            t_first = time.monotonic()
            if job.get("setup_only"):
                return {"t_first": t_first}
            cpu_start = _cpu_s()
            start = time.perf_counter()
            root = recorder.open_root() if recorder is not None else None
            outcomes = await drive(server, requests, concurrency=SERVE_CONCURRENCY)
            if recorder is not None:
                recorder.close_root()
            wall_s = time.perf_counter() - start
            return {
                "t_first": t_first,
                "wall_s": wall_s,
                "cpu_s": _cpu_s() - cpu_start,
                "outcomes": outcomes,
                "root": root,
                "stats": server.stats(),
            }

    run = asyncio.run(stream())
    if job.get("setup_only"):
        return run
    answered = [o for o in run["outcomes"] if not isinstance(o, BaseException)]
    for outcome in run["outcomes"]:
        if isinstance(outcome, BaseException):
            print(f"request failed: {outcome!r}", file=sys.stderr)
    stats = run["stats"]
    return {
        "t_first": run["t_first"],
        "wall_s": run["wall_s"],
        "cpu_s": run["cpu_s"],
        "attempted": len(requests),
        "failed": len(requests) - len(answered),
        "digest": digest([served.response.canonical_json() for served in answered]),
        "latencies_ms": [served.latency_ms for served in answered],
        "quality": {},
        "degraded": False,
        "counters": {
            "serve.computed": float(stats["computed"]),
            "serve.hit_rate": float(stats["hit_rate"]),
            "serve.coalesce_ratio": stats["coalesced"] / max(stats["requests"], 1),
            **{
                f"serve.{key}": float(stats[key])
                for key in ("shed", "errors", "retries", "stale")
            },
        },
        "root": run["root"],
    }


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    out_path = argv[2]
    sys.path.insert(0, str(SRC))
    recorder = None
    if job["trace"]:
        from spans import COUNTERS, LAYER_METRICS, Recorder, ledger

        recorder = Recorder()
    bytes_before = _tree_bytes(job["cache_dir"])
    if job["workload"] == "serve-stream":
        result = run_serve(job, recorder)
    else:
        result = run_experiments(job, recorder)
    result["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        layers = ledger(recorder.spans, result.pop("root"), LAYER_METRICS)
        layers.update({name: recorder.counters.get(name, 0.0) for name in COUNTERS})
        layers["engine.cache_bytes_written"] = float(
            _tree_bytes(job["cache_dir"]) - bytes_before
        )
        result["layers"] = layers
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
