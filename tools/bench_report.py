#!/usr/bin/env python
"""Run the benchmark suite and emit a ``BENCH_<date>.json`` trajectory point.

The CI ``benchmarks`` job (and anyone locally) runs::

    python tools/bench_report.py --out-dir bench-out

which

1. runs ``pytest benchmarks/ -q`` (at the conftest's ``BENCH_SCALE``) with
   pytest-benchmark JSON output and the engine's counter dump enabled,
2. distills it into ``BENCH_<YYYY-MM-DD>.json``: per-benchmark wall-clock,
   the engine's cache hit rate, worker count and computed evaluations,
   and the batched-vs-scalar oracle sweep speedup (``sweep_speedup``;
   docs/PERFORMANCE.md), and
3. when a checked-in baseline exists (``benchmarks/BENCH_BASELINE.json``
   by default), fails with exit code 2 if any benchmark's mean regressed
   by more than ``--max-regression`` (default 25%), and
4. records an observability trace for the Figure 3 pipeline
   (``OBS_TRACE_<date>.json`` next to the report, skippable with
   ``--no-obs-trace``) so every benchmark artifact ships with the
   span/metric breakdown that explains it (docs/OBSERVABILITY.md).

With ``--serving``, runs the tuning-service benchmark instead
(``python -m repro.serve bench``; docs/SERVING.md), writes
``SERVE_<date>.json``, and gates against
``benchmarks/SERVE_BASELINE.json``: throughput regressing more than
``--max-regression`` below baseline fails, as does a p99 latency blowout
past ``--p99-factor`` times baseline.  As with the pytest gate, a
baseline recorded at a different worker width skips the gate instead of
comparing incomparable numbers.

Exit codes: 0 OK, 1 benchmark suite failed, 2 regression detected,
3 degraded run (the engine's process pool permanently fell back to
serial — the timings measured something other than the configured
``workers``, so the report cannot be trusted as a trajectory point).  A
failed trace recording warns but never fails the job.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_BASELINE.json"
DEFAULT_SERVE_BASELINE = REPO_ROOT / "benchmarks" / "SERVE_BASELINE.json"


def run_benchmarks(pytest_args: list[str]) -> tuple[dict, dict, int]:
    """Run pytest-benchmark; return (benchmark json, engine stats, rc)."""
    with tempfile.TemporaryDirectory(prefix="bench-report-") as tmp:
        bench_json = Path(tmp) / "benchmark.json"
        stats_json = Path(tmp) / "engine-stats.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{REPO_ROOT / 'src'}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH")
            else str(REPO_ROOT / "src")
        )
        env["REPRO_ENGINE_STATS"] = str(stats_json)
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/",
            "-q",
            f"--benchmark-json={bench_json}",
            *pytest_args,
        ]
        print(f"$ {' '.join(cmd)}", flush=True)
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        raw = json.loads(bench_json.read_text()) if bench_json.exists() else {}
        stats = json.loads(stats_json.read_text()) if stats_json.exists() else {}
        return raw, stats, proc.returncode


def distill(raw: dict, engine_stats: dict) -> dict:
    """The trajectory point: what BENCH_<date>.json records."""
    benchmarks = []
    for bench in raw.get("benchmarks", []):
        stats = bench.get("stats", {})
        benchmarks.append(
            {
                "name": bench.get("fullname", bench.get("name", "?")),
                "mean_s": stats.get("mean"),
                "min_s": stats.get("min"),
                "stddev_s": stats.get("stddev"),
                "rounds": stats.get("rounds"),
            }
        )
    benchmarks.sort(key=lambda b: b["name"])
    commit = raw.get("commit_info", {}).get("id")
    hits = int(engine_stats.get("hits", 0))
    misses = int(engine_stats.get("misses", 0))
    computed = int(engine_stats.get("computed_evaluations", 0))
    return {
        "date": datetime.date.today().isoformat(),
        "commit": commit,
        "python": sys.version.split()[0],
        "workers": int(engine_stats.get("workers", 1)),
        "effective_workers": int(
            engine_stats.get("effective_workers", engine_stats.get("workers", 1))
        ),
        "degraded": bool(engine_stats.get("degraded", False)),
        "faults": {
            "retries": int(engine_stats.get("retries", 0)),
            "timeouts": int(engine_stats.get("timeouts", 0)),
            "quarantined": int(engine_stats.get("quarantined", 0)),
            "cache_corrupt": int(engine_stats.get("cache_corrupt", 0)),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if (hits + misses) else 0.0,
        },
        "evaluations": {"computed": computed},
        "sweep_speedup": sweep_speedup(benchmarks),
        "benchmarks": benchmarks,
    }


def sweep_speedup(benchmarks: list[dict]) -> float | None:
    """Scalar-over-batched oracle-sweep mean ratio (docs/PERFORMANCE.md).

    Pairs ``test_oracle_sweep_scalar`` with ``test_oracle_sweep_batched``
    from ``benchmarks/test_microkernels.py``; ``None`` when either is
    absent from the run (e.g. a filtered pytest invocation).
    """
    means: dict[str, float] = {}
    for bench in benchmarks:
        name, mean_s = bench["name"], bench.get("mean_s")
        if mean_s:
            if name.endswith("test_oracle_sweep_scalar"):
                means["scalar"] = mean_s
            elif name.endswith("test_oracle_sweep_batched"):
                means["batched"] = mean_s
    if "scalar" not in means or "batched" not in means:
        return None
    return means["scalar"] / means["batched"]


def record_obs_trace(out_dir: Path, date: str) -> Path | None:
    """Record ``OBS_TRACE_<date>.json`` for the fig3 pipeline.

    Runs the same experiment family the benchmarks exercise, at a small
    scale and uncached (a cache-warm run would trace nothing but hits).
    Returns the trace path, or ``None`` when recording failed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"OBS_TRACE_{date}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{REPO_ROOT / 'src'}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(REPO_ROOT / "src")
    )
    cmd = [
        sys.executable,
        "-m",
        "repro.experiments",
        "--figure",
        "fig3",
        "--scale",
        str(1 / 64),
        "--no-cache",
        "--obs-out",
        str(trace_path),
    ]
    print(f"$ {' '.join(cmd)}", flush=True)
    proc = subprocess.run(
        cmd, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL
    )
    if proc.returncode != 0 or not trace_path.exists():
        print(
            f"warning: obs trace recording failed (exit {proc.returncode}); "
            "benchmark report is unaffected",
            file=sys.stderr,
        )
        return None
    return trace_path


def check_regressions(
    report: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Benchmarks whose mean regressed past the threshold vs the baseline."""
    base_means = {
        b["name"]: b.get("mean_s")
        for b in baseline.get("benchmarks", [])
        if b.get("mean_s")
    }
    failures = []
    for bench in report["benchmarks"]:
        name, mean_s = bench["name"], bench.get("mean_s")
        base = base_means.get(name)
        if base is None or mean_s is None:
            continue
        ratio = mean_s / base
        if ratio > 1.0 + max_regression:
            failures.append(
                f"{name}: {mean_s:.4f}s vs baseline {base:.4f}s "
                f"({100 * (ratio - 1):.1f}% slower, limit "
                f"{100 * max_regression:.0f}%)"
            )
    return failures


def run_serving_bench(args: argparse.Namespace) -> int:
    """The ``--serving`` mode: run the service benchmark and gate it.

    Throughput and tail latency are gated independently: a service can
    keep its requests/sec while its p99 collapses (e.g. a batching bug
    serializing bursts), and vice versa.  Determinism and error-freedom
    are hard failures, not thresholds.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{REPO_ROOT / 'src'}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(REPO_ROOT / "src")
    )
    with tempfile.TemporaryDirectory(prefix="serve-report-") as tmp:
        report_json = Path(tmp) / "serve.json"
        cmd = [
            sys.executable,
            "-m",
            "repro.serve",
            "bench",
            "--requests-count",
            str(args.serve_requests),
            "--seed",
            str(args.serve_seed),
            "--workers",
            str(args.serve_workers),
            "--json",
            str(report_json),
        ]
        print(f"$ {' '.join(cmd)}", flush=True)
        proc = subprocess.run(
            cmd, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL
        )
        if proc.returncode != 0 or not report_json.exists():
            print(
                f"serving benchmark failed (exit {proc.returncode})",
                file=sys.stderr,
            )
            return 1
        report = json.loads(report_json.read_text())

    report["date"] = datetime.date.today().isoformat()
    report["python"] = sys.version.split()[0]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / f"SERVE_{report['date']}.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    print(
        f"serving: {report['throughput_rps']:.0f} req/s over "
        f"{report['workers']} worker(s), p50 {report['latency_p50_ms']:.2f}ms, "
        f"p99 {report['latency_p99_ms']:.2f}ms, "
        f"{100 * report['hit_rate']:.1f}% cache hit rate"
    )

    if report["errors"]:
        print(f"serving run had {report['errors']} errored request(s)", file=sys.stderr)
        return 1
    if not report["deterministic"]:
        print(
            "serving run NOT deterministic: warmup and measured passes "
            "answered different bytes",
            file=sys.stderr,
        )
        return 1

    if not args.serve_baseline.exists():
        print(f"no baseline at {args.serve_baseline}; serving gate skipped")
        return 0
    baseline = json.loads(args.serve_baseline.read_text())
    if int(baseline.get("workers", 0)) != int(report["workers"]):
        print(
            f"baseline recorded at workers={baseline.get('workers')}, this "
            f"run used workers={report['workers']}; serving gate skipped"
        )
        return 0
    failures = []
    base_rps = float(baseline["throughput_rps"])
    floor_rps = base_rps * (1.0 - args.max_regression)
    if report["throughput_rps"] < floor_rps:
        failures.append(
            f"throughput {report['throughput_rps']:.0f} req/s below "
            f"{floor_rps:.0f} (baseline {base_rps:.0f} - "
            f"{100 * args.max_regression:.0f}%)"
        )
    base_p99 = float(baseline["latency_p99_ms"])
    ceiling_p99 = base_p99 * args.p99_factor
    if report["latency_p99_ms"] > ceiling_p99:
        failures.append(
            f"p99 latency {report['latency_p99_ms']:.2f}ms above "
            f"{ceiling_p99:.2f}ms (baseline {base_p99:.2f}ms x "
            f"{args.p99_factor:g})"
        )
    if failures:
        print("serving regressions detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 2
    print(f"no serving regressions vs {args.serve_baseline}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=REPO_ROOT,
        help="where to write BENCH_<date>.json (default: repo root)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline report to gate against (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional mean-time regression (default: 0.25)",
    )
    parser.add_argument(
        "--no-obs-trace",
        action="store_true",
        help="skip recording the OBS_TRACE_<date>.json observability trace",
    )
    parser.add_argument(
        "--serving",
        action="store_true",
        help="run the tuning-service benchmark instead of the pytest suite",
    )
    parser.add_argument(
        "--serve-baseline",
        type=Path,
        default=DEFAULT_SERVE_BASELINE,
        help=f"serving baseline to gate against (default: {DEFAULT_SERVE_BASELINE})",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        help="server processes sharing the benchmark cache (default: 2)",
    )
    parser.add_argument(
        "--serve-requests",
        type=int,
        default=256,
        help="traffic stream length for --serving (default: 256)",
    )
    parser.add_argument(
        "--serve-seed",
        type=int,
        default=2017,
        help="traffic seed for --serving (default: 2017)",
    )
    parser.add_argument(
        "--p99-factor",
        type=float,
        default=4.0,
        help="allowed p99 latency blowout vs baseline for --serving (default: 4.0)",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (after --)",
    )
    args = parser.parse_args(argv)

    if args.serving:
        return run_serving_bench(args)

    raw, engine_stats, rc = run_benchmarks(args.pytest_args)
    if rc != 0:
        print(f"benchmark suite failed (pytest exit {rc})", file=sys.stderr)
        return 1

    report = distill(raw, engine_stats)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / f"BENCH_{report['date']}.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    cache = report["cache"]
    print(
        f"engine: workers={report['workers']} "
        f"(effective {report['effective_workers']}), "
        f"cache {cache['hits']} hit(s) / "
        f"{cache['misses']} miss(es) ({100 * cache['hit_rate']:.1f}% hit rate)"
    )
    faults = report["faults"]
    if any(faults.values()):
        print(
            f"engine faults recovered: {faults['retries']} retried, "
            f"{faults['timeouts']} timeout(s), {faults['quarantined']} "
            f"quarantine(s), {faults['cache_corrupt']} corrupt cache entr(ies)"
        )
    print(f"evaluations: {report['evaluations']['computed']} computed")
    if report["sweep_speedup"] is not None:
        print(f"oracle sweep: batched {report['sweep_speedup']:.1f}x faster than scalar")

    if not args.no_obs_trace:
        trace_path = record_obs_trace(args.out_dir, report["date"])
        if trace_path is not None:
            print(f"wrote {trace_path}")

    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        base_workers = int(baseline.get("workers", 1))
        if base_workers != report["workers"]:
            # Wall-clock against a different fan-out width is not a
            # regression signal (pool startup dominates at bench scale);
            # the workers-matrix legs still publish their reports.
            print(
                f"baseline recorded at workers={base_workers}, this run "
                f"used workers={report['workers']}; regression gate skipped"
            )
            baseline = None
        if baseline is not None:
            failures = check_regressions(report, baseline, args.max_regression)
            if failures:
                print("benchmark regressions detected:", file=sys.stderr)
                for failure in failures:
                    print(f"  - {failure}", file=sys.stderr)
                return 2
            print(f"no regressions vs {args.baseline}")
    else:
        print(f"no baseline at {args.baseline}; regression gate skipped")

    if report["degraded"]:
        print(
            f"benchmark run DEGRADED: configured workers={report['workers']} "
            f"but the pool fell back to effective_workers="
            f"{report['effective_workers']} — timings do not measure the "
            "configured parallelism; failing the gate",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
