"""The repository benchmark: four workloads, measured from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 3 --seconds 15 --trace 0

Each iteration is a fresh ``perfbench/iteration.py`` process, so set-up
(interpreter start, imports, engine or server construction) is measured
on every iteration.  Iterations repeat until ``--seconds`` have passed
(at least ``MIN_ITERATIONS``), and every metric is the median over them;
``setup_s`` also counts ``PROBES_PER_ITERATION`` processes after each
iteration that stop at the first timed call.
Every output is checked against the digests in ``digests.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
untraced iterations, then one traced iteration with layer spans, and
reports the per-layer ledger and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from iteration import EXPERIMENTS, SERVE_REQUESTS, SRC

sys.path.insert(0, str(SRC))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("paper-cold", "paper-warm", "serve-stream", "sweep-pooled")
WORKERS = {"paper-cold": 1, "paper-warm": 1, "serve-stream": 1, "sweep-pooled": 2}
OPERATIONS = {**{w: len(e) for w, e in EXPERIMENTS.items()}, "serve-stream": SERVE_REQUESTS}
#: Which recorded digest table checks a workload's output.
DIGEST_KEY = {
    "paper-cold": "table1",
    "paper-warm": "table1",
    "serve-stream": "serve",
    "sweep-pooled": "fig4+fig9",
}
MIN_ITERATIONS = 3
#: Processes started after each iteration that stop at the first timed
#: call, so the set-up median rests on many samples spread over the run.
PROBES_PER_ITERATION = 2
#: Time a run may take beyond ``--seconds``: the iteration under way when
#: they end, its probes and, with ``--trace 1``, the traced passes.
RUN_ALLOWANCE_S = 150.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
#: p99 is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


# -- pure helpers (unit-tested) -------------------------------------------------


def program_seed(seed: int, recorded: list[int]) -> int:
    """The seed the program receives: *seed* if recorded, else seed mod 16."""
    return seed if seed in recorded else seed % 16


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q*-th percentile of *n*."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(samples: list[float], q: float) -> float | None:
    """``loadgen.percentile``, or ``None`` with fewer than 10 samples beyond."""
    if samples_beyond(len(samples), q) < TAIL_SAMPLES:
        return None
    from repro.serve.loadgen import percentile as nearest_rank

    return nearest_rank(samples, q)


def check_iteration(result: dict | None, expected: str | None, attempted: int) -> tuple[int, list[str]]:
    """Failed operations of one iteration, and why.

    A missing result (the process failed) fails every operation; so does
    a degraded pool.  Otherwise raised experiments and failed requests
    count, and a digest mismatch fails every operation the digest covers.
    """
    if result is None:
        return attempted, ["iteration process failed"]
    problems = []
    failed = result["failed"]
    if result["failed"]:
        problems.append(f"{result['failed']} operation(s) raised or were refused")
    if result["degraded"]:
        problems.append("process pool degraded to serial")
        failed = attempted
    if result["digest"] != expected:
        problems.append(
            f"output digest {result['digest'][:12]} != recorded {str(expected)[:12]}"
        )
        failed = attempted
    return failed, problems


# -- running iterations -------------------------------------------------------


class Runner:
    """Starts iteration processes and keeps the run's tallies."""

    def __init__(
        self, workload: str, seed: int, expected: str | None, work: Path, seconds: float
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.work = work
        #: Every child must end by then; later ones are killed and fail.
        self.deadline = time.monotonic() + seconds + RUN_ALLOWANCE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._dirs = 0
        self.shared_cache = self._new_dir()

    def _new_dir(self) -> str:
        self._dirs += 1
        return str(self.work / f"cache-{self._dirs}")

    def cache_dir(self) -> str:
        """paper-warm shares the prefilled cache; every other pass starts empty."""
        return self.shared_cache if self.workload == "paper-warm" else self._new_dir()

    def spawn(self, **overrides) -> tuple[dict | None, str]:
        """One iteration process: its result plus set-up time and warnings."""
        job = {
            "workload": self.workload,
            "seed": self.seed,
            "cache_dir": self.cache_dir(),
            "workers": WORKERS[self.workload],
            "trace": False,
            **overrides,
        }
        out_path = self.work / f"result-{time.monotonic_ns()}.json"
        launched = time.monotonic()
        remaining = self.deadline - launched
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "iteration.py"), json.dumps(job), str(out_path)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate()
            stderr += "\niteration timed out"
        if proc.returncode != 0 or not out_path.exists():
            return None, stderr
        result = json.loads(out_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["t_first"] - launched
        result["warnings"] = sum("Warning:" in line for line in stderr.splitlines())
        return result, stderr

    def iterate(self, **overrides) -> dict | None:
        """One checked iteration; failures are tallied, not raised."""
        result, stderr = self.spawn(**overrides)
        attempted = result["attempted"] if result else OPERATIONS[self.workload]
        failed, problems = check_iteration(result, self.expected, attempted)
        self.attempted += attempted
        self.failed += failed
        if problems:
            tail = stderr.strip().splitlines()[-5:]
            self.problems.extend(problems + [f"  stderr: {line}" for line in tail])
        return result

    def measure(self, seconds: float) -> tuple[list[dict], list[float]]:
        """Untraced iterations until *seconds* pass (at least ``MIN_ITERATIONS``).

        Returns the iteration results and the set-up times of the
        iterations plus ``PROBES_PER_ITERATION`` probe processes after
        each.  One probe before the first iteration is discarded: it pays
        the file-cache misses of a cold start.
        """
        self.setup_probes(1)
        results, setups = [], []
        start = time.monotonic()
        while len(results) < MIN_ITERATIONS or time.monotonic() - start < seconds:
            result = self.iterate()
            if result is None:
                break
            results.append(result)
            setups += [result["setup_s"]] + self.setup_probes(PROBES_PER_ITERATION)
        return results, setups

    def setup_probes(self, count: int) -> list[float]:
        probes = [self.spawn(setup_only=True)[0] for _ in range(count)]
        return [p["setup_s"] for p in probes if p is not None]


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def report_end_to_end(workload: str, results: list[dict], setup_s: float, runner: Runner) -> dict:
    """Print every end-to-end metric by name and unit; return the gated ones."""
    metrics = {name: statistics.median(r[name] for r in results) for name in END_TO_END}
    metrics["setup_s"] = setup_s
    rows = [(name, metrics[name], unit) for name, unit in END_TO_END.items()]
    rows.append(("error_ratio", runner.failed / max(runner.attempted, 1), "ratio"))
    if workload == "serve-stream":
        latencies = [x for r in results for x in r["latencies_ms"]]
        rows.append(("throughput_rps", statistics.median(r["attempted"] / r["wall_s"] for r in results), "1/s"))
        p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
        rows.append(("latency_p50_ms", p50, "ms"))
        rows.append(("latency_p99_ms", p99, "ms"))
    if results and results[0]["quality"]:
        for name in ("slowdown_pct", "overhead_pct"):
            rows.append((name, results[0]["quality"][name], "%"))
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:16s} {shown:>12s} {unit}")
    if workload == "serve-stream":
        print(
            f"  latency samples {len(latencies)}, "
            f"{samples_beyond(len(latencies), 99)} beyond p99 (needs {TAIL_SAMPLES})"
        )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    seed = program_seed(args.seed, [int(s) for s in recorded["seeds"]])
    expected = recorded["seeds"].get(str(seed), {}).get(DIGEST_KEY[args.workload])
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traced = serial = None
    try:
        runner = Runner(args.workload, seed, expected, work, args.seconds)
        if args.workload == "paper-warm":
            runner.iterate()  # the untimed cold pass that fills the shared cache
        results, setups = runner.measure(args.seconds)
        if args.trace and results:
            shm_before = shm_segments()
            traced = runner.iterate(trace=True)
            shm_left = len(shm_segments() - shm_before)
            if traced is not None and WORKERS[args.workload] > 1:
                serial = runner.iterate(trace=True, workers=1)
                if serial is not None and serial["digest"] != traced["digest"]:
                    runner.failed += OPERATIONS[args.workload]
                    runner.problems.append("pooled output differs from the serial pass")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(
        f"workload {args.workload}  seed {args.seed} (program seed {seed})  "
        f"iterations {len(results)}  set-up probes {len(setups) - len(results)}  "
        f"trace {args.trace}"
    )
    for name in ("wall_s", "cpu_s"):
        print(f"  {name} per iteration: " + " ".join(f"{r[name]:.3f}" for r in results))
    print("  setup_s per process: " + " ".join(f"{x:.3f}" for x in setups))
    for line in runner.problems:
        print(f"  FAILED: {line}")
    correct = runner.failed == 0 and bool(results) and (not args.trace or traced is not None)
    metrics = {}
    if results:
        e2e = report_end_to_end(args.workload, results, statistics.median(setups), runner)
        if args.trace and traced is not None:
            layers = dict(traced["layers"])
            layers.update(traced["counters"])
            layers["engine.stderr_warnings"] = float(traced["warnings"])
            layers["engine.shm_left"] = float(shm_left)
            layers["engine.pool_speedup_vs_serial"] = (
                serial["wall_s"] / traced["wall_s"] if serial is not None else 1.0
            )
            layers["trace.wall_ms"] = traced["wall_s"] * 1e3
            layers["trace.overhead_ms"] = (traced["wall_s"] - e2e["wall_s"]) * 1e3
            spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            for entry in spec["per_layer"]:
                value = layers.get(entry["name"], 0.0)
                metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
                print(f"  {entry['name']:32s} {value:14.6g} {entry['unit']}")
        else:
            metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
