"""Record the output digests ``run.py`` checks every iteration against.

Usage (from the repository root, on the commit whose outputs are the
reference)::

    python3 perfbench/record_digests.py

For every recorded seed it renders ``table1`` and ``fig4`` + ``fig9``
serially through ``REGISTRY`` (warm and pooled runs must match these),
and takes ``run_bench``'s response digest for the serving stream.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from iteration import SERVE_REQUESTS, SERVE_SEED_POOL, SRC, run_experiments

HERE = Path(__file__).resolve().parent
#: Seeds 0-15 are the workload seeds; 1009 is held out for checking claims.
WORKLOAD_SEEDS = list(range(16))
HELD_OUT_SEED = 1009


def record(seed: int) -> dict:
    from repro.serve.bench import run_bench
    from repro.serve.loadgen import TrafficSpec

    def experiments(workload: str) -> str:
        job = {"workload": workload, "seed": seed, "workers": 1, "cache_dir": None}
        return run_experiments(job, None)["digest"]

    with tempfile.TemporaryDirectory(dir=HERE) as cache_dir:
        serve = run_bench(
            TrafficSpec(n_requests=SERVE_REQUESTS, seed=seed, seed_pool=SERVE_SEED_POOL),
            cache_dir=cache_dir,
            workers=1,
            warmup=False,
        )
    return {
        "table1": experiments("paper-cold"),
        "fig4+fig9": experiments("sweep-pooled"),
        "serve": serve["digest"],
    }


def main() -> int:
    sys.path.insert(0, str(SRC))
    seeds = {}
    for seed in WORKLOAD_SEEDS + [HELD_OUT_SEED]:
        seeds[str(seed)] = record(seed)
        print(f"seed {seed}: {seeds[str(seed)]}", flush=True)
    out = {
        "workload_seeds": WORKLOAD_SEEDS,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": seeds,
    }
    (HERE / "digests.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
