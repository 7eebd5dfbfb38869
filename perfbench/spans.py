"""Layer spans recorded from outside the program, and the ledger over them.

A traced iteration wraps the public entry point of each layer (the
``LAYERS`` table) in a timing wrapper installed from this file; ``src/``
is not modified.  Spans carry name, start, end and parent, live in
memory, and are turned into per-layer numbers once, at the end.

Ledger arithmetic: a span's *self time* is its duration minus the part
of its interval covered by its direct children.  Spans are named after
their layer's ``_ms`` metric, which is the summed self time of its
spans.  ``unattributed_ms`` is the self time of the root span (the whole
timed section), so the layer metrics plus ``unattributed_ms`` add up to
the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from importlib import import_module


class Recorder:
    """Spans of one traced process, kept in memory.

    ``spans`` holds ``[name, start_s, end_s, parent]`` lists; ``parent``
    is the index of the enclosing span on the same thread, or the root
    span for work started on another thread (the serving compute thread)
    while the root is open.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def open_root(self, name: str = "workload") -> int:
        self._root = self.open(name)
        return self._root

    def close_root(self) -> None:
        self.close(self._root)
        self._root = None

    def wrap(self, fn, name: str, count=None):
        """*fn* timed as span *name*; ``count(args, result)`` feeds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[key] += value
            return result

        return traced


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            clipped = (max(start, p_start), min(end, p_end))
            if clipped[1] > clipped[0]:
                children[parent].append(clipped)
    return [
        (end - start) - _union_length(children[i])
        for i, (_, start, end, _) in enumerate(spans)
    ]


def ledger(spans: list[list], root: int, metrics: list[str]) -> dict[str, float]:
    """Summed self ms per span name, plus the root's as ``unattributed_ms``.

    Only spans under *root* count; a metric with no span reports 0.
    """
    inside = _descendants(spans, root)
    own = self_times(spans)
    totals = {name: 0.0 for name in metrics}
    for i in inside:
        totals[spans[i][0]] += own[i] * 1e3
    totals["unattributed_ms"] = own[root] * 1e3
    return totals


def _descendants(spans: list[list], root: int) -> list[int]:
    under = {root}
    for i, span in enumerate(spans):
        if span[3] in under:
            under.add(i)
    under.discard(root)
    return sorted(under)


# -- the layer table -----------------------------------------------------------


def _thresholds(args, result):
    return {"hetero.thresholds_priced": len(args[1])}


def _oracle(args, result):
    return {"core.oracle_evaluations": result.n_evaluations}


def _estimate(args, result):
    return {"core.search_evaluations": sum(s.n_evaluations for s in result.searches)}


def _cache_get(args, result):
    return {"engine.cache_misses" if result is None else "engine.cache_hits": 1}


def _synth(args, result):
    return {"workloads.datasets": 1}


#: (module, attribute path, span name = self-time metric, counter hook).
#: Module-level functions are replaced in every loaded module that
#: imported them by name, so ``from x import f`` copies are traced too.
LAYERS = [
    ("repro.workloads.suite", "load_dataset", "workloads.synth_ms", _synth),
    ("repro.workloads.dataset", "Dataset.as_graph", "graphs.build_ms", None),
    ("repro.hetero.cc", "CcProblem.__init__", "hetero.precompute_ms.cc", None),
    ("repro.hetero.spmm", "SpmmProblem.__init__", "hetero.precompute_ms.spmm", None),
    ("repro.hetero.hh_cpu", "HhCpuProblem.__init__", "hetero.precompute_ms.hh", None),
    ("repro.hetero.cc", "CcProblem.evaluate_many", "hetero.evaluate_many_ms", _thresholds),
    ("repro.hetero.spmm", "SpmmProblem.evaluate_many", "hetero.evaluate_many_ms", _thresholds),
    ("repro.hetero.hh_cpu", "HhCpuProblem.evaluate_many", "hetero.evaluate_many_ms", _thresholds),
    ("repro.core.oracle", "exhaustive_oracle", "core.oracle_ms", _oracle),
    ("repro.core.framework", "SamplingPartitioner.estimate", "core.estimate_ms", _estimate),
    ("repro.core.baselines", "compare_with_baselines", "core.baselines_ms", None),
    ("repro.engine.cache", "ResultCache.get", "engine.cache_get_ms", _cache_get),
    ("repro.engine.cache", "ResultCache.put", "engine.cache_put_ms", None),
    ("repro.serve.api", "tune", "serve.tune_ms", None),
    ("repro.serve.api", "build_problem", "serve.build_problem_ms", None),
    ("repro.engine.sharded", "ShardedResultCache.get", "serve.cache_get_ms", None),
]

#: Every layer's self-time metric, in ledger order (``engine.pool_map_ms``
#: is installed separately: only pooled maps are spans).
LAYER_METRICS = list(dict.fromkeys(name for _, _, name, _ in LAYERS)) + [
    "engine.pool_map_ms"
]

#: Counters the wrappers feed (0 when a workload never reaches the layer).
COUNTERS = [
    "workloads.datasets",
    "hetero.thresholds_priced",
    "core.oracle_evaluations",
    "core.search_evaluations",
    "engine.cache_hits",
    "engine.cache_misses",
    "engine.pool_tasks",
]


def _wrap_pool_map(recorder: Recorder, original):
    traced = recorder.wrap(original, "engine.pool_map_ms")

    @functools.wraps(original)
    def pool_map(self, fn, payloads):
        if self.workers <= 1:
            return original(self, fn, payloads)
        payloads = list(payloads)
        recorder.counters["engine.pool_tasks"] += len(payloads)
        return traced(self, fn, payloads)

    return pool_map


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point in *recorder* spans (process-wide)."""
    for module_name, path, name, count in LAYERS:
        module = import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, count))
            continue
        original = getattr(module, attr)
        traced = recorder.wrap(original, name, count)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, attr, None) is original
            ):
                setattr(loaded, attr, traced)
    parallel = import_module("repro.engine.parallel")
    parallel.ParallelMap.map = _wrap_pool_map(recorder, parallel.ParallelMap.map)
