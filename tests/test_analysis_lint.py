"""Tests for repro.analysis.reprolint: every rule, suppression, scoping."""

from pathlib import Path

import pytest

from repro.analysis.reprolint import RULES, lint_file, lint_paths, lint_source

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(findings):
    return [f.code for f in findings]


class TestRng001:
    def test_direct_call_flagged(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng(3).random()\n"
        )
        findings = lint_source(src, "repro/sparse/foo.py")
        assert codes(findings) == ["RNG001"]
        assert findings[0].line == 3
        assert "np.random.default_rng" in findings[0].message
        assert "as_generator" in findings[0].message

    def test_numpy_alias_flagged(self):
        src = "import numpy\ndef f():\n    return numpy.random.uniform(0, 1)\n"
        assert codes(lint_source(src, "repro/graphs/foo.py")) == ["RNG001"]

    def test_module_level_draw_is_both_rules(self):
        src = "import numpy as np\nx = np.random.default_rng(3).random()\n"
        assert codes(lint_source(src, "repro/sparse/foo.py")) == [
            "RNG002",
            "RNG001",
        ]

    def test_import_from_numpy_random_flagged(self):
        src = "from numpy.random import default_rng\n"
        findings = lint_source(src, "repro/workloads/foo.py")
        assert codes(findings) == ["RNG001"]
        assert findings[0].line == 1

    def test_rng_module_exempt(self):
        src = "import numpy as np\ng = lambda: np.random.default_rng(0)\n"
        assert lint_source(src, "src/repro/util/rng.py") == []

    def test_generator_annotation_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(gen: np.random.Generator) -> None:\n"
            "    gen.random()\n"
        )
        assert lint_source(src, "repro/workloads/foo.py") == []


class TestRng002:
    def test_global_seed_call_flagged(self):
        src = "import numpy as np\ndef f():\n    np.random.seed(0)\n"
        findings = lint_source(src, "repro/sparse/foo.py")
        # The seed() call is both an np.random.* call and state mutation.
        assert "RNG002" in codes(findings)
        rng002 = [f for f in findings if f.code == "RNG002"][0]
        assert rng002.line == 3
        assert "global RNG state" in rng002.message

    def test_module_level_generator_flagged(self):
        src = "from repro.util.rng import as_generator\nGEN = as_generator(0)\n"
        findings = lint_source(src, "repro/experiments/foo.py")
        assert codes(findings) == ["RNG002"]
        assert findings[0].line == 2
        assert "module-level RNG state" in findings[0].message

    def test_function_local_generator_ok(self):
        src = (
            "from repro.util.rng import as_generator\n"
            "def f(seed):\n"
            "    return as_generator(seed)\n"
        )
        assert lint_source(src, "repro/experiments/foo.py") == []


class TestSim001:
    def test_wall_clock_in_platform_flagged(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        findings = lint_source(src, "repro/platform/foo.py")
        assert codes(findings) == ["SIM001"]
        assert findings[0].line == 3
        assert "Timeline" in findings[0].message

    def test_from_import_alias_flagged(self):
        src = (
            "from time import perf_counter as clock\n"
            "def f():\n"
            "    return clock()\n"
        )
        findings = lint_source(src, "repro/hetero/foo.py")
        assert codes(findings) == ["SIM001"]

    def test_core_scope_included(self):
        src = "import time\nx = lambda: time.time()\n"
        assert codes(lint_source(src, "repro/core/foo.py")) == ["SIM001"]

    def test_outside_simulator_scope_ok(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert lint_source(src, "repro/experiments/__main__.py") == []


class TestAliasedImports:
    """SIM001 and RNG001 resolve names through the file's import table."""

    @pytest.mark.parametrize(
        "src, path, code",
        [
            (
                "import time as t\ndef f():\n    return t.perf_counter()\n",
                "repro/platform/foo.py",
                "SIM001",
            ),
            (
                "import datetime as dt\ndef f():\n    return dt.datetime.now()\n",
                "repro/platform/foo.py",
                "SIM001",
            ),
            (
                "import numpy as xp\ndef f():\n    return xp.random.rand()\n",
                "repro/sparse/foo.py",
                "RNG001",
            ),
            (
                "from numpy import random as npr\ndef f():\n    return npr.rand()\n",
                "repro/sparse/foo.py",
                "RNG001",
            ),
        ],
        ids=["time-as-t", "datetime-as-dt", "numpy-as-xp", "random-as-npr"],
    )
    def test_aliased_import_flagged(self, src, path, code):
        findings = lint_source(src, path)
        assert codes(findings) == [code]
        assert findings[0].line == 3


class TestUnit001:
    def test_bare_variable_flagged(self):
        src = "makespan = 4.0\n"
        findings = lint_source(src, "repro/platform/foo.py")
        assert codes(findings) == ["UNIT001"]
        assert findings[0].line == 1
        assert "'makespan'" in findings[0].message

    def test_parameter_flagged(self):
        src = "def f(elapsed):\n    return elapsed\n"
        findings = lint_source(src, "repro/util/foo.py")
        assert codes(findings) == ["UNIT001"]

    def test_dataclass_field_flagged(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class R:\n"
            "    duration: float\n"
        )
        findings = lint_source(src, "repro/platform/foo.py")
        assert codes(findings) == ["UNIT001"]
        assert findings[0].line == 4

    def test_suffixed_names_ok(self):
        src = "duration_ms = 1.0\nelapsed_s = 2.0\nlatency_us = 3.0\n"
        assert lint_source(src, "repro/platform/foo.py") == []

    def test_dimensionless_tokens_exempt(self):
        src = "runtime_ratio = 1.5\nlatency_scale = 2.0\n"
        assert lint_source(src, "repro/platform/foo.py") == []


class TestFlt001:
    def test_float_literal_comparison_flagged(self):
        src = "def f(x):\n    return x == 1.0\n"
        findings = lint_source(src, "repro/platform/foo.py")
        assert codes(findings) == ["FLT001"]
        assert findings[0].line == 2
        assert "tolerance" in findings[0].message

    def test_float_cast_comparison_flagged(self):
        src = "def f(a):\n    return float(a) != 0.5\n"
        assert codes(lint_source(src, "repro/core/foo.py")) == ["FLT001"]

    def test_int_literal_ok(self):
        src = "def f(x):\n    return x == 0\n"
        assert lint_source(src, "repro/core/foo.py") == []

    def test_ordering_comparison_ok(self):
        src = "def f(x):\n    return x <= 0.0\n"
        assert lint_source(src, "repro/core/foo.py") == []

    def test_out_of_scope_not_flagged(self):
        src = "def f(x):\n    return x == 1.0\n"
        assert lint_source(src, "repro/experiments/foo.py") == []


class TestArg001:
    def test_list_default_flagged(self):
        src = "def f(items=[]):\n    return items\n"
        findings = lint_source(src, "repro/util/foo.py")
        assert codes(findings) == ["ARG001"]
        assert findings[0].line == 1
        assert "mutable default" in findings[0].message

    def test_dict_call_default_flagged(self):
        src = "def f(*, opts=dict()):\n    return opts\n"
        assert codes(lint_source(src, "repro/util/foo.py")) == ["ARG001"]

    def test_none_default_ok(self):
        src = "def f(items=None):\n    return items or []\n"
        assert lint_source(src, "repro/util/foo.py") == []


class TestSuppressionAndPlumbing:
    def test_line_suppression(self):
        src = "import numpy as np\nx = np.random.uniform()  # reprolint: disable=RNG001\n"
        assert lint_source(src, "repro/sparse/foo.py") == []

    def test_suppress_all(self):
        src = "makespan = 1.0  # reprolint: disable=all\n"
        assert lint_source(src, "repro/platform/foo.py") == []

    def test_suppression_is_code_specific(self):
        src = "import numpy as np\nx = np.random.uniform()  # reprolint: disable=SIM001\n"
        assert codes(lint_source(src, "repro/sparse/foo.py")) == ["RNG001"]

    def test_syntax_error_reported(self):
        findings = lint_source("def broken(:\n", "repro/foo.py")
        assert codes(findings) == ["SYN001"]

    def test_findings_sorted_by_line(self):
        src = (
            "import numpy as np\n"
            "def f(xs=[]):\n"
            "    return np.random.uniform()\n"
        )
        findings = lint_source(src, "repro/sparse/foo.py")
        assert codes(findings) == ["ARG001", "RNG001"]

    def test_lint_paths_walks_tree(self, tmp_path):
        bad = tmp_path / "repro" / "platform"
        bad.mkdir(parents=True)
        (bad / "a.py").write_text("makespan = 1.0\n")
        (bad / "b.py").write_text("ok_ms = 1.0\n")
        findings = lint_paths([tmp_path])
        assert codes(findings) == ["UNIT001"]

    def test_lint_file(self, tmp_path):
        f = tmp_path / "repro" / "core"
        f.mkdir(parents=True)
        path = f / "x.py"
        path.write_text("def g(v):\n    return v == 2.5\n")
        findings = lint_file(path)
        assert codes(findings) == ["FLT001"]
        assert findings[0].path == str(path)

    def test_rule_catalog_covers_all_emitted_codes(self):
        assert {
            "RNG001",
            "RNG002",
            "SIM001",
            "UNIT001",
            "FLT001",
            "ARG001",
            "PERF001",
        } <= set(RULES)


class TestPerf001:
    """Scalar evaluate_ms inside a grid loop (docs/PERFORMANCE.md)."""

    def test_for_loop_over_grid_flagged(self):
        src = (
            "def sweep(problem, grid):\n"
            "    out = []\n"
            "    for t in grid:\n"
            "        out.append(problem.evaluate_ms(t))\n"
            "    return out\n"
        )
        findings = lint_source(src, "repro/core/foo.py")
        assert codes(findings) == ["PERF001"]
        assert findings[0].line == 4
        assert "evaluate_grid" in findings[0].message

    def test_comprehension_over_thresholds_flagged(self):
        src = (
            "def sweep(problem, thresholds):\n"
            "    return [problem.evaluate_ms(t) for t in thresholds]\n"
        )
        assert codes(lint_source(src, "repro/core/foo.py")) == ["PERF001"]

    def test_experiments_scope_included(self):
        src = (
            "import numpy as np\n"
            "def sweep(problem):\n"
            "    return {t: problem.evaluate_ms(t) for t in np.arange(0, 101)}\n"
        )
        assert codes(lint_source(src, "repro/experiments/foo.py")) == ["PERF001"]

    def test_threshold_grid_call_iterable_flagged(self):
        src = (
            "def sweep(problem):\n"
            "    for t in problem.threshold_grid():\n"
            "        problem.evaluate_ms(t)\n"
        )
        assert codes(lint_source(src, "repro/core/foo.py")) == ["PERF001"]

    def test_subscripted_grid_flagged(self):
        src = (
            "def sweep(problem, grid):\n"
            "    for t in grid[1:]:\n"
            "        problem.evaluate_ms(t)\n"
        )
        assert codes(lint_source(src, "repro/core/foo.py")) == ["PERF001"]

    def test_range_loop_not_a_grid(self):
        src = (
            "def repeats(problem, t):\n"
            "    for _ in range(5):\n"
            "        problem.evaluate_ms(t)\n"
        )
        assert lint_source(src, "repro/core/foo.py") == []

    def test_entity_loop_not_a_grid(self):
        src = (
            "def study(problems):\n"
            "    return [p.evaluate_ms(50.0) for p in problems]\n"
        )
        assert lint_source(src, "repro/experiments/foo.py") == []

    def test_single_probe_outside_loop_ok(self):
        src = (
            "def tune(problem, threshold):\n"
            "    return problem.evaluate_ms(threshold)\n"
        )
        assert lint_source(src, "repro/core/foo.py") == []

    def test_while_loop_probe_ok(self):
        src = (
            "def descend(problem, t):\n"
            "    while t > 0:\n"
            "        t -= problem.evaluate_ms(t)\n"
            "    return t\n"
        )
        assert lint_source(src, "repro/core/foo.py") == []

    def test_out_of_scope_not_flagged(self):
        src = (
            "def sweep(problem, grid):\n"
            "    return [problem.evaluate_ms(t) for t in grid]\n"
        )
        assert lint_source(src, "repro/hetero/foo.py") == []

    def test_line_suppression_honored(self):
        src = (
            "def sweep(problem, grid):\n"
            "    return [problem.evaluate_ms(t) for t in grid]  "
            "# reprolint: disable=PERF001\n"
        )
        assert lint_source(src, "repro/core/foo.py") == []

    def test_sanctioned_scalar_loops_fire_without_suppression(self):
        # The shipped scalar sweeps — evaluate_grid's scalar fallbacks
        # (the 1-D grid loop and the cut-vector row loop) — rely on their
        # line suppressions: stripping the comments must re-expose
        # exactly the expected PERF001s.
        rel = "core/problem.py"
        bare = (SRC_ROOT / rel).read_text(encoding="utf-8").replace(
            "# reprolint: disable=PERF001", "#"
        )
        hits = [
            f for f in lint_source(bare, f"repro/{rel}") if f.code == "PERF001"
        ]
        assert len(hits) == 2


class TestPerf002:
    """Scalar Timeline appends in hetero loops (docs/PERFORMANCE.md)."""

    def test_run_in_for_loop_flagged(self):
        src = (
            "def pipeline(chunks, tl):\n"
            "    for chunk in chunks:\n"
            "        tl.run('cpu', chunk.label, chunk.cost_ms)\n"
        )
        findings = lint_source(src, "repro/hetero/foo.py")
        assert codes(findings) == ["PERF002"]
        assert findings[0].line == 3
        assert "run_many" in findings[0].message

    def test_overlap_in_while_loop_flagged(self):
        src = (
            "def pipeline(stages, tl):\n"
            "    while stages:\n"
            "        tl.overlap(stages.pop())\n"
        )
        findings = lint_source(src, "repro/hetero/foo.py")
        assert codes(findings) == ["PERF002"]
        assert "overlap_many" in findings[0].message

    def test_record_in_comprehension_flagged(self):
        src = (
            "def replay(spans, timeline):\n"
            "    [timeline.record(s.resource, s.label, s.start_ms, s.duration_ms)"
            " for s in spans]\n"
        )
        assert codes(lint_source(src, "repro/hetero/foo.py")) == ["PERF002"]

    def test_timeline_attribute_receiver_flagged(self):
        src = (
            "def pipeline(self, chunks):\n"
            "    for chunk in chunks:\n"
            "        self.timeline.run('gpu', chunk.label, chunk.cost_ms)\n"
        )
        assert codes(lint_source(src, "repro/hetero/foo.py")) == ["PERF002"]

    def test_non_timeline_receiver_ok(self):
        src = (
            "def sweep(problems):\n"
            "    for p in problems:\n"
            "        p.run(50.0)\n"
        )
        assert lint_source(src, "repro/hetero/foo.py") == []

    def test_scalar_call_outside_loop_ok(self):
        src = (
            "def phase(tl, cost_ms):\n"
            "    tl.run('pcie', 'h2d', cost_ms)\n"
        )
        assert lint_source(src, "repro/hetero/foo.py") == []

    def test_batch_call_in_loop_ok(self):
        src = (
            "def pipeline(groups, tl):\n"
            "    for group in groups:\n"
            "        tl.run_many(group)\n"
        )
        assert lint_source(src, "repro/hetero/foo.py") == []

    def test_out_of_scope_not_flagged(self):
        src = (
            "def view(spans, tl):\n"
            "    for s in spans:\n"
            "        tl.run(s.resource, s.label, s.duration_ms)\n"
        )
        assert lint_source(src, "repro/obs/foo.py") == []

    def test_line_suppression_honored(self):
        src = (
            "def place(chunks, tl):\n"
            "    for chunk in chunks:\n"
            "        tl.run('cpu', chunk.label, chunk.cost_ms)  "
            "# reprolint: disable=PERF002 -- placement consumes the cursor\n"
        )
        assert lint_source(src, "repro/hetero/foo.py") == []

    def test_shipped_hetero_tree_is_clean(self):
        # The hetero kernels were migrated to the batch APIs; no shipped
        # loop should need a PERF002 suppression today.
        findings = [
            f
            for f in lint_paths([SRC_ROOT / "hetero"])
            if f.code == "PERF002"
        ]
        assert findings == []


class TestEng001:
    """Broad except in engine code must surface the failure (docs/ANALYSIS.md)."""

    def test_swallowed_exception_flagged(self):
        src = (
            "def submit(pool, task):\n"
            "    try:\n"
            "        return pool.submit(task)\n"
            "    except Exception:\n"
            "        return None\n"
        )
        findings = lint_source(src, "repro/engine/foo.py")
        assert codes(findings) == ["ENG001"]
        assert findings[0].line == 4
        assert "swallows" in findings[0].message

    def test_bare_except_flagged(self):
        src = (
            "def poll(fut):\n"
            "    try:\n"
            "        return fut.result()\n"
            "    except:  # noqa: E722\n"
            "        pass\n"
        )
        assert codes(lint_source(src, "repro/engine/foo.py")) == ["ENG001"]

    def test_broad_tuple_flagged(self):
        src = (
            "def poll(fut):\n"
            "    try:\n"
            "        return fut.result()\n"
            "    except (ValueError, Exception):\n"
            "        return None\n"
        )
        assert codes(lint_source(src, "repro/engine/foo.py")) == ["ENG001"]

    def test_reraise_ok(self):
        src = (
            "def poll(fut):\n"
            "    try:\n"
            "        return fut.result()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert lint_source(src, "repro/engine/foo.py") == []

    def test_record_helper_ok(self):
        src = (
            "def poll(run, fut, i):\n"
            "    try:\n"
            "        return fut.result()\n"
            "    except Exception as exc:\n"
            "        run.record_failure(i, exc)\n"
            "        return None\n"
        )
        assert lint_source(src, "repro/engine/foo.py") == []

    def test_obs_counter_ok(self):
        src = (
            "from repro.obs import runtime as _obs\n"
            "def poll(fut):\n"
            "    try:\n"
            "        return fut.result()\n"
            "    except Exception:\n"
            "        _obs.counter('pool.fallbacks').inc()\n"
            "        return None\n"
        )
        assert lint_source(src, "repro/engine/foo.py") == []

    def test_typed_handler_ok(self):
        src = (
            "def read(path):\n"
            "    try:\n"
            "        return path.read_bytes()\n"
            "    except (OSError, ValueError):\n"
            "        return None\n"
        )
        assert lint_source(src, "repro/engine/cachefoo.py") == []

    def test_out_of_scope_not_flagged(self):
        src = (
            "def load(path):\n"
            "    try:\n"
            "        return path.read_text()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert lint_source(src, "repro/experiments/foo.py") == []

    def test_line_suppression_honored(self):
        src = (
            "def poll(fut):\n"
            "    try:\n"
            "        return fut.result()\n"
            "    except Exception:  # reprolint: disable=ENG001\n"
            "        return None\n"
        )
        assert lint_source(src, "repro/engine/foo.py") == []


class TestShippedTreeIsClean:
    def test_src_repro_lints_clean(self):
        findings = lint_paths([SRC_ROOT])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestApi001:
    """Package __init__ public-surface rule (docs/ANALYSIS.md)."""

    def test_unlisted_reexport_flagged(self):
        src = (
            "from repro.obs.tracer import SpanRecord\n"
            "__all__ = []\n"
        )
        findings = lint_source(src, "src/repro/obs/__init__.py")
        assert codes(findings) == ["API001"]
        assert "SpanRecord" in findings[0].message
        assert findings[0].line == 1

    def test_missing_dunder_all_flagged_once(self):
        src = (
            "from repro.core.search import SearchResult\n"
            "def helper():\n"
            "    pass\n"
        )
        findings = lint_source(src, "src/repro/core/__init__.py")
        assert codes(findings) == ["API001"]
        assert "no __all__" in findings[0].message

    def test_listed_names_clean(self):
        src = (
            "from repro.obs.tracer import SpanRecord\n"
            "def get_tracer():\n"
            "    pass\n"
            'VERSION = "1"\n'
            '__all__ = ["SpanRecord", "get_tracer", "VERSION"]\n'
        )
        assert lint_source(src, "src/repro/obs/__init__.py") == []

    def test_own_submodule_reimport_exempt(self):
        src = (
            "from repro.experiments import fig3_cc\n"
            "__all__ = []\n"
        )
        assert lint_source(src, "src/repro/experiments/__init__.py") == []

    def test_relative_submodule_reimport_exempt(self):
        src = "from . import tracer\n__all__ = []\n"
        assert lint_source(src, "src/repro/obs/__init__.py") == []

    def test_non_repro_imports_ignored(self):
        src = "from pathlib import Path\nimport numpy as np\n__all__ = []\n"
        assert lint_source(src, "src/repro/obs/__init__.py") == []

    def test_underscore_names_ignored(self):
        src = (
            "from repro.obs.tracer import SpanRecord as _SpanRecord\n"
            "_CACHE = {}\n"
            "__all__ = []\n"
        )
        assert lint_source(src, "src/repro/obs/__init__.py") == []

    def test_non_literal_all_skipped(self):
        src = (
            "from repro.obs.tracer import SpanRecord\n"
            "names = ['SpanRecord']\n"
            "__all__ = list(names)\n"
        )
        findings = lint_source(src, "src/repro/obs/__init__.py")
        assert "API001" not in codes(findings)

    def test_plain_modules_not_checked(self):
        src = "from repro.obs.tracer import SpanRecord\n"
        assert lint_source(src, "src/repro/obs/export.py") == []

    def test_live_tree_is_clean(self):
        inits = sorted(SRC_ROOT.rglob("__init__.py"))
        assert inits, "expected package __init__ files under src/repro"
        findings = [f for f in lint_paths(inits) if f.code == "API001"]
        assert findings == []
