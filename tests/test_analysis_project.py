"""Whole-program analysis suite (repro.analysis v2).

Covers the acceptance contract from docs/ANALYSIS.md §Project analysis:

* every rule family fires on a fixture, including interprocedural cases
  the per-file linter provably misses;
* the suppression policy (justified directives silence, unjustified ones
  are themselves reported), against the linter's on one parser;
* every shipped waiver still suppresses something;
* the ``--project`` CLI: exit codes 0/1/2 and the SARIF 2.1 report.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.analysis import (
    PROJECT_RULES,
    analyze_project,
    lint_paths,
    lint_source,
    to_sarif,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.project import analyze_source_set, build_project_graph
from repro.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION, sarif_to_json

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(findings):
    return [f.code for f in findings]


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


#: A cross-module tree: the worker fn is registered in driver.py but its
#: entropy hides two calls deep in tasks.py — invisible per file.
DET_TREE = {
    "pkg/__init__.py": "",
    "pkg/driver.py": """\
        from pkg.tasks import work

        def run(pool, items):
            return pool.map(work, items)
        """,
    "pkg/tasks.py": """\
        import time

        def work(x):
            return helper(x)

        def helper(x):
            return time.time() + x
        """,
}


#: A small clean tree for the CLI tests.
TREE = {
    "pkg/__init__.py": "",
    "pkg/a.py": "def alpha(x):\n    return x + 1\n",
    "pkg/b.py": "def beta(x):\n    return x * 2\n",
}


class TestDetRules:
    def test_det001_interprocedural_chain(self):
        findings = analyze_source_set(
            {
                k.split("/", 1)[1]: textwrap.dedent(v)
                for k, v in DET_TREE.items()
            },
            package="pkg",
        )
        assert codes(findings) == ["DET001"]
        (finding,) = findings
        assert finding.path == "tasks.py"
        assert "time.time" in finding.message
        # The chain names the route from the registered task to the sink.
        assert "work" in finding.message and "helper" in finding.message

    def test_det001_only_fires_on_task_reachable_code(self):
        findings = analyze_source_set(
            {
                "free.py": """\
import time

def not_a_task(x):
    return time.time() + x
"""
            }
        )
        assert findings == []

    def test_det002_unordered_iteration(self):
        findings = analyze_source_set(
            {
                "scan.py": """\
import os

def run(pool, root):
    return pool.map(scan, [root])

def scan(root):
    return [name for name in os.listdir(root)]
"""
            }
        )
        assert codes(findings) == ["DET002"]
        assert "sorted(" in findings[0].message

    def test_cached_map_registration_is_a_worker_root(self):
        # The engine sends every cached_map unit through its pool, so a
        # registered task's wall-clock read is on a determinism root.
        findings = analyze_source_set(
            {
                "serial.py": """\
import time

def run(engine, items):
    return engine.cached_map(work, items)

def work(x):
    return time.time() + x
"""
            }
        )
        assert codes(findings) == ["DET001"]
        assert "passed to .cached_map()" in findings[0].message


#: A runner-style helper that forwards its task to ``cached_map``: the
#: registration at the helper's call site is what makes ``work`` a root.
RUNNER_TREE = {
    "runner.py": """\
def units(config, task, keys, build):
    return config.engine().cached_map(
        task, range(len(keys)), key_fields=keys, prepare=build
    )
""",
    "study.py": """\
import time

from runner import units

def run(config, names):
    return units(config, work, [{"name": n} for n in names], lambda i: names[i])

def work(name):
    return helper(name)

def helper(name):
    return time.time()
""",
}


class TestRunnerHelperRegistration:
    def test_task_passed_to_the_helper_is_a_worker_root(self):
        findings = analyze_source_set(RUNNER_TREE)
        assert codes(findings) == ["DET001"]
        (finding,) = findings
        assert finding.path == "study.py"
        assert "work" in finding.message and "helper" in finding.message
        assert "passed to units()" in finding.message

    def test_task_keyword_registers_too(self):
        study = RUNNER_TREE["study.py"].replace(
            "units(config, work,", "units(config, task=work, keys="
        ).replace("names], lambda", "names], build=lambda")
        findings = analyze_source_set({**RUNNER_TREE, "study.py": study})
        assert codes(findings) == ["DET001"]

    def test_lambda_passed_to_the_helper_is_par002(self):
        findings = analyze_source_set(
            {
                "runner.py": RUNNER_TREE["runner.py"],
                "lam.py": """\
from runner import units

def run(config, keys):
    return units(config, lambda x: x + 1, keys, lambda i: i)
""",
            }
        )
        assert codes(findings) == ["PAR002"]
        assert "lambda passed to units()" in findings[0].message

    def test_shipped_worker_roots(self):
        """Every task an experiment hands the runner is a worker root,
        next to the pool registrations outside it."""
        graph = build_project_graph(SRC_ROOT)[0]
        roots = set(graph.worker_roots())
        assert roots >= {
            "repro.core.cut_vector::cluster_oracle",
            "repro.core.oracle::exhaustive_oracle",
            "repro.engine.parallel::_pool_task",
            "repro.experiments.ext_cluster::_tune_task",
            "repro.experiments.runner::_comparison_task",
            "repro.experiments.runner::_sweep_task",
            "repro.serve.bench::_worker_replay",
            "repro.experiments.runner::_ablation_task",
            "repro.experiments.table2_datasets::_inventory_task",
            "repro.experiments.fig1_dense::_dense_task",
            "repro.experiments.fig7_randomness::_randomness_task",
            "repro.experiments.ablation_dynamic::_dynamic_task",
            "repro.experiments.ext_multiway::_multiway_task",
            "repro.experiments.ext_dynamic::_drift_task",
            "repro.experiments.ext_dynamic::_steal_task",
        }


#: A partitioner that calls its search strategy through an attribute; two
#: classes define ``minimize`` and one of them reads the wall clock.
STRATEGY_TREE = {
    "search.py": """\
import time

class Exhaustive:
    def minimize(self, f):
        return min(f(x) for x in range(3))

class Timed:
    def minimize(self, f):
        return f(time.time())
""",
    "framework.py": """\
class Partitioner:
    def __init__(self, search):
        self.search = search

    def estimate(self, f):
        return self.search.minimize(f)

def run(pool, partitioners):
    return pool.map(task, partitioners)

def task(partitioner):
    return partitioner.estimate(abs)
""",
}


class TestAttributeChainCalls:
    def test_strategy_called_through_an_attribute_is_reached(self):
        findings = analyze_source_set(STRATEGY_TREE)
        assert codes(findings) == ["DET001"]
        (finding,) = findings
        assert finding.path == "search.py"
        assert "framework.task -> framework.Partitioner.estimate -> " in finding.message
        assert "search.Timed.minimize" in finding.message

    def test_shipped_partitioner_reaches_every_strategy(self):
        graph = build_project_graph(SRC_ROOT)[0]
        reached = graph.reachable_from(
            ["repro.core.framework::SamplingPartitioner.estimate"]
        )
        assert {fid for fid in reached if fid.endswith(".minimize")} == {
            f"repro.core.search::{cls}.minimize"
            for cls in (
                "SearchStrategy",
                "ExhaustiveSearch",
                "CoarseToFineSearch",
                "GradientDescentSearch",
                "RaceCoarseSearch",
            )
        }


class TestParRules:
    def test_par001_module_state_write_interprocedural(self):
        findings = analyze_source_set(
            {
                "state.py": """\
RESULTS = []

def record(x):
    RESULTS.append(x)
""",
                "driver.py": """\
from state import record

def run(pool, items):
    return pool.map(record, items)
""",
            }
        )
        assert codes(findings) == ["PAR001"]
        assert "RESULTS" in findings[0].message

    def test_par001_global_statement_write(self):
        findings = analyze_source_set(
            {
                "counter.py": """\
COUNT = 0

def run(pool, items):
    return pool.map(bump, items)

def bump(x):
    global COUNT
    COUNT += 1
    return x
"""
            }
        )
        assert codes(findings) == ["PAR001"]
        assert "COUNT" in findings[0].message

    def test_par001_local_shadow_of_import_is_clean(self):
        # A worker that builds its own object under a name that also exists
        # as a module-level import writes *local* state, not module state.
        findings = analyze_source_set(
            {
                "state.py": """\
cursor = 0
""",
                "shadow.py": """\
import state

def run(pool, items):
    return pool.map(work, items)

def work(x):
    state = make()
    state.cursor = x
    state.slots[0] = x
    return state.cursor

def make():
    class Box:
        pass
    return Box()
""",
            }
        )
        assert findings == []

    def test_par001_module_attribute_write_still_fires(self):
        # Without the shadowing local binding, the same attribute write is
        # a genuine cross-process module-state mutation.
        findings = analyze_source_set(
            {
                "state.py": """\
cursor = 0
""",
                "shadow.py": """\
import state

def run(pool, items):
    return pool.map(work, items)

def work(x):
    state.cursor = x
    return x
""",
            }
        )
        assert codes(findings) == ["PAR001"]

    def test_par002_lambda_shipped_to_pool(self):
        findings = analyze_source_set(
            {
                "lam.py": """\
def run(pool, items):
    return pool.map(lambda x: x + 1, items)
"""
            }
        )
        assert codes(findings) == ["PAR002"]

    def test_par_reads_are_fine(self):
        findings = analyze_source_set(
            {
                "ro.py": """\
TABLE = {"a": 1}

def run(pool, items):
    return pool.map(look, items)

def look(x):
    return TABLE.get(x, 0)
"""
            }
        )
        assert findings == []


class TestUnitRules:
    def test_unitx001_local_mixed_arithmetic(self):
        findings = analyze_source_set(
            {
                "mix.py": """\
def total(span_ms, budget_s):
    return span_ms + budget_s
"""
            }
        )
        assert codes(findings) == ["UNITX001"]

    def test_unitx001_conversion_via_multiply_is_fine(self):
        findings = analyze_source_set(
            {
                "conv.py": """\
def total(span_ms, budget_s):
    return span_ms + budget_s * 1000.0
"""
            }
        )
        assert findings == []

    def test_unitx002_interprocedural_param_mismatch(self):
        findings = analyze_source_set(
            {
                "callee.py": """\
def sleep_for(duration_ms):
    return duration_ms
""",
                "caller.py": """\
from callee import sleep_for

def go():
    timeout_s = 3.0
    return sleep_for(timeout_s)
""",
            }
        )
        assert codes(findings) == ["UNITX002"]
        assert findings[0].path == "caller.py"

    TIMER = """\
class Timer:
    def __init__(self, budget_ms, slack_us):
        self.budget_ms = budget_ms
        self.slack_us = slack_us
"""

    def test_unitx002_constructor_binds_after_self(self):
        findings = analyze_source_set(
            {
                "timer.py": self.TIMER
                + "\n\ndef make(a_ms, b_us):\n    return Timer(a_ms, b_us)\n"
            }
        )
        assert findings == []

    def test_unitx002_constructor_argument_mismatch(self):
        findings = analyze_source_set(
            {
                "timer.py": self.TIMER
                + "\n\ndef make(a_us):\n    return Timer(a_us, 0)\n"
            }
        )
        assert codes(findings) == ["UNITX002"]
        assert "'budget_ms'" in findings[0].message

    def test_unitx002_imported_constructor(self):
        findings = analyze_source_set(
            {
                "timer.py": self.TIMER,
                "use.py": (
                    "from timer import Timer\n\n"
                    "def make(a_us):\n    return Timer(a_us, 0)\n"
                ),
            }
        )
        assert codes(findings) == ["UNITX002"]
        assert findings[0].path == "use.py"

    def test_unitx002_class_qualified_call_passes_self(self):
        findings = analyze_source_set(
            {
                "meter.py": """\
class Meter:
    def add(self, span_ms):
        return span_ms


def use(meter, t_us):
    return Meter.add(meter, t_us)
"""
            }
        )
        assert codes(findings) == ["UNITX002"]
        assert "'span_ms'" in findings[0].message

    def test_unitx003_conflicting_units_across_call_sites(self):
        findings = analyze_source_set(
            {
                "sink.py": """\
def record(value):
    return value

def from_a():
    size_bytes = 10
    return record(size_bytes)

def from_b():
    span_ms = 1.0
    return record(span_ms)
"""
            }
        )
        assert codes(findings) == ["UNITX003"]


class TestSuppressions:
    SRC = """\
import time

def run(pool, items):
    return pool.map(work, items)

def work(x):
    return time.time() + x{directive}
"""

    def test_justified_suppression_silences(self):
        src = self.SRC.format(
            directive="  # reprolint: disable=DET001 -- telemetry only"
        )
        assert analyze_source_set({"s.py": src}) == []

    def test_unjustified_suppression_is_reported(self):
        src = self.SRC.format(directive="  # reprolint: disable=DET001")
        findings = analyze_source_set({"s.py": src})
        assert codes(findings) == ["DET001"]
        assert "unjustified" in findings[0].message

    def test_wrong_code_suppression_keeps_finding(self):
        src = self.SRC.format(
            directive="  # reprolint: disable=PAR001 -- wrong rule"
        )
        findings = analyze_source_set({"s.py": src})
        assert codes(findings) == ["DET001"]
        assert "unjustified" not in findings[0].message

    @pytest.mark.parametrize(
        "directive, justified",
        [
            ("{code}", False),
            ("{code},PAR001", False),
            ("all", False),
            ("{code} -- telemetry only", True),
            ("{code}  # noqa", False),
        ],
    )
    def test_one_parser_two_policies(self, directive, justified):
        # Both commands read the same directive: lint drops any finding it
        # names; the project rules also need the '-- reason' tail.
        def source(code):
            comment = "  # reprolint: disable=" + directive.format(code=code)
            return self.SRC.format(directive=comment)

        path = "repro/platform/s.py"
        assert codes(lint_source(self.SRC.format(directive=""), path)) == ["SIM001"]
        assert lint_source(source("SIM001"), path) == []
        findings = analyze_source_set({"s.py": source("DET001")})
        if justified:
            assert findings == []
        else:
            assert codes(findings) == ["DET001"]
            assert "unjustified" in findings[0].message


class TestPerFileLinterMissesWhatProjectCatches:
    def test_interprocedural_det_invisible_per_file(self, tmp_path):
        write_tree(tmp_path, DET_TREE)
        per_file = lint_paths([str(tmp_path)])
        assert per_file == []  # nothing is wrong with any file in isolation
        report = analyze_project(tmp_path)
        assert codes(report.findings) == ["DET001"]


class TestSyntaxErrors:
    def test_syn001_for_unparsable_file(self, tmp_path):
        write_tree(tmp_path, {"bad.py": "def broken(:\n"})
        report = analyze_project(tmp_path)
        assert codes(report.findings) == ["SYN001"]


class TestShippedTreeIsClean:
    def test_src_repro_has_no_unsuppressed_findings(self):
        report = analyze_project("src/repro")
        assert report.findings == []
        assert report.files_analyzed > 50


class TestEveryWaiverSuppressesSomething:
    """A shipped ``reprolint: disable`` that silences nothing is stale."""

    DIRECTIVE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")

    def test_each_stripped_directive_exposes_a_finding(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(
            SRC_ROOT, root, ignore=shutil.ignore_patterns("__pycache__")
        )
        stripped: dict[tuple[str, int], set[str]] = {}
        for file in sorted(root.rglob("*.py")):
            text = file.read_text(encoding="utf-8")
            lines = text.splitlines(keepends=True)
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                # Directive comments only; prose quoting the syntax stays.
                match = (
                    self.DIRECTIVE.match(tok.string)
                    if tok.type == tokenize.COMMENT
                    else None
                )
                if match is None:
                    continue
                row, col = tok.start
                stripped[(str(file), row)] = {
                    c.strip().upper() for c in match.group(1).split(",") if c.strip()
                }
                line = lines[row - 1]
                end = "\n" if line.endswith("\n") else ""
                lines[row - 1] = line[:col].rstrip() + end
            file.write_text("".join(lines), encoding="utf-8")
        assert stripped, "expected reprolint directives under src/repro"
        exposed: dict[tuple[str, int], set[str]] = {}
        for finding in lint_paths([root]) + analyze_project(root).findings:
            exposed.setdefault((finding.path, finding.line), set()).add(finding.code)
        stale = [
            f"{Path(path).relative_to(root)}:{line} ({','.join(sorted(wanted))})"
            for (path, line), wanted in sorted(stripped.items())
            if not (
                wanted & exposed.get((path, line), set())
                or ("ALL" in wanted and (path, line) in exposed)
            )
        ]
        assert stale == []


class TestProjectCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = write_tree(tmp_path / "src", TREE)
        assert analysis_main(["--project", str(root)]) == 0
        out = capsys.readouterr()
        assert "clean: no findings" in out.out
        assert "analyzed 3 files" in out.err

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        root = write_tree(tmp_path / "src", DET_TREE)
        assert analysis_main(["--project", str(root)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_missing_root_is_a_usage_error(self, tmp_path, capsys):
        code = analysis_main(["--project", str(tmp_path / "nope")])
        assert code == 2

    def test_project_rejects_subcommand_combo(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            analysis_main(["--project", str(tmp_path), "lint", "x.py"])
        assert exc.value.code == 2

    def test_select_and_ignore_filter_project_findings(self, tmp_path, capsys):
        root = write_tree(tmp_path / "src", DET_TREE)
        code = analysis_main(["--project", str(root), "--ignore", "DET001"])
        assert code == 0
        code = analysis_main(["--project", str(root), "--select", "DET001"])
        assert code == 1

    def test_rules_lists_project_catalog(self, capsys):
        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "PAR001", "PAR002", "UNITX001"):
            assert code in out


class TestSarif:
    def test_cli_writes_valid_sarif(self, tmp_path, capsys):
        root = write_tree(tmp_path / "src", DET_TREE)
        sarif_path = tmp_path / "out.sarif"
        code = analysis_main(
            ["--project", str(root), "--sarif", str(sarif_path)]
        )
        assert code == 1
        doc = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert set(PROJECT_RULES) <= set(rule_ids)
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        assert rule_ids[result["ruleIndex"]] == "DET001"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_level_mapping(self):
        from repro.analysis.findings import Finding

        findings = [
            Finding(code="DET001", message="m", path="a.py", line=1, col=0),
            Finding(code="UNITX001", message="m", path="a.py", line=2, col=0),
        ]
        doc = to_sarif(findings, PROJECT_RULES)
        levels = {r["ruleId"]: r["level"] for r in doc["runs"][0]["results"]}
        assert levels == {"DET001": "error", "UNITX001": "warning"}

    def test_unknown_code_gets_a_stub_rule(self):
        from repro.analysis.findings import Finding

        doc = to_sarif(
            [Finding(code="ZZZ999", message="m", path="a.py", line=1, col=0)],
            {},
        )
        (rule,) = doc["runs"][0]["tool"]["driver"]["rules"]
        assert rule["id"] == "ZZZ999"

    def test_serialization_is_stable(self):
        doc = to_sarif([], PROJECT_RULES)
        assert sarif_to_json(doc) == sarif_to_json(json.loads(sarif_to_json(doc)))

    def test_format_sarif_prints_document(self, tmp_path, capsys):
        root = write_tree(tmp_path / "src", TREE)
        assert analysis_main(["--project", str(root), "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
