"""Whole-program analysis driver: ``analyze_project``.

Orchestrates the project pipeline::

    files -> summaries (one walk each) -> ProjectGraph
          -> DET + PAR + UNIT-X rules -> suppression filter -> findings

Suppression policy (stricter than the per-file linter's, same parser):
a ``# reprolint: disable=DET001`` on the finding's line silences it
**only when the directive carries a justification tail**
(``-- reason``).  An unjustified waiver of a determinism/parallel-safety
rule is itself reported, with the original finding intact — silencing
the analyzer must leave a reviewable trace of *why*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.rules_det import DET_RULES, check_det
from repro.analysis.rules_par import PAR_RULES, check_par
from repro.analysis.summary import (
    ModuleSummary,
    iter_project_files,
    summarize_file,
    summarize_source,
)
from repro.analysis.units import UNITX_RULES, check_units
from repro.util.errors import ValidationError

#: The project-level rule catalog (the per-file linter keeps its own).
PROJECT_RULES: dict[str, str] = {
    **DET_RULES,
    **PAR_RULES,
    **UNITX_RULES,
    "SYN001": "file does not parse",
}


@dataclass
class ProjectReport:
    """What one ``analyze_project`` run produced."""

    findings: list[Finding]
    files_analyzed: int = 0
    wall_s: float = 0.0
    summaries: dict[str, ModuleSummary] = field(default_factory=dict)


def build_project_graph(root: str | Path) -> tuple[ProjectGraph, ProjectReport]:
    """Summarize every file under *root* and assemble the graph.

    Exposed separately from :func:`analyze_project` so tests and tooling
    can inspect the graph without running the rules.
    """
    root_path = Path(root)
    if not root_path.is_dir():
        raise ValidationError(f"--project root {root_path} is not a directory")
    report = ProjectReport(findings=[])
    for file in iter_project_files(root_path):
        summary = summarize_file(root_path, file)
        report.summaries[summary.path] = summary
    report.files_analyzed = len(report.summaries)
    return ProjectGraph(list(report.summaries.values())), report


def _apply_suppressions(
    findings: list[Finding], summaries: dict[str, ModuleSummary]
) -> list[Finding]:
    """Drop justified line suppressions; flag unjustified ones."""
    kept: list[Finding] = []
    for finding in findings:
        summary = summaries.get(finding.path)
        directive = (
            summary.suppressions.get(finding.line) if summary is not None else None
        )
        if directive is None or not directive.covers(finding.code):
            kept.append(finding)
            continue
        if directive.justified:
            continue
        kept.append(
            Finding(
                code=finding.code,
                message=(
                    finding.message
                    + " [suppression present but unjustified: append "
                    "'-- reason' to the disable comment]"
                ),
                path=finding.path,
                line=finding.line,
                col=finding.col,
            )
        )
    return kept


def _run_rules(
    graph: ProjectGraph, summaries: dict[str, ModuleSummary]
) -> list[Finding]:
    findings = [
        s.syntax_error for s in summaries.values() if s.syntax_error is not None
    ]
    findings.extend(check_det(graph))
    findings.extend(check_par(graph))
    findings.extend(check_units(graph))
    findings = _apply_suppressions(findings, summaries)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))


def analyze_project(root: str | Path) -> ProjectReport:
    """Run the whole-program DET/PAR/UNIT-X analysis over *root*."""
    started = time.perf_counter()
    graph, report = build_project_graph(root)
    report.findings = _run_rules(graph, report.summaries)
    report.wall_s = time.perf_counter() - started
    return report


def analyze_source_set(
    sources: dict[str, str], *, package: str | None = None
) -> list[Finding]:
    """Analyze an in-memory {relative path: source} set (test harness).

    Module names are derived from the relative paths (optionally rooted
    at *package*), so fixtures can exercise cross-module resolution
    without touching disk.
    """
    summaries: dict[str, ModuleSummary] = {}
    for rel, source in sorted(sources.items()):
        parts = list(Path(rel).parts)
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][: -len(".py")]
        if package:
            parts = [package, *parts]
        summary = summarize_source(
            source,
            module=".".join(parts) if parts else (package or rel),
            path=rel,
            is_package=rel.endswith("__init__.py"),
        )
        summaries[summary.path] = summary
    return _run_rules(ProjectGraph(list(summaries.values())), summaries)
