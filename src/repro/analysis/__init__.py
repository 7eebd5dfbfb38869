"""Static analysis for the reproduction: repo linter + schedule hazards.

Two invariants keep this reproduction honest, and neither is visible to an
ordinary unit test:

* **Determinism discipline** — every random draw flows through
  :mod:`repro.util.rng`, so Figure 7's randomness study and the framework's
  sampling step replay bit-identically.  :mod:`repro.analysis.reprolint`
  enforces this (and a handful of adjacent hygiene rules) with an AST-based
  linter over the source tree.
* **Schedule well-formedness** — the :class:`~repro.platform.timeline.Timeline`
  traces that stand in for the paper's K40c testbed must be physically
  plausible: no resource doing two things at once, no GPU phase consuming a
  PCIe upload that has not landed.  :mod:`repro.analysis.hazards` checks
  recorded schedules for these hazards.

A third layer analyzes the *whole program* at once: a project graph
(imports, symbols, call edges over the source tree) feeding the DET
(determinism), PAR (parallel-safety), and UNIT-X (interprocedural unit
propagation) rule families — :func:`~repro.analysis.project.analyze_project`
— with SARIF 2.1 output for code scanning.  The linter and the project
analyzer read the same per-file record, built by one parse and one walk
(:mod:`repro.analysis.summary`).

All layers report :class:`~repro.analysis.findings.Finding` records and are
exposed on the command line::

    python -m repro.analysis lint src/repro
    python -m repro.analysis --project src/repro --sarif out.sarif
    python -m repro.analysis check-trace trace.json
"""

from __future__ import annotations

from repro.analysis.findings import Finding, findings_to_json, render_findings
from repro.analysis.hazards import check_spans, check_timeline
from repro.analysis.project import (
    PROJECT_RULES,
    ProjectReport,
    analyze_project,
    build_project_graph,
)
from repro.analysis.reprolint import RULES, lint_file, lint_paths, lint_source
from repro.analysis.sarif import sarif_to_json, to_sarif, write_sarif
from repro.analysis.tracefile import dump_trace, load_trace

__all__ = [
    "Finding",
    "PROJECT_RULES",
    "ProjectReport",
    "RULES",
    "analyze_project",
    "build_project_graph",
    "check_spans",
    "check_timeline",
    "dump_trace",
    "findings_to_json",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_trace",
    "render_findings",
    "sarif_to_json",
    "to_sarif",
    "write_sarif",
]
