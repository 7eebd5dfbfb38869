"""CLI for the analysis subsystem.

Usage::

    python -m repro.analysis --project src/repro       # whole-program DET/PAR/UNIT-X
    python -m repro.analysis --project src/repro --sarif out.sarif
    python -m repro.analysis lint src/repro            # per-file lint
    python -m repro.analysis lint --format json file.py
    python -m repro.analysis lint --select RNG001,SIM001 src
    python -m repro.analysis check-trace trace.json    # hazard-check traces
    python -m repro.analysis rules                     # print the catalog

Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
input errors — so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.findings import Finding, findings_to_json, render_findings
from repro.analysis.hazards import HAZARDS, check_spans
from repro.analysis.project import PROJECT_RULES, analyze_project
from repro.analysis.reprolint import RULES, lint_paths
from repro.analysis.sarif import sarif_to_json, to_sarif, write_sarif
from repro.analysis.tracefile import load_trace
from repro.util.errors import ValidationError


def _parse_codes(raw: str | None) -> set[str] | None:
    if raw is None:
        return None
    return {c.strip().upper() for c in raw.split(",") if c.strip()}


def _filter(
    findings: list[Finding], select: set[str] | None, ignore: set[str] | None
) -> list[Finding]:
    out = findings
    if select is not None:
        out = [f for f in out if f.code in select]
    if ignore is not None:
        out = [f for f in out if f.code not in ignore]
    return out


def _report(findings: list[Finding], fmt: str, rules: dict[str, str]) -> int:
    if fmt == "json":
        print(findings_to_json(findings))
    elif fmt == "sarif":
        print(sarif_to_json(to_sarif(findings, rules)), end="")
    elif findings:
        print(render_findings(findings))
    else:
        print("clean: no findings")
    return 1 if findings else 0


def _run_project(args: argparse.Namespace) -> int:
    try:
        report = analyze_project(args.project)
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = _filter(
        report.findings, _parse_codes(args.select), _parse_codes(args.ignore)
    )
    if args.sarif is not None:
        write_sarif(args.sarif, findings, PROJECT_RULES, base_dir=".")
        print(f"wrote {args.sarif}", file=sys.stderr)
    print(
        f"analyzed {report.files_analyzed} files ({report.wall_s * 1e3:.0f} ms)",
        file=sys.stderr,
    )
    return _report(findings, args.format, PROJECT_RULES)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description=(
            "Repo-invariant linter, whole-program determinism/parallel-safety "
            "analyzer, and schedule hazard detector."
        ),
    )
    parser.add_argument(
        "--project",
        metavar="DIR",
        default=None,
        help="run the whole-program DET/PAR/UNIT-X analysis over a source tree",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        default=None,
        help="also write a SARIF 2.1 report (with --project)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES", help="only report these codes"
    )
    parser.add_argument(
        "--ignore", default=None, metavar="CODES", help="drop these codes"
    )
    sub = parser.add_subparsers(dest="command")

    lint_p = sub.add_parser("lint", help="lint Python sources for repo invariants")
    lint_p.add_argument("paths", nargs="+", help="files or directories to lint")
    lint_p.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    lint_p.add_argument(
        "--select", default=None, metavar="CODES", help="only report these codes"
    )
    lint_p.add_argument(
        "--ignore", default=None, metavar="CODES", help="drop these codes"
    )

    trace_p = sub.add_parser(
        "check-trace", help="hazard-check serialized timeline traces"
    )
    trace_p.add_argument("traces", nargs="+", help="trace JSON files")
    trace_p.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("rules", help="print the rule and hazard catalog")

    args = parser.parse_args(argv)

    if args.project is not None:
        if args.command is not None:
            parser.error("--project does not combine with a subcommand")
        return _run_project(args)

    if args.command is None:
        parser.error("a subcommand or --project is required")

    if args.command == "rules":
        for code, summary in {**RULES, **PROJECT_RULES, **HAZARDS}.items():
            print(f"{code}  {summary}")
        return 0

    if args.command == "lint":
        try:
            findings = lint_paths(args.paths)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings = _filter(
            findings, _parse_codes(args.select), _parse_codes(args.ignore)
        )
        return _report(findings, args.format, RULES)

    # check-trace
    findings: list[Finding] = []
    for trace in args.traces:
        try:
            spans, total_ms = load_trace(trace)
        except (OSError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings.extend(check_spans(spans, total_ms=total_ms, source=str(trace)))
    return _report(findings, args.format, HAZARDS)


if __name__ == "__main__":
    sys.exit(main())
