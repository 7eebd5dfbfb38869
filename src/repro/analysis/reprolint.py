"""``reprolint``: the repository's AST-based invariant linter.

Generic linters cannot see this project's two load-bearing conventions —
that randomness flows through :mod:`repro.util.rng` and that simulator code
never reads the wall clock — so this module encodes them as first-class
rules over :mod:`ast` (stdlib only, no new dependencies).

Rules
-----
``RNG001``
    No ``np.random.*`` calls (or ``numpy.random`` imports) outside
    ``repro/util/rng.py``.  Route every draw through
    :func:`repro.util.rng.as_generator` / :func:`~repro.util.rng.spawn_child`
    so experiments replay bit-identically (the Fig. 7 randomness study
    depends on it).
``RNG002``
    No module-level RNG state: no ``*.seed(...)`` mutation of global
    streams, and no generator constructed at module scope (import order
    would become part of the experiment).
``SIM001``
    No wall-clock reads (``time.time``, ``time.perf_counter``, ...) inside
    ``repro/platform``, ``repro/hetero``, or ``repro/core`` — the simulator
    clock is :class:`~repro.platform.timeline.Timeline`.
``UNIT001``
    Duration-bearing names (``duration``, ``elapsed``, ``makespan``,
    ``latency``, ``runtime`` tokens) must carry an explicit unit suffix
    (``_ms``, ``_us``, ``_ns``, ``_s``) so ms/us confusion cannot hide in a
    name.  Names that are ratios/counts (``..._ratio``, ``..._count``, ...)
    are exempt.
``FLT001``
    No ``==`` / ``!=`` against float expressions (float literals or
    ``float(...)`` casts) in ``repro/core`` / ``repro/platform`` — compare
    with a tolerance or restructure the test.
``ARG001``
    No mutable default arguments (``[]``, ``{}``, ``set()``, ...) anywhere.
``API001``
    Every ``repro`` package ``__init__.py`` must declare ``__all__`` and
    list every public name it binds — top-level functions, classes,
    assignments, and names re-exported from *other* ``repro`` modules.
    Re-imports of the package's own submodules (``from repro.experiments
    import fig3_cc`` inside ``repro/experiments/__init__.py``) are exempt:
    they expose submodules, not names.  The public API surface
    (docs/API.md) is generated from ``__all__``, so an unlisted name is an
    undocumented export.
``PERF001``
    No scalar ``*.evaluate_ms(...)`` probe inside a loop (or
    comprehension) over a threshold grid in ``repro/core`` /
    ``repro/experiments``.  A grid iterable is recognized by name
    (``grid`` / ``thresholds`` / ``points`` / ``candidates`` tokens), by
    construction (``np.arange`` / ``np.linspace`` / ``*.threshold_grid()``),
    or by subscripting either.  Price the whole grid in one pass with
    :func:`repro.core.problem.evaluate_grid` (which dispatches to a
    problem's vectorized ``evaluate_many`` — see docs/PERFORMANCE.md);
    the two sanctioned scalar loops (``evaluate_grid``'s own fallbacks
    for scalar thresholds and cut-vector rows) carry line suppressions.
``PERF002``
    No scalar ``Timeline`` recording (``tl.run(...)`` / ``tl.overlap(...)``
    / ``tl.record(...)``) inside a loop (or comprehension) in
    ``repro/hetero``.  Per-chunk scalar appends are exactly the pattern
    the columnar timeline's batch APIs replace: collect the spans and
    make one :meth:`~repro.platform.timeline.Timeline.run_many` /
    :meth:`~repro.platform.timeline.Timeline.overlap_many` /
    :meth:`~repro.platform.timeline.Timeline.record_many` call instead
    (see docs/PERFORMANCE.md).  The receiver is recognized by name
    (``tl`` / ``timeline`` / ``*.timeline``); loops where a scalar call
    is intentional (e.g. data-dependent placement that consumes the
    cursor between appends) carry line suppressions saying why.
``ENG001``
    No swallowed broad exception handlers (``except Exception`` /
    ``except BaseException`` / bare ``except``) inside ``repro/engine``:
    the handler must re-raise or visibly record the failure (an obs
    counter, a warning, or a ``record_*``/``*_failure`` helper).  The
    engine is the layer that retries and degrades — a silent ``pass``
    there is exactly how a run claims ``workers=N`` after quietly going
    serial.  Handlers for *specific* exception types are exempt: typed
    recovery is a decision, a blanket swallow is a cover-up.

Suppression
-----------
Append ``# reprolint: disable=CODE`` (comma-separate several codes, or use
``all``) to the offending physical line.  Suppressions are line-scoped on
purpose: a rule that needs a file-wide waiver deserves a code change
instead.  Any directive naming a finding's code drops it here; the project
rules read the same directive but also require a ``-- reason`` tail.

The checks run inside the one per-file walk
(:func:`repro.analysis.summary.summarize_source`); this module reports
what that walk found.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.summary import iter_project_files, summarize_source

#: Rule catalog: stable code -> one-line summary (rendered by the CLI and
#: docs/ANALYSIS.md).  Codes are never reused once retired.
RULES: dict[str, str] = {
    "RNG001": "np.random.* call outside repro/util/rng.py",
    "RNG002": "module-level RNG state or global seed mutation",
    "SIM001": "wall-clock read inside simulator code (platform/hetero/core)",
    "UNIT001": "duration-bearing name without a unit suffix (_ms/_us/_ns/_s)",
    "FLT001": "== / != on a float expression in core/platform",
    "ARG001": "mutable default argument",
    "API001": "public name in a repro package __init__ missing from __all__",
    "PERF001": "scalar evaluate_ms probe inside a loop over a threshold grid",
    "PERF002": "scalar Timeline run/overlap/record inside a loop in repro/hetero",
    "ENG001": "broad except in repro/engine that neither re-raises nor records",
    "SYN001": "file does not parse",
}


def _module_for_path(posix: str) -> str:
    """A dotted module name from a bare path: everything from ``repro/`` on.

    It anchors relative imports in the import table and names the
    package API001 checks (``src/repro/obs/__init__.py`` -> ``repro.obs``).
    """
    *dirs, name = posix.split("/")
    parts = dirs[dirs.index("repro"):] if "repro" in dirs else []
    stem = name[: -len(".py")] if name.endswith(".py") else name
    if stem != "__init__":
        parts.append(stem)
    return ".".join(parts)


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint Python *source*, scoping path-dependent rules by *path*.

    Returns findings sorted by (line, col, code); line-level suppression
    comments are honored.  A syntax error yields a single ``SYN001``.
    """
    posix = path.replace("\\", "/")
    summary = summarize_source(
        source,
        module=_module_for_path(posix),
        path=path,
        is_package=posix == "__init__.py" or posix.endswith("/__init__.py"),
    )
    kept = [
        f
        for f in summary.findings
        if not (
            (directive := summary.suppressions.get(f.line)) is not None
            and directive.covers(f.code)
        )
    ]
    return sorted(kept, key=lambda f: (f.line, f.col, f.code))


def lint_file(path: str | Path) -> list[Finding]:
    """Lint one file; the on-disk path scopes the path-dependent rules."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths: list[str | Path]) -> list[Finding]:
    """Lint files and/or directory trees (``*.py``, sorted, recursive)."""
    findings: list[Finding] = []
    for path in paths:
        p = Path(path)
        for file in iter_project_files(p) if p.is_dir() else [p]:
            findings.extend(lint_file(file))
    return findings
