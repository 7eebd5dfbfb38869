"""DET: whole-program determinism rules.

The reproduction's correctness oracle is bit-identical replay: pool maps
must equal serial maps, cache keys must be stable across runs and hosts,
and the threshold-grid pricing that every figure consumes must not
depend on ambient state.  These rules flag the two ways source code
breaks that contract:

``DET001``
    A wall-clock / OS-entropy read (``time.time``, ``datetime.now``,
    unseeded ``random`` / ``np.random`` module calls, ``os.environ``,
    ``os.urandom``, ``uuid.uuid4``, ...) inside a function transitively
    reachable from a determinism root — a pool task, the
    ``ResultCache`` keying path, or ``evaluate_grid``.  The finding
    carries the call chain from the root as evidence.
``DET002``
    Iteration in unstable order (set literals / ``set()`` /
    ``frozenset()`` values, ``os.listdir`` / ``os.scandir``,
    ``Path.iterdir`` / ``.glob`` / ``.rglob``) inside such a function,
    where the order can leak into reductions or serialized records.
    ``sorted(...)``-wrapped iterables never fire (the sort is the fix).

Both rules need the project graph: a per-file pass sees ``helpers.py``
call ``time.time()`` but cannot know that ``tasks.py`` ships a caller of
it to the pool.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.projectgraph import ProjectGraph, render_chain, short_id

#: Rule catalog fragment merged into the CLI/SARIF catalogs.
DET_RULES: dict[str, str] = {
    "DET001": "wall-clock/OS entropy reachable from a determinism-critical path",
    "DET002": "unstable-order iteration reachable from a determinism-critical path",
}

#: Functions whose output keys the result cache or prices the grid:
#: non-determinism anywhere under these corrupts replay even though no
#: pool is involved.  Matched by suffix so fixture projects can opt in
#: with the same spelling.
DET_FIXED_ROOTS = (
    "repro.engine.cache::ResultCache.key",
    "repro.engine.cache::fingerprint",
    "repro.engine.cache::code_version_salt",
    "repro.core.problem::evaluate_grid",
)


def det_roots(graph: ProjectGraph) -> dict[str, str]:
    """Determinism roots -> why: pool tasks, then cache keying / grid pricing."""
    roots = graph.worker_roots()
    for fixed in DET_FIXED_ROOTS:
        fixed_mod, fixed_qual = fixed.split("::")
        mod_tail = fixed_mod.rsplit(".", 1)[-1]
        for fid in sorted(graph.functions):
            mod, _, qual = fid.partition("::")
            if qual != fixed_qual or fid in roots:
                continue
            if mod == fixed_mod or mod == mod_tail or mod.endswith(f".{mod_tail}"):
                roots[fid] = "cache-keying / grid-pricing path"
    return roots


def check_det(graph: ProjectGraph) -> list[Finding]:
    """All DET findings for the project (suppressions applied later)."""
    findings: list[Finding] = []
    roots = det_roots(graph)
    reachable = graph.reachable_from(roots)
    for fid in sorted(reachable):
        chain = reachable[fid]
        summary, info = graph.functions[fid]
        evidence = f"{render_chain(chain)} [{roots[chain[0]]}]"
        for site in info.entropy:
            findings.append(
                Finding(
                    code="DET001",
                    message=(
                        f"{site['kind']} via {site['name']} in "
                        f"{short_id(fid)}, reachable on a "
                        f"determinism-critical path: {evidence}"
                    ),
                    path=summary.path,
                    line=site["line"],
                    col=site["col"],
                )
            )
        for site in info.unordered:
            findings.append(
                Finding(
                    code="DET002",
                    message=(
                        f"iteration over {site['what']} (unstable order) in "
                        f"{short_id(fid)}, reachable on a "
                        f"determinism-critical path: {evidence}; "
                        "wrap in sorted(...)"
                    ),
                    path=summary.path,
                    line=site["line"],
                    col=site["col"],
                )
            )
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
