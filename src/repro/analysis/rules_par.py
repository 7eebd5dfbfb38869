"""PAR: parallel-safety rules for process-pool code.

``ParallelMap`` executes tasks in separate processes; the engine's
contract is that a pooled map is byte-identical to a serial one.  Two
source patterns silently break it:

``PAR001``
    A write to module-level mutable state from a function reachable from
    a pool task.  In a worker the write lands in the *worker's* copy of
    the module; the parent never sees it, so the program behaves
    differently under ``workers=1`` vs ``workers=N`` — the exact
    divergence the determinism suite exists to prevent.  Detected
    writes: ``global``-declared assignments, subscript/augmented
    assignment on module-level names, in-place mutator calls
    (``.append`` / ``.update`` / ...) on module-level containers, and
    cross-module attribute assignment through an import.
``PAR002``
    A lambda or local closure shipped to the pool (``.map`` /
    ``.submit`` / ``.cached_map``, or a ``TASK_HELPERS`` helper such as
    the experiment runner's ``units``).  Lambdas don't pickle under the
    default start method, and closures capture ambient state whose
    worker-side copy diverges from the parent.  Every ``cached_map``
    registration counts: the engine sends each unit through its pool.

PAR001 is the interprocedural case per-file lint cannot catch: the
mutation lives in a helper module that never mentions a pool.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.projectgraph import ProjectGraph, render_chain, short_id

PAR_RULES: dict[str, str] = {
    "PAR001": "module-level state written from pool-worker-reachable code",
    "PAR002": "lambda/closure shipped to a process pool",
}


def check_par(graph: ProjectGraph) -> list[Finding]:
    """All PAR findings for the project (suppressions applied later)."""
    findings: list[Finding] = []
    reachable = graph.reachable_from(graph.worker_roots())
    for fid in sorted(reachable):
        chain = reachable[fid]
        summary, info = graph.functions[fid]
        for site in info.global_writes:
            findings.append(
                Finding(
                    code="PAR001",
                    message=(
                        f"write to module-level state '{site['name']}' "
                        f"({site['how']}) in {short_id(fid)}, which runs in "
                        f"pool workers: {render_chain(chain)}; worker-side writes "
                        "never reach the parent process"
                    ),
                    path=summary.path,
                    line=site["line"],
                    col=site["col"],
                )
            )
    for fid, (summary, info) in sorted(graph.functions.items()):
        for reg in info.task_regs:
            if reg["is_lambda"]:
                findings.append(
                    Finding(
                        code="PAR002",
                        message=(
                            f"lambda passed to {reg['api']}() in "
                            f"{short_id(fid)}; lambdas don't pickle and "
                            "capture ambient state — pass a module-level "
                            "function"
                        ),
                        path=summary.path,
                        line=reg["line"],
                        col=reg["col"],
                    )
                )
                continue
            fn = reg["fn"]
            if not fn or "." in fn:
                # Attribute references (``self.fn`` / ``mod.fn``) resolve
                # through the graph or are deliberately out of scope.
                continue
            if fn in info.params:
                # Higher-order plumbing: the function arrived as a
                # parameter, so the *caller's* registration is the one
                # that gets audited.
                continue
            resolved = graph.resolve(summary, info.qualname, fn)
            if not resolved and fn not in summary.module_vars:
                # A bare name that is neither a module-level function,
                # an import, nor a module variable: a local closure or
                # nested def captured from the enclosing scope.
                findings.append(
                    Finding(
                        code="PAR002",
                        message=(
                            f"local closure '{fn}' passed to "
                            f"{reg['api']}() in {short_id(fid)}; closures "
                            "capture ambient state whose worker-side copy "
                            "diverges — pass a module-level function"
                        ),
                        path=summary.path,
                        line=reg["line"],
                        col=reg["col"],
                    )
                )
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
