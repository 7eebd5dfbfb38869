"""The project graph: symbols, calls and reachability across modules.

The per-file walk (:mod:`repro.analysis.summary`) sees one AST at a
time, so on its own it cannot answer the questions the DET/PAR/UNIT-X
rule families ask: *is this function transitively reachable from a pool
task?  Does this call site feed microseconds into a millisecond
parameter defined two modules away?*  :class:`ProjectGraph` links the
per-file :class:`~repro.analysis.summary.ModuleSummary` records into
the structure those rules need: it resolves imports and re-export
chains into a symbol table, resolves call sites into a call graph, and
computes transitive reachability from root sets with parent chains (so
a finding can say *how* worker code reaches the entropy source).

Resolution is deliberately conservative in both directions: a call that
cannot be resolved creates no edge (no false reachability through
``obj.get(...)``), while attribute calls on unknown receivers fall back
to project-wide method-name matching only when the name is unambiguous
enough (not a builtin-container method, few candidates).
"""

from __future__ import annotations

from collections import deque

from repro.analysis.summary import FunctionInfo, ModuleSummary

#: Common container/stdlib method names excluded from the unknown-receiver
#: method-name fallback (an edge to every class with a ``get`` method
#: would connect the whole program).
_FALLBACK_BLACKLIST = {
    "get",
    "items",
    "keys",
    "values",
    "append",
    "update",
    "pop",
    "add",
    "extend",
    "remove",
    "clear",
    "copy",
    "sort",
    "split",
    "join",
    "strip",
    "format",
    "encode",
    "decode",
    "read",
    "write",
    "close",
    "open",
    "exists",
    "mkdir",
    "put",
    "setdefault",
    "startswith",
    "endswith",
    "result",
    "cancel",
    "done",
    "render",
    "to_json",
    "from_json",
}

#: Max candidate methods for the unknown-receiver fallback before we
#: declare the name too ambiguous to create edges.
_FALLBACK_CAP = 10


class ProjectGraph:
    """Symbol table + call graph over a set of module summaries."""

    def __init__(self, summaries: list[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {s.module: s for s in summaries}
        #: function id ("module::qualname") -> (summary, FunctionInfo)
        self.functions: dict[str, tuple[ModuleSummary, FunctionInfo]] = {}
        #: method name -> [function ids] for the unknown-receiver fallback
        self._methods: dict[str, list[str]] = {}
        for s in summaries:
            for qual, info in s.functions.items():
                fid = f"{s.module}::{qual}"
                self.functions[fid] = (s, info)
                if "." in qual:
                    method = qual.split(".")[-1]
                    self._methods.setdefault(method, []).append(fid)
        #: function id -> callee ids, call sites first.  A function
        #: *reference* handed to a task API is a potential indirect call,
        #: so registrations add edges too: higher-order plumbing
        #: (``engine.cached_map(task, ...)``) keeps the task reachable.
        self._out: dict[str, list[str]] = {}
        for fid, (summary, info) in self.functions.items():
            names = [name for name, _ in info.calls]
            names += [reg["fn"] for reg in info.task_regs if reg["fn"]]
            self._out[fid] = [
                callee
                for name in names
                for callee, _ in self.resolve(summary, info.qualname, name)
            ]

    # -- symbol resolution -------------------------------------------------

    def resolve_symbol(
        self, dotted: str, *, _depth: int = 0
    ) -> tuple[str, str] | None:
        """A fully-dotted name -> ``(function id, how)``, following re-exports.

        ``how`` is ``"function"``, ``"constructor"`` (a class, resolved
        to its ``__init__``) or ``"class"`` (``Class.method`` looked up
        on the class).
        """
        if _depth > 8:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:cut])
            summary = self.modules.get(mod_name)
            if summary is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                return self._resolve_name(summary, rest[0], _depth + 1)
            if len(rest) == 2:
                qual = ".".join(rest)
                if qual in summary.functions:
                    return f"{mod_name}::{qual}", "class"
                # Re-exported class: follow the import then re-append the
                # method name.
                target = summary.imports.get(rest[0])
                if target is not None:
                    return self.resolve_symbol(
                        f"{target}.{rest[1]}", _depth=_depth + 1
                    )
            return None
        return None

    def _resolve_name(
        self, summary: ModuleSummary, name: str, depth: int
    ) -> tuple[str, str] | None:
        """A bare name in *summary*: a function, a class, or an import."""
        if name in summary.functions:
            return f"{summary.module}::{name}", "function"
        if name in summary.classes:
            init = f"{name}.__init__"
            if init in summary.functions:
                return f"{summary.module}::{init}", "constructor"
            return None
        target = summary.imports.get(name)
        if target is not None:
            return self.resolve_symbol(target, _depth=depth)
        return None

    def _resolve_method(
        self, summary: ModuleSummary, class_name: str, method: str, *, _depth: int = 0
    ) -> str | None:
        """Resolve ``self.method`` within *class_name*, walking bases."""
        if _depth > 8:
            return None
        cls = summary.classes.get(class_name)
        if cls is None:
            return None
        if method in cls["methods"]:
            return f"{summary.module}::{class_name}.{method}"
        for base in cls["bases"]:
            found = self.resolve_symbol(
                base if "." in base else f"{summary.module}.{base}"
            )
            if found is None:
                # Try via imports of this module.
                target = summary.imports.get(base.split(".")[0])
                if target is None:
                    continue
                dotted = ".".join([target, *base.split(".")[1:]])
                base_mod, _, base_cls = dotted.rpartition(".")
            else:
                # resolve_symbol lands on __init__ for classes; recover the
                # class location from it.
                base_mod, _, base_qual = found[0].partition("::")
                base_cls = base_qual.split(".")[0]
            base_summary = self.modules.get(base_mod)
            if base_summary is None:
                continue
            hit = self._resolve_method(
                base_summary, base_cls, method, _depth=_depth + 1
            )
            if hit is not None:
                return hit
        return None

    def _candidate(self, fid: str, how: str) -> tuple[str, bool]:
        """``(fid, bound)``: does the call form supply the first parameter?"""
        params = self.functions[fid][1].params
        first = params[0] if params else ""
        bound = (
            how == "constructor"
            or (how == "receiver" and first in ("self", "cls"))
            or (how == "class" and first == "cls")
        )
        return fid, bound

    def resolve(
        self, summary: ModuleSummary, caller_qual: str, name: str
    ) -> list[tuple[str, bool]]:
        """Candidate callees of one call-site name written in *caller_qual*.

        Each candidate is ``(function id, bound)``.  ``bound`` says the
        call form itself supplies the callee's first parameter: a
        constructor call, or a method called through a receiver
        (``self.m(x)``, ``obj.m(x)``).  ``Class.m(inst, x)`` passes
        ``self`` explicitly; only a classmethod's ``cls`` is bound there.
        An unknown receiver, ``self.x.m`` and ``Class.x.m`` chains included,
        falls back to project-wide method-name matching: every method of
        that name, unless the name is blacklisted or has more than
        ``_FALLBACK_CAP`` candidates.  So ``self.search.minimize(...)``
        reaches every search strategy's ``minimize``.
        """
        parts = name.split(".")
        head = parts[0]
        if head in ("self", "cls") and len(parts) == 2:
            class_name = caller_qual.split(".")[0] if "." in caller_qual else None
            found = (
                self._resolve_method(summary, class_name, parts[1])
                if class_name is not None
                else None
            )
            return [self._candidate(found, "receiver")] if found else []
        if len(parts) == 1:
            symbol = self._resolve_name(summary, head, 0)
            return [self._candidate(*symbol)] if symbol else []
        if head in summary.classes and len(parts) == 2 and name in summary.functions:
            return [self._candidate(f"{summary.module}::{name}", "class")]
        target = summary.imports.get(head)
        if target is not None:
            symbol = self.resolve_symbol(".".join([target, *parts[1:]]))
            return [self._candidate(*symbol)] if symbol else []
        # Unknown receiver: project-wide method-name fallback, gated hard.
        method = parts[-1]
        candidates = self._methods.get(method, [])
        if method in _FALLBACK_BLACKLIST or len(candidates) > _FALLBACK_CAP:
            return []
        return [self._candidate(fid, "receiver") for fid in candidates]

    # -- reachability ------------------------------------------------------

    def reachable_from(self, roots) -> dict[str, list[str]]:
        """BFS closure: function id -> call chain from the nearest root.

        The chain starts at the root and ends at the function itself, so
        a finding can render ``root -> a -> b`` as evidence.
        """
        chains: dict[str, list[str]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in chains:
                chains[root] = [root]
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee in self._out.get(current, ()):
                if callee not in chains:
                    chains[callee] = chains[current] + [callee]
                    queue.append(callee)
        return chains

    def worker_roots(self) -> dict[str, str]:
        """Functions shipped to pools: id -> the registration that did it.

        Every ``.map`` / ``.submit`` / ``.cached_map`` registration of a
        named function counts: the engine sends every unit of a cached map
        through its worker pool.  So does the task handed to a runner
        helper (``TASK_HELPERS``), which forwards it to ``cached_map``.
        """
        roots: dict[str, str] = {}
        for fid, (summary, info) in self.functions.items():
            for reg in info.task_regs:
                if reg["is_lambda"] or not reg["fn"]:
                    continue
                for target, _ in self.resolve(summary, info.qualname, reg["fn"]):
                    roots.setdefault(
                        target,
                        f"passed to {reg['api']}() in {short_id(fid)} "
                        f"(line {reg['line']})",
                    )
        return dict(sorted(roots.items()))


def short_id(fid: str) -> str:
    """``module::qualname`` -> the readable ``module.qualname`` form."""
    return fid.replace("::", ".")


def render_chain(chain: list[str]) -> str:
    """A reachability chain as ``root -> a -> b`` for finding messages."""
    return " -> ".join(short_id(fid) for fid in chain)
