"""One parse and one walk per file: :func:`summarize_source`.

Both analyzer commands read the :class:`ModuleSummary` this module
builds.  ``lint`` reports the per-file findings it holds
(:mod:`repro.analysis.reprolint`); ``--project`` links the summaries'
imports, classes and functions into a
:class:`~repro.analysis.projectgraph.ProjectGraph` and runs the
DET/PAR/UNIT-X rules over it (:mod:`repro.analysis.project`).

A file is parsed once and one visitor fills its summary with:

* the per-file lint findings (RNG001, RNG002, SIM001, UNIT001, FLT001,
  ARG001, API001, PERF001, ENG001), before suppression, or a
  lone SYN001 when the file does not parse;
* the import table, module-level names, and classes with their methods;
* a :class:`FunctionInfo` per top-level function or method: its call
  sites, entropy sites, module-state writes, unordered-iteration sites,
  task registrations (functions handed to ``.map``/``.submit``/
  ``.cached_map``), and the assignments and arithmetic the UNIT-X pass
  infers units over.  Inference itself runs only under ``--project``
  (:func:`repro.analysis.units.check_units`), so ``lint`` never pays
  for it;
* the suppression directives, parsed once for both policies.

Every rule resolves names through the one import table, so
``import time as t; t.perf_counter()`` is a wall-clock read to SIM001
and DET001 alike.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.analysis.findings import Finding
from repro.analysis.units import TIME_SUFFIXES

#: Directories (repo-relative, posix) whose files count as simulator code.
SIM_SCOPES = ("repro/platform", "repro/hetero", "repro/core")

#: Directories where float equality is flagged.
FLT_SCOPES = ("repro/core", "repro/platform")

#: Directories where scalar grid sweeps are flagged (PERF001): the layers
#: that hold searches/oracles and the experiment drivers — the places a
#: stray scalar loop silently forfeits the batched-pricing fast path.
PERF_SCOPES = ("repro/core", "repro/experiments")

#: Directories where swallowed broad excepts are flagged (ENG001): the
#: fault-tolerant execution layer, whose whole contract is that failures
#: are retried, surfaced, or counted — never silently dropped.
ENG_SCOPES = ("repro/engine",)

#: The one module allowed to touch numpy's RNG constructors directly.
RNG_MODULE_SUFFIX = "repro/util/rng.py"

#: Wall-clock reads (after alias resolution): SIM001 in simulator code,
#: and DET001 on determinism-critical paths.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.thread_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Everything that makes a function non-deterministic for DET001: the
#: wall clock plus OS, uuid and secrets entropy.
ENTROPY_CALLS = WALL_CLOCK_CALLS | {
    "os.urandom",
    "os.getenv",
    "os.getpid",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
}

#: Module-state RNG namespaces: any attribute call on these is entropy
#: (the stream is global, so results depend on whatever ran before).
_RNG_NAMESPACES = ("random.", "np.random.", "numpy.random.")

#: numpy's RNG namespace (RNG001).
_NP_RANDOM = ("np.random.", "numpy.random.")

#: random.* names that are NOT ambient entropy (constructors/seeding get
#: their own lint rules; construction is not a draw).
_RNG_EXEMPT = {
    "random.Random",
    "random.SystemRandom",
    "random.seed",
    "np.random.default_rng",
    "np.random.Generator",
    "np.random.RandomState",
    "np.random.SeedSequence",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
}

_GLOBAL_SEED_CALLS = {"np.random.seed", "numpy.random.seed", "random.seed"}

_RNG_CONSTRUCTORS = {
    "np.random.default_rng",
    "numpy.random.default_rng",
    "np.random.Generator",
    "numpy.random.Generator",
    "np.random.RandomState",
    "numpy.random.RandomState",
    "default_rng",
    "as_generator",
    "random.Random",
}

#: Methods that mutate their receiver in place (PAR001 on module state).
MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "add",
    "discard",
    "update",
    "setdefault",
    "sort",
    "reverse",
    "appendleft",
    "popleft",
}

#: Attribute-call names that register work on a pool / engine.  Only
#: attribute calls count (``pool.map``), never the ``map`` builtin.
TASK_APIS = {"map", "submit", "cached_map"}

#: Runner-style helpers that hand one argument to ``cached_map``: helper
#: name -> the task's position (a ``task=`` keyword counts too).  The
#: experiment runner's ``units(config, task, keys, build)`` is one.
TASK_HELPERS = {"units": 1}

#: Iterable-producing calls whose order is filesystem/hash dependent.
_UNORDERED_CALLS = {"os.listdir", "os.scandir"}
_UNORDERED_METHODS = {"iterdir", "glob", "rglob"}

# Tokens that mark a name as holding a length of time ("duration",
# "elapsed", ...) vs. tokens that mark it as dimensionless ("ratio", ...).
_TIMED_TOKENS = frozenset("duration elapsed makespan latency runtime".split())
_EXEMPT_TOKENS = frozenset(
    "ratio fraction frac pct percent count scale factor rate".split()
)

#: Name tokens that mark an iterable as "a grid of candidate thresholds"
#: for PERF001 (``for t in grid``, ``for t in fine_thresholds``, ...).
_GRID_NAME_TOKENS = frozenset("grid thresholds points candidates".split())

#: Calls whose result is a candidate grid even without a grid-ish name.
_GRID_CALL_NAMES = {
    "np.arange",
    "numpy.arange",
    "np.linspace",
    "numpy.linspace",
}

#: Name tokens marking a call inside an exception handler as "recording
#: the failure" for ENG001 (``record_failure``, ``warnings.warn``,
#: ``counter(...).inc``, ``log``, ``quarantine``, ...).
_FAILURE_RECORD_TOKENS = frozenset(
    "record warn warning inc counter fail failure failed fallback "
    "quarantine log error".split()
)

#: ``# reprolint: disable=CODE[,CODE...] [-- reason]``.  The code list
#: ends at ``--``, which starts the justification, or at the first
#: character that cannot be part of a code list (so a trailing
#: ``# noqa`` never leaks into it).
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)(?:--\s*(.*))?"
)

#: Qualname of the pseudo-function holding module-level statements.
MODULE_SCOPE = "<module>"


class Directive(NamedTuple):
    """One line's ``# reprolint: disable=...`` comment."""

    codes: frozenset[str]
    #: Whether it carries a non-empty ``-- reason`` tail.
    justified: bool

    def covers(self, code: str) -> bool:
        return code in self.codes or "ALL" in self.codes


def parse_suppressions(source: str) -> dict[int, Directive]:
    """Per-line suppression directives: line -> :class:`Directive`.

    One parser, two policies: ``lint`` drops a finding on any directive
    naming its code; the project rules also require the justification
    and re-report an unjustified waiver.
    """
    out: dict[int, Directive] = {}
    if "reprolint" not in source:
        return out
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = frozenset(
            c.strip().upper() for c in match.group(1).split(",") if c.strip()
        )
        if codes:
            reason = match.group(2)
            out[lineno] = Directive(codes, bool(reason and reason.strip()))
    return out


@dataclass
class FunctionInfo:
    """Everything the project rules ask about one function.

    ``qualname`` is module-relative (``"_pool_task"``,
    ``"ParallelMap.map"``).  Nested functions and lambdas are *inlined*
    into their enclosing function on purpose: if the parent is reachable
    the closure is conservatively reachable too, which is exactly the
    assumption a race/determinism audit must make.

    ``unit_assigns`` and ``unit_exprs`` hold ``(depth, node)`` pairs for
    the UNIT-X pass; a stable sort on depth restores :func:`ast.walk`'s
    breadth-first order, which the flow-insensitive binding follows.
    """

    qualname: str
    line: int
    col: int
    params: list[str] = field(default_factory=list)
    #: ``(dotted callee name, call node)`` per call site.
    calls: list[tuple[str, ast.Call]] = field(default_factory=list)
    entropy: list[dict] = field(default_factory=list)
    global_writes: list[dict] = field(default_factory=list)
    unordered: list[dict] = field(default_factory=list)
    task_regs: list[dict] = field(default_factory=list)
    #: Single-name assignments (``x = expr``).
    unit_assigns: list[tuple[int, ast.Assign]] = field(default_factory=list)
    #: ``+``/``-`` binops, comparisons and augmented assignments.
    unit_exprs: list[tuple[int, ast.AST]] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """One file: its lint findings and its share of the project graph."""

    module: str
    path: str
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    module_vars: set[str] = field(default_factory=set)
    #: class name -> {"bases": [dotted], "methods": [names]}
    classes: dict[str, dict] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    suppressions: dict[int, Directive] = field(default_factory=dict)
    #: Per-file lint findings, before suppression.
    findings: list[Finding] = field(default_factory=list)
    #: The SYN001 finding when the file does not parse (it is then the
    #: only finding).
    syntax_error: Finding | None = None


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _tokens(name: str) -> list[str]:
    return [t for t in name.lower().split("_") if t]


def _in_scope(posix: str, scopes: tuple[str, ...]) -> bool:
    return any(f"{s}/" in posix or posix.endswith(s) for s in scopes)


def _needs_unit_suffix(name: str) -> bool:
    toks = _tokens(name)
    if not any(t in _TIMED_TOKENS for t in toks):
        return False
    if any(t in _EXEMPT_TOKENS for t in toks):
        return False
    return not name.lower().endswith(tuple(TIME_SUFFIXES))


def _is_float_expr(node: ast.expr) -> bool:
    """Syntactically-evident float: a float literal or a ``float(...)`` cast."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_float_expr(node.operand)
    return False


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


def _is_grid_iterable(node: ast.expr) -> bool:
    """Whether a loop iterable syntactically looks like a threshold grid.

    Recognized: names/attributes carrying a grid token (``grid``,
    ``thresholds``, ...), grid-constructing calls (``np.arange``,
    ``np.linspace``, anything named ``*threshold_grid``), and subscripts
    of either (``grid[1:]``).  Deliberately conservative: ``range(...)``
    and entity lists (``for name in names``) are not grids.
    """
    if isinstance(node, ast.Subscript):
        return _is_grid_iterable(node.value)
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        if dotted is None:
            return False
        if dotted in _GRID_CALL_NAMES:
            return True
        tail = dotted.split(".")[-1]
        return any(t in _GRID_NAME_TOKENS for t in _tokens(tail))
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.id if isinstance(node, ast.Name) else node.attr
        return any(t in _GRID_NAME_TOKENS for t in _tokens(name))
    return False


def _is_broad_handler(type_node: ast.expr | None) -> bool:
    """Bare ``except`` or one naming Exception/BaseException."""
    if type_node is None:
        return True
    candidates = (
        list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
    )
    for candidate in candidates:
        dotted = _dotted(candidate)
        if dotted in {"Exception", "BaseException"} or (
            dotted is not None
            and dotted.endswith((".Exception", ".BaseException"))
        ):
            return True
    return False


def _handler_surfaces_failure(node: ast.excepthandler) -> bool:
    """Whether the handler body re-raises or visibly records.

    Recording is recognized by calling anything whose name carries a
    failure-reporting token (``record_failure``, ``warnings.warn``,
    ``counter(...).inc``, ``_record_fallback``, ...) — a syntactic
    heuristic, deliberately permissive: ENG001 exists to catch the
    plain swallow (``pass`` / bare ``return``), not to audit what a
    handler reports.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise):
            return True
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute):
                tail = func.attr
            elif isinstance(func, ast.Name):
                tail = func.id
            else:
                continue
            if any(t in _FAILURE_RECORD_TOKENS for t in _tokens(tail)):
                return True
    return False


def _eager_calls(node: ast.expr):
    """Calls evaluated when the expression is — not deferred in a lambda."""
    stack: list[ast.AST] = [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Lambda):
            continue
        if isinstance(sub, ast.Call):
            yield sub
        stack.extend(ast.iter_child_nodes(sub))


def _literal_all(node: ast.expr) -> list[str] | None:
    """``__all__``'s entries when it is a list/tuple of str literals."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    names: list[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return names


def _bound_names(target: ast.expr) -> set[str]:
    """Bare names a binding target introduces (tuples recursed)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for elt in target.elts:
            out |= _bound_names(elt)
        return out
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return set()


def _entropy_kind(resolved: str) -> str | None:
    if resolved in ENTROPY_CALLS:
        return "wall-clock/OS entropy" if not resolved.startswith(
            ("random.", "np.", "numpy.", "secrets.", "uuid.")
        ) else "ambient entropy"
    if resolved in _RNG_EXEMPT:
        return None
    if resolved.startswith(_RNG_NAMESPACES):
        return "unseeded module RNG"
    return None


class _Walker(ast.NodeVisitor):
    """The one AST pass filling a :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary) -> None:
        self.s = summary
        posix = summary.path.replace("\\", "/")
        self.is_rng_module = posix.endswith(RNG_MODULE_SUFFIX)
        self.in_eng_scope = _in_scope(posix, ENG_SCOPES)
        self.in_sim_scope = _in_scope(posix, SIM_SCOPES)
        self.in_flt_scope = _in_scope(posix, FLT_SCOPES)
        self.in_perf_scope = _in_scope(posix, PERF_SCOPES)
        #: Dotted package name when this file is a repro package __init__
        #: (API001), else None.
        self.package = (
            summary.module
            if summary.is_package and summary.module.split(".")[0] == "repro"
            else None
        )
        #: Tree depth of the node being visited (orders the UNIT-X inputs).
        self._depth = 0
        #: How many enclosing for-loops/comprehensions iterate a grid
        #: (PERF001 fires on evaluate_ms calls while this is positive).
        self._grid_loop_depth = 0
        self._class_stack: list[str] = []
        #: The top-level function being walked; nested defs inline into it.
        self._fn: FunctionInfo | None = None
        #: Module-level statements land in a pseudo-function so e.g. a
        #: task registered at import time is still seen.
        self.module_fn = FunctionInfo(qualname=MODULE_SCOPE, line=1, col=0)
        # Facts about self._fn that are complete only once its whole body
        # (nested defs included) has been walked: ``global`` names, local
        # bindings, and the writes whose classification needs them.
        self._globals: set[str] = set()
        self._locals: set[str] = set()
        self._pending_writes: list[tuple[str | None, str, dict]] = []

    # -- plumbing ----------------------------------------------------------

    def visit(self, node: ast.AST) -> None:
        self._depth += 1
        getattr(self, "visit_" + node.__class__.__name__, self.generic_visit)(node)
        self._depth -= 1

    def generic_visit(self, node: ast.AST) -> None:
        # ast.NodeVisitor.generic_visit minus the Load/Store/Del context
        # leaves, which no rule reads.
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self.visit(item)
            elif isinstance(value, ast.AST) and name != "ctx":
                self.visit(value)

    def visit_Constant(self, node: ast.Constant) -> None:
        # A leaf; skips NodeVisitor's deprecated visit_Num/visit_Str lookup.
        pass

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        self.s.findings.append(
            Finding(
                code=code,
                message=message,
                path=self.s.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
            )
        )

    @property
    def _scope(self) -> FunctionInfo:
        return self._fn if self._fn is not None else self.module_fn

    def _at_module_level(self) -> bool:
        return self._fn is None and not self._class_stack

    def _resolve(self, name: str) -> str:
        """Expand the head of a dotted name through the import table.

        ``perf_counter`` -> ``time.perf_counter``; ``dt.now`` ->
        ``datetime.now`` when ``import datetime as dt``.
        """
        head, _, rest = name.partition(".")
        target = self.s.imports.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target

    def _bind(self, target: ast.expr | None) -> None:
        if self._fn is not None and target is not None:
            self._locals |= _bound_names(target)

    # -- module scope (RNG002, API001) -------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                if stmt.value is None:
                    continue
                for call in _eager_calls(stmt.value):
                    name = _dotted(call.func)
                    if name in _RNG_CONSTRUCTORS:
                        self._add(
                            "RNG002",
                            stmt,
                            f"module-level RNG state via {name}(); construct "
                            "generators inside functions and thread them through",
                        )
                        break
        if self.package is not None:
            self._check_public_api(node)
        self.generic_visit(node)

    def _check_public_api(self, node: ast.Module) -> None:
        """API001: public binds in a repro package __init__ vs ``__all__``."""
        exported: list[str] | None = None
        has_all = False
        public: list[tuple[str, ast.AST]] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__all__":
                        has_all = True
                        if stmt.value is not None:
                            exported = _literal_all(stmt.value)
                    elif not target.id.startswith("_"):
                        public.append((target.id, stmt))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    public.append((stmt.name, stmt))
            elif isinstance(stmt, ast.ImportFrom):
                source = self._import_source(stmt)
                if not source.startswith("repro"):
                    continue
                if source == self.package:
                    # Submodule re-import (exposes a module, not a name).
                    continue
                for alias in stmt.names:
                    bound = alias.asname or alias.name
                    if bound != "*" and not bound.startswith("_"):
                        public.append((bound, stmt))
        if not has_all:
            if public:
                names = ", ".join(sorted({n for n, _ in public}))
                self._add(
                    "API001",
                    node,
                    f"package __init__ binds public names ({names}) but "
                    "declares no __all__",
                )
            return
        if exported is None:
            # __all__ exists but is not a literal list of strings; the
            # surface cannot be checked statically.
            return
        listed = set(exported)
        for name, bind_node in public:
            if name not in listed:
                self._add(
                    "API001",
                    bind_node,
                    f"public name '{name}' is bound in {self.package}.__init__ "
                    "but missing from __all__",
                )

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.s.imports[alias.asname] = alias.name
            else:
                # ``import a.b.c`` binds ``a``; dotted references resolve
                # through the full path, so map the head to itself.
                head = alias.name.split(".")[0]
                self.s.imports.setdefault(head, head)

    def _import_source(self, node: ast.ImportFrom) -> str:
        """The absolute dotted module an ImportFrom pulls names from."""
        if node.level == 0:
            return node.module or ""
        parts = self.s.module.split(".")
        if not self.s.is_package:
            parts = parts[:-1]
        # Level 1 is the containing package; each further level climbs one.
        parts = parts[: len(parts) - (node.level - 1)] if node.level > 1 else parts
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy.random" and not self.is_rng_module:
            self._add(
                "RNG001",
                node,
                "import from numpy.random outside repro/util/rng.py; use "
                "repro.util.rng.as_generator/spawn_child",
            )
        source = self._import_source(node)
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            self.s.imports[bound] = f"{source}.{alias.name}" if source else alias.name

    # -- classes and functions ---------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._fn is not None:
            # A class defined inside a function: analyze its methods as
            # part of the enclosing function (same inlining rule as
            # nested defs).
            self.generic_visit(node)
            return
        bases = [b for b in (_dotted(base) for base in node.bases) if b]
        self.s.classes[node.name] = {"bases": bases, "methods": []}
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        positional_and_keyword = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in positional_and_keyword:
            self._check_unit_name(arg.arg, arg)
        self._check_defaults(node)
        if self._fn is not None:
            # Nested def: inline into the parent (see FunctionInfo).
            self.generic_visit(node)
            return
        qual = (
            f"{self._class_stack[-1]}.{node.name}"
            if self._class_stack
            else node.name
        )
        params = [a.arg for a in positional_and_keyword]
        info = FunctionInfo(
            qualname=qual, line=node.lineno, col=node.col_offset, params=params
        )
        self.s.functions[qual] = info
        if self._class_stack:
            self.s.classes[self._class_stack[-1]]["methods"].append(node.name)
        self._fn = info
        self._globals = set()
        # Names bound locally (params, assignments, loop/with/except/walrus
        # targets): a local that shadows an import is not module state, so
        # attribute writes through it must not count as global writes.
        self._locals = set(params)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                self._locals.add(extra.arg)
        self._pending_writes = []
        self.generic_visit(node)
        self._fn = None
        local = self._locals - self._globals
        info.global_writes = [
            entry
            for test, head, entry in self._pending_writes
            if test is None
            or (head in self._globals if test == "global" else head not in local)
        ]

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        """ARG001: mutable default arguments."""
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is not None and _is_mutable_literal(default):
                self._add(
                    "ARG001",
                    default,
                    "mutable default argument; use None and construct inside",
                )

    def _check_unit_name(self, name: str, node: ast.AST) -> None:
        """UNIT001: duration-bearing names carry a unit suffix."""
        if _needs_unit_suffix(name):
            self._add(
                "UNIT001",
                node,
                f"duration-bearing name '{name}' lacks a unit suffix "
                "(_ms/_us/_ns/_s)",
            )

    # -- bindings and module-state writes ----------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    self._check_unit_name(sub.id, sub)
                elif isinstance(sub, ast.Attribute):
                    self._check_unit_name(sub.attr, sub)
        self._record_targets(node.targets, node, "assign")
        for target in node.targets:
            self._bind(target)
        if (
            self._fn is not None
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            self._fn.unit_assigns.append((self._depth, node))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            self._check_unit_name(target.id, target)
        elif isinstance(target, ast.Attribute):
            self._check_unit_name(target.attr, target)
        self._record_targets([target], node, "assign")
        self._bind(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_targets([node.target], node, "augassign")
        self._bind(node.target)
        if self._fn is not None:
            self._fn.unit_exprs.append((self._depth, node))
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        # The global statement marks which bare names are module state.
        if self._fn is not None:
            self._globals.update(node.names)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._bind(node.target)
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        self._bind(node.optional_vars)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._bind(node.target)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._bind(node.target)
        self.generic_visit(node)

    def _record_targets(
        self, targets: list[ast.expr], stmt: ast.stmt, how: str
    ) -> None:
        """Module variables at module level; module-state writes elsewhere.

        A dotted target whose head name the function binds *locally* (and
        does not declare ``global``) is not module state, however much it
        shadows an import or a module variable — ``tl = Timeline();
        tl.cursor = 0`` writes a local object even when ``tl`` is also an
        imported module's name.  Both facts are known only at the end of
        the function, so its writes wait in ``_pending_writes``.
        """
        if self._at_module_level():
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    self.s.module_vars.add(target.id)
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self._write("global", target.id, target.id, stmt, f"global-{how}")
            elif isinstance(target, ast.Subscript):
                base = _dotted(target.value)
                if base is not None and self._is_module_state(base):
                    self._write("local", base, base, stmt, "subscript")
            elif isinstance(target, ast.Attribute):
                base = _dotted(target.value)
                if base is not None and base in self.s.imports:
                    self._write(
                        "local", base, f"{base}.{target.attr}", stmt, "module-attr"
                    )

    def _write(
        self, test: str | None, name: str, shown: str, node: ast.AST, how: str
    ) -> None:
        """One candidate module-state write.

        *test* says how the function's final scope facts settle it:
        ``"global"`` keeps it iff *name* is declared ``global``;
        ``"local"`` keeps it unless *name*'s head is a local binding;
        ``None`` keeps it.  Class bodies at module level have no function
        scope: no ``global`` declarations, no locals.
        """
        entry = {"name": shown, "line": node.lineno, "col": node.col_offset, "how": how}
        head = name.split(".")[0]
        if self._fn is not None:
            self._pending_writes.append((test, head, entry))
        elif test != "global":
            self.module_fn.global_writes.append(entry)

    def _is_module_state(self, dotted: str) -> bool:
        head = dotted.split(".")[0]
        return head in self.s.module_vars or (
            "." in dotted and head in self.s.imports
        )

    # -- calls -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._scope
        func = node.func
        name = _dotted(func)
        if name is not None:
            resolved = self._resolve(name)
            self._check_call(node, name, resolved)
            kind = _entropy_kind(resolved)
            if kind is not None:
                fn.entropy.append(
                    {
                        "name": resolved,
                        "line": node.lineno,
                        "col": node.col_offset,
                        "kind": kind,
                    }
                )
            fn.calls.append((name, node))
        position = TASK_HELPERS.get((name or "").rsplit(".", 1)[-1])
        if position is not None:
            task = [kw.value for kw in node.keywords if kw.arg == "task"]
            for target in task or node.args[position : position + 1]:
                self._record_task(node, name, target, fn)
        if isinstance(func, ast.Attribute):
            if func.attr in TASK_APIS and node.args:
                self._record_task(node, f".{func.attr}", node.args[0], fn)
            if func.attr in MUTATING_METHODS and not self._at_module_level():
                base = _dotted(func.value)
                if base is not None and base.split(".")[0] in self.s.module_vars:
                    self._write(None, base, base, node, f".{func.attr}()")
            if self._grid_loop_depth > 0 and func.attr == "evaluate_ms":
                self._add(
                    "PERF001",
                    node,
                    "scalar evaluate_ms inside a loop over a threshold grid; "
                    "price the whole grid in one pass via "
                    "repro.core.problem.evaluate_grid (docs/PERFORMANCE.md)",
                )
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str, resolved: str) -> None:
        """RNG001 / RNG002 / SIM001 on one named call."""
        if not self.is_rng_module and (
            name.startswith(_NP_RANDOM) or resolved.startswith(_NP_RANDOM)
        ):
            self._add(
                "RNG001",
                node,
                f"{name}() outside repro/util/rng.py; route randomness "
                "through repro.util.rng (as_generator/spawn_child/stable_seed)",
            )
        if name in _GLOBAL_SEED_CALLS:
            self._add(
                "RNG002",
                node,
                f"{name}() mutates global RNG state; seed an explicit "
                "Generator instead",
            )
        if self.in_sim_scope:
            wall_name = name if name in WALL_CLOCK_CALLS else resolved
            if wall_name in WALL_CLOCK_CALLS:
                self._add(
                    "SIM001",
                    node,
                    f"wall-clock read {wall_name}() in simulator code; the "
                    "simulated clock is repro.platform.timeline.Timeline",
                )

    def _record_task(
        self, node: ast.Call, api: str, target: ast.expr, fn: FunctionInfo
    ) -> None:
        """One pool registration; *api* is the call as written
        (``.cached_map`` on a receiver, ``units`` for a helper)."""
        fn.task_regs.append(
            {
                "api": api,
                "fn": _dotted(target),
                "is_lambda": isinstance(target, ast.Lambda),
                "line": node.lineno,
                "col": node.col_offset,
            }
        )

    # -- os.environ reads --------------------------------------------------

    def _environ_read(self, node: ast.Subscript | ast.Attribute) -> None:
        self._scope.entropy.append(
            {
                "name": "os.environ",
                "line": node.lineno,
                "col": node.col_offset,
                "kind": "environment read",
            }
        )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        base = _dotted(node.value)
        if (
            base is not None
            and not isinstance(node.ctx, ast.Store)
            and self._resolve(base) == "os.environ"
        ):
            self._environ_read(node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # ``os.environ.get(...)`` / bare ``os.environ`` reads.
        dotted = _dotted(node)
        if dotted is not None and self._resolve(dotted) == "os.environ":
            self._environ_read(node)
        self.generic_visit(node)

    # -- loops: unordered iteration (DET002), PERF001 -----------------------

    def _check_iteration(self, iter_node: ast.expr, where: ast.AST) -> None:
        """Record iteration in unstable order with a human-readable label."""
        label = None
        if isinstance(iter_node, ast.Set):
            label = "set literal"
        elif isinstance(iter_node, ast.SetComp):
            label = "set comprehension"
        elif isinstance(iter_node, ast.Call):
            name = _dotted(iter_node.func)
            if name is not None:
                resolved = self._resolve(name)
                tail = resolved.split(".")[-1]
                if resolved in {"set", "frozenset"} or resolved in _UNORDERED_CALLS:
                    label = f"{resolved}(...)"
                elif tail in _UNORDERED_METHODS:
                    label = f".{tail}(...)"
        if label is not None:
            self._scope.unordered.append(
                {
                    "what": label,
                    "line": getattr(where, "lineno", 1),
                    "col": getattr(where, "col_offset", 0),
                }
            )

    def _visit_loop(self, node: ast.AST, over_grid: bool) -> None:
        self._grid_loop_depth += over_grid
        self.generic_visit(node)
        self._grid_loop_depth -= over_grid

    def visit_For(self, node: ast.For) -> None:
        self._bind(node.target)
        self._check_iteration(node.iter, node)
        self._visit_loop(node, self.in_perf_scope and _is_grid_iterable(node.iter))

    def _visit_comprehension(self, node: ast.expr) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter, node)
        self._visit_loop(
            node,
            self.in_perf_scope
            and any(_is_grid_iterable(gen.iter) for gen in node.generators),
        )

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- exception handlers (ENG001) ---------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if (
            self.in_eng_scope
            and _is_broad_handler(node.type)
            and not _handler_surfaces_failure(node)
        ):
            self._add(
                "ENG001",
                node,
                "broad except in engine code swallows the failure; "
                "re-raise, or record it (obs counter, warning, or a "
                "record_*/…_failure helper) so degradation is never silent",
            )
        if self._fn is not None and node.name is not None:
            self._locals.add(node.name)
        self.generic_visit(node)

    # -- arithmetic and comparisons (FLT001, UNIT-X inputs) ----------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self._fn is not None:
            self._fn.unit_exprs.append((self._depth, node))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.in_flt_scope:
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands[:-1], operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (
                    _is_float_expr(left) or _is_float_expr(right)
                ):
                    self._add(
                        "FLT001",
                        node,
                        "== / != on a float expression; compare with a "
                        "tolerance (math.isclose) or restructure",
                    )
                    break
        if self._fn is not None:
            self._fn.unit_exprs.append((self._depth, node))
        self.generic_visit(node)


def summarize_source(
    source: str, *, module: str, path: str, is_package: bool = False
) -> ModuleSummary:
    """Parse *source* once and walk it once into a :class:`ModuleSummary`."""
    summary = ModuleSummary(
        module=module,
        path=path,
        is_package=is_package,
        suppressions=parse_suppressions(source),
    )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        summary.syntax_error = Finding(
            code="SYN001",
            message=f"syntax error: {exc.msg}",
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
        )
        summary.findings.append(summary.syntax_error)
        return summary
    walker = _Walker(summary)
    walker.visit(tree)
    module_fn = walker.module_fn
    if module_fn.calls or module_fn.task_regs or module_fn.entropy:
        summary.functions[MODULE_SCOPE] = module_fn
    return summary


def iter_project_files(root: Path) -> list[Path]:
    """All ``*.py`` files under *root*, sorted for stable module order."""
    return sorted(root.rglob("*.py"))


def module_name_for(root: Path, file: Path) -> str:
    """Dotted module name of *file* relative to project *root*.

    When *root* is itself a package (has ``__init__.py``) its name heads
    every module (``repro.engine.parallel`` for root ``src/repro``);
    otherwise files are named relative to *root* alone, which is what the
    fixture projects in the test suite use.
    """
    rel = file.relative_to(root)
    parts = list(rel.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    if (root / "__init__.py").exists():
        parts = [root.name, *parts]
    return ".".join(parts) if parts else root.name


def summarize_file(root: Path, file: Path) -> ModuleSummary:
    source = file.read_text(encoding="utf-8")
    rel = file.relative_to(root)
    return summarize_source(
        source,
        module=module_name_for(root, file),
        path=str(file),
        is_package=rel.parts[-1] == "__init__.py",
    )
