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
    the two sanctioned scalar loops (the ``evaluate_grid`` fallback
    itself and the oracle pool worker's chunk loop) carry line
    suppressions.
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
instead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.findings import Finding

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

#: Directories (repo-relative, posix) whose files count as simulator code.
SIM_SCOPES = ("repro/platform", "repro/hetero", "repro/core")

#: Directories where float equality is flagged.
FLT_SCOPES = ("repro/core", "repro/platform")

#: Directories where scalar grid sweeps are flagged (PERF001): the layers
#: that hold searches/oracles and the experiment drivers — the places a
#: stray scalar loop silently forfeits the batched-pricing fast path.
PERF_SCOPES = ("repro/core", "repro/experiments")

#: Directories where scalar Timeline appends in loops are flagged
#: (PERF002): the hetero kernels, whose pipelines record enough spans for
#: per-chunk ``tl.run``/``tl.overlap`` loops to show up in profiles — the
#: columnar batch APIs (``run_many``/``overlap_many``/``record_many``)
#: are the sanctioned shape.
PERF_TIMELINE_SCOPES = ("repro/hetero",)

#: Receiver names PERF002 treats as a Timeline: bare ``tl``/``timeline``
#: or any ``*.timeline`` attribute.  Name-based on purpose — the linter
#: is untyped, and these are the repo's only timeline spellings.
_TIMELINE_RECEIVERS = frozenset({"tl", "timeline"})

#: Scalar Timeline append methods with batch counterparts.
_SCALAR_TIMELINE_METHODS = frozenset({"run", "overlap", "record"})

#: Directories where swallowed broad excepts are flagged (ENG001): the
#: fault-tolerant execution layer, whose whole contract is that failures
#: are retried, surfaced, or counted — never silently dropped.
ENG_SCOPES = ("repro/engine",)

#: The one module allowed to touch numpy's RNG constructors directly.
RNG_MODULE_SUFFIX = "repro/util/rng.py"

_WALL_CLOCK = {
    "time.time",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.thread_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
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

# Tokens that mark a name as holding a length of time ("duration",
# "elapsed", ...) vs. tokens that mark it as dimensionless ("ratio", ...).
_TIMED_TOKENS = frozenset("duration elapsed makespan latency runtime".split())
_EXEMPT_TOKENS = frozenset(
    "ratio fraction frac pct percent count scale factor rate".split()
)
_UNIT_SUFFIXES = ("_ms", "_us", "_ns", "_s", "_sec", "_seconds")

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

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


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


def _needs_unit_suffix(name: str) -> bool:
    toks = _tokens(name)
    if not any(t in _TIMED_TOKENS for t in toks):
        return False
    if any(t in _EXEMPT_TOKENS for t in toks):
        return False
    return not name.lower().endswith(_UNIT_SUFFIXES)


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


def _is_timeline_receiver(node: ast.expr) -> bool:
    """Whether a call receiver syntactically names a Timeline (PERF002).

    Matches the repo's timeline spellings — ``tl``, ``timeline``, or any
    ``something.timeline`` attribute — and nothing else, so unrelated
    ``problem.run(...)`` / ``pool.run(...)`` calls never trip the rule.
    """
    if isinstance(node, ast.Name):
        return node.id in _TIMELINE_RECEIVERS
    if isinstance(node, ast.Attribute):
        return node.attr in _TIMELINE_RECEIVERS
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        posix = path.replace("\\", "/")
        self.is_rng_module = posix.endswith(RNG_MODULE_SUFFIX)
        self.in_eng_scope = any(f"{s}/" in posix or posix.endswith(s) for s in ENG_SCOPES)
        self.in_sim_scope = any(f"{s}/" in posix or posix.endswith(s) for s in SIM_SCOPES)
        self.in_flt_scope = any(f"{s}/" in posix or posix.endswith(s) for s in FLT_SCOPES)
        self.in_perf_scope = any(f"{s}/" in posix or posix.endswith(s) for s in PERF_SCOPES)
        self.in_timeline_perf_scope = any(
            f"{s}/" in posix or posix.endswith(s) for s in PERF_TIMELINE_SCOPES
        )
        #: How many enclosing for-loops/comprehensions iterate a grid
        #: (PERF001 fires on evaluate_ms calls while this is positive).
        self._grid_loop_depth = 0
        #: How many enclosing loops of any kind surround the current node
        #: (PERF002 fires on scalar timeline appends while this is positive).
        self._plain_loop_depth = 0
        #: Dotted package name when this file is a repro package __init__
        #: (e.g. ``repro.obs`` for ``src/repro/obs/__init__.py``), else None.
        self.package: str | None = None
        if posix.endswith("/__init__.py") or posix == "__init__.py":
            parts = posix.split("/")[:-1]
            if "repro" in parts:
                self.package = ".".join(parts[parts.index("repro"):])
        self.findings: list[Finding] = []
        #: Names bound by ``from time import perf_counter`` style imports.
        self._wall_clock_aliases: dict[str, str] = {}

    # -- plumbing ----------------------------------------------------------

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                code=code,
                message=message,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
            )
        )

    # -- module scope (RNG002) ---------------------------------------------

    @staticmethod
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

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = stmt.value
                if value is None:
                    continue
                for call in self._eager_calls(value):
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

    # -- package API surface (API001) --------------------------------------

    def _import_source(self, stmt: ast.ImportFrom) -> str:
        """The absolute dotted module an ImportFrom pulls names from."""
        if stmt.level == 0:
            return stmt.module or ""
        assert self.package is not None
        base = self.package.split(".")
        # Inside a package __init__, level 1 is the package itself, each
        # further level climbs one parent.
        base = base[: len(base) - (stmt.level - 1)] if stmt.level > 1 else base
        return ".".join(base + (stmt.module.split(".") if stmt.module else []))

    @staticmethod
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
                            exported = self._literal_all(stmt.value)
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

    # -- imports (RNG001 / SIM001 bookkeeping) -----------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy.random" and not self.is_rng_module:
            self._add(
                "RNG001",
                node,
                "import from numpy.random outside repro/util/rng.py; use "
                "repro.util.rng.as_generator/spawn_child",
            )
        if node.module in {"time", "datetime"}:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full in _WALL_CLOCK:
                    self._wall_clock_aliases[alias.asname or alias.name] = full
        self.generic_visit(node)

    # -- calls (RNG001 / RNG002 / SIM001) ----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is not None:
            if (
                name.startswith(("np.random.", "numpy.random."))
                and not self.is_rng_module
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
            wall_name = self._wall_clock_aliases.get(name, name)
            if wall_name in _WALL_CLOCK and self.in_sim_scope:
                self._add(
                    "SIM001",
                    node,
                    f"wall-clock read {wall_name}() in simulator code; the "
                    "simulated clock is repro.platform.timeline.Timeline",
                )
        if (
            self._grid_loop_depth > 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "evaluate_ms"
        ):
            self._add(
                "PERF001",
                node,
                "scalar evaluate_ms inside a loop over a threshold grid; "
                "price the whole grid in one pass via "
                "repro.core.problem.evaluate_grid (docs/PERFORMANCE.md)",
            )
        if (
            self._plain_loop_depth > 0
            and self.in_timeline_perf_scope
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCALAR_TIMELINE_METHODS
            and _is_timeline_receiver(node.func.value)
        ):
            self._add(
                "PERF002",
                node,
                f"scalar Timeline.{node.func.attr} inside a loop; collect "
                f"the spans and make one {node.func.attr}_many call "
                "(docs/PERFORMANCE.md)",
            )
        self.generic_visit(node)

    # -- loops (PERF001 / PERF002) -----------------------------------------

    def visit_For(self, node: ast.For) -> None:
        entered = self.in_perf_scope and _is_grid_iterable(node.iter)
        if entered:
            self._grid_loop_depth += 1
        self._plain_loop_depth += 1
        self.generic_visit(node)
        self._plain_loop_depth -= 1
        if entered:
            self._grid_loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._plain_loop_depth += 1
        self.generic_visit(node)
        self._plain_loop_depth -= 1

    def _visit_comprehension(self, node: ast.expr) -> None:
        entered = self.in_perf_scope and any(
            _is_grid_iterable(gen.iter) for gen in node.generators
        )
        if entered:
            self._grid_loop_depth += 1
        self._plain_loop_depth += 1
        self.generic_visit(node)
        self._plain_loop_depth -= 1
        if entered:
            self._grid_loop_depth -= 1

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- names (UNIT001) ---------------------------------------------------

    def _check_unit_name(self, name: str, node: ast.AST) -> None:
        if _needs_unit_suffix(name):
            self._add(
                "UNIT001",
                node,
                f"duration-bearing name '{name}' lacks a unit suffix "
                "(_ms/_us/_ns/_s)",
            )

    def _check_arguments(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            self._check_unit_name(arg.arg, arg)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    self._check_unit_name(sub.id, sub)
                elif isinstance(sub, ast.Attribute):
                    self._check_unit_name(sub.attr, sub)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            self._check_unit_name(target.id, target)
        elif isinstance(target, ast.Attribute):
            self._check_unit_name(target.attr, target)
        self.generic_visit(node)

    # -- defaults (ARG001) and params (UNIT001) ----------------------------

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is not None and _is_mutable_literal(default):
                self._add(
                    "ARG001",
                    default,
                    "mutable default argument; use None and construct inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_arguments(node)
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_arguments(node)
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- exception handlers (ENG001) ---------------------------------------

    @staticmethod
    def _is_broad_handler(type_node: ast.expr | None) -> bool:
        """Bare ``except`` or one naming Exception/BaseException."""
        if type_node is None:
            return True
        candidates = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        for candidate in candidates:
            dotted = _dotted(candidate)
            if dotted in {"Exception", "BaseException"} or (
                dotted is not None
                and dotted.endswith((".Exception", ".BaseException"))
            ):
                return True
        return False

    @staticmethod
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

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if (
            self.in_eng_scope
            and self._is_broad_handler(node.type)
            and not self._handler_surfaces_failure(node)
        ):
            self._add(
                "ENG001",
                node,
                "broad except in engine code swallows the failure; "
                "re-raise, or record it (obs counter, warning, or a "
                "record_*/…_failure helper) so degradation is never silent",
            )
        self.generic_visit(node)

    # -- comparisons (FLT001) ----------------------------------------------

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
        self.generic_visit(node)


def _suppressed_codes(line: str) -> set[str]:
    match = _SUPPRESS_RE.search(line)
    if not match:
        return set()
    return {c.strip().upper() for c in match.group(1).split(",") if c.strip()}


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint Python *source*, scoping path-dependent rules by *path*.

    Returns findings sorted by (line, col, code); line-level suppression
    comments are honored.  A syntax error yields a single ``SYN001``.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                code="SYN001",
                message=f"syntax error: {exc.msg}",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
            )
        ]
    linter = _Linter(path)
    linter.visit(tree)
    lines = source.splitlines()
    kept = []
    for finding in linter.findings:
        text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        suppressed = _suppressed_codes(text)
        if finding.code in suppressed or "ALL" in suppressed:
            continue
        kept.append(finding)
    return sorted(kept, key=lambda f: (f.line, f.col, f.code))


def lint_file(path: str | Path) -> list[Finding]:
    """Lint one file; the on-disk path scopes the path-dependent rules."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths: list[str | Path]) -> list[Finding]:
    """Lint files and/or directory trees (``*.py``, sorted, recursive)."""
    files: list[Path] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    findings: list[Finding] = []
    for file in files:
        findings.extend(lint_file(file))
    return findings
