"""UNIT-X: interprocedural unit inference and propagation.

The repository's naming convention carries units: ``_ms`` / ``_us`` /
``_ns`` / ``_s`` suffixes for durations (with ``wall``/``sim`` tokens
distinguishing the two clocks), ``_bytes`` for sizes, ``n_``/``_count``
for element counts.  The per-file ``UNIT001`` rule only checks that
duration names *carry* a suffix; it cannot see a millisecond value flow
into a microsecond parameter two modules away.  This module can: it
assigns a :class:`Unit` to names, expressions, parameters, and return
values, and :func:`check_units` walks the project call graph flagging

``UNITX001``
    Mixed-unit arithmetic or comparison inside one function: ``a_ms +
    b_us``, ``total_ms < limit_s``, ``wall_ms - sim_ms`` — including
    through local assignments (``x = f_ms(); x + y_us``).
``UNITX002``
    A call-site argument whose inferred unit conflicts with the callee
    parameter's declared unit (``hold(delay_us)`` into
    ``def hold(delay_ms)``), across module boundaries.
``UNITX003``
    A unit-agnostic parameter that different call sites feed *different*
    units (one caller passes ``_ms``, another ``_us``): the function
    cannot be correct for both.

Units only ever *flag conflicts between two known units*; an unknown
operand never fires.  Multiplication and division clear the unit (they
are how legitimate conversions are written), so ``dur_us / 1e3`` flows on
as unknown instead of poisoning downstream checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from operator import itemgetter

from repro.analysis.findings import Finding

#: Duration-suffix -> canonical time scale.  UNIT001 accepts exactly
#: these suffixes, so the two rules never disagree on what carries a unit.
TIME_SUFFIXES = {
    "_ms": "ms",
    "_us": "us",
    "_ns": "ns",
    "_s": "s",
    "_sec": "s",
    "_seconds": "s",
}

#: Name tokens that mark which *clock* a duration belongs to.
_CLOCK_TOKENS = {"wall": "wall", "sim": "sim", "simulated": "sim"}

#: Suffix/prefix conventions for the non-time dimensions.
_BYTES_SUFFIXES = ("_bytes", "_nbytes")
_COUNT_SUFFIXES = ("_count", "_counts")
_COUNT_PREFIXES = ("n_", "num_")


@dataclass(frozen=True)
class Unit:
    """One inferred unit: a dimension, a scale, and (for time) a clock.

    ``dim`` is ``"time"`` / ``"bytes"`` / ``"count"``; ``scale`` is the
    time scale (``"ms"``, ``"us"``, ...) or ``""`` for non-time
    dimensions; ``clock`` is ``"wall"`` / ``"sim"`` when the name states
    it, else ``""`` (unknown clock — compatible with either).
    """

    dim: str
    scale: str = ""
    clock: str = ""

    def render(self) -> str:
        clock = f"{self.clock} " if self.clock else ""
        return f"{clock}{self.scale or self.dim}"

    def conflicts_with(self, other: "Unit") -> bool:
        """Whether two *known* units cannot legally meet in +/-/compare."""
        if self.dim != other.dim:
            return True
        if self.dim == "time":
            if self.scale != other.scale:
                return True
            if self.clock and other.clock and self.clock != other.clock:
                return True
        return False

    def key(self) -> str:
        return f"{self.dim}:{self.scale}:{self.clock}"


def unit_of_name(name: str) -> Unit | None:
    """The unit a bare identifier's spelling declares, or ``None``.

    ``chunk_wall_ms`` -> wall ms; ``delay_us`` -> us; ``n_rows`` ->
    count; ``payload_bytes`` -> bytes; ``threshold`` -> ``None``.
    """
    lower = name.lower()
    tokens = [t for t in lower.split("_") if t]
    for suffix, scale in TIME_SUFFIXES.items():
        if lower.endswith(suffix):
            clock = ""
            for token in tokens:
                if token in _CLOCK_TOKENS:
                    clock = _CLOCK_TOKENS[token]
                    break
            return Unit("time", scale, clock)
    if lower.endswith(_BYTES_SUFFIXES) or lower == "nbytes":
        return Unit("bytes")
    if lower.endswith(_COUNT_SUFFIXES) or lower.startswith(_COUNT_PREFIXES):
        return Unit("count")
    return None


class UnitEnv:
    """Flow-insensitive unit environment for one function body.

    Parameters and assigned names get units; lookups fall back to the
    spelling of the name itself, so ``x = probe_ms(); x + y_us`` flags
    even though ``x`` is unit-less by name.
    """

    def __init__(self, params: list[str]) -> None:
        self._env: dict[str, Unit] = {}
        for param in params:
            unit = unit_of_name(param)
            if unit is not None:
                self._env[param] = unit

    def bind(self, name: str, unit: Unit | None) -> None:
        declared = unit_of_name(name)
        if declared is not None:
            # A suffixed name keeps its declared unit; the conflict (if
            # any) is reported by the arithmetic/assignment checks.
            self._env[name] = declared
        elif unit is not None:
            self._env[name] = unit
        else:
            self._env.pop(name, None)

    def unit_of(self, node: ast.expr) -> Unit | None:
        """The unit of an expression, or ``None`` when unknown.

        Names consult the environment then their spelling; attribute
        reads use the attribute's spelling (``record.dur_us``); calls use
        the called name's spelling (``problem.evaluate_ms(...)`` -> ms);
        ``+``/``-`` propagate a shared unit; ``*``/``/`` and anything
        else clear it.
        """
        if isinstance(node, ast.Name):
            env_unit = self._env.get(node.id)
            return env_unit if env_unit is not None else unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return unit_of_name(node.attr)
        if isinstance(node, ast.Call):
            func = node.func
            tail = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            return unit_of_name(tail) if tail is not None else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left = self.unit_of(node.left)
            right = self.unit_of(node.right)
            if left is not None and right is not None and not left.conflicts_with(right):
                return left
            return left if right is None else right if left is None else None
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.IfExp):
            body = self.unit_of(node.body)
            return body if body is not None else self.unit_of(node.orelse)
        return None


#: Comparison operators where a unit mismatch is meaningful.
_ORDERED_CMP = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def local_unit_conflicts(
    env: UnitEnv, node: ast.expr
) -> list[tuple[ast.expr, Unit, Unit]]:
    """UNITX001 conflicts evident in one expression (non-recursive).

    Returns ``(node, left_unit, right_unit)`` triples for ``+``/``-``
    binops and ordered comparisons whose two operands carry *known*,
    conflicting units.
    """
    conflicts: list[tuple[ast.expr, Unit, Unit]] = []
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left, right = env.unit_of(node.left), env.unit_of(node.right)
        if left is not None and right is not None and left.conflicts_with(right):
            conflicts.append((node, left, right))
    elif isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, operands[:-1], operands[1:]):
            if not isinstance(op, _ORDERED_CMP):
                continue
            left, right = env.unit_of(lhs), env.unit_of(rhs)
            if left is not None and right is not None and left.conflicts_with(right):
                conflicts.append((node, left, right))
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
        target_unit = (
            env.unit_of(node.target)
            if isinstance(node.target, (ast.Name, ast.Attribute))
            else None
        )
        value_unit = env.unit_of(node.value)
        if (
            target_unit is not None
            and value_unit is not None
            and target_unit.conflicts_with(value_unit)
        ):
            conflicts.append((node, target_unit, value_unit))
    return conflicts


#: Rule catalog fragment merged into the CLI/SARIF catalogs.
UNITX_RULES: dict[str, str] = {
    "UNITX001": "mixed-unit arithmetic/comparison within one function",
    "UNITX002": "call-site argument unit conflicts with the callee parameter's unit",
    "UNITX003": "one parameter receives different units from different call sites",
}


def _unit_env(info) -> UnitEnv:
    """Bind a function's single-name assignments, in ``ast.walk`` order."""
    env = UnitEnv(info.params)
    for _, node in sorted(info.unit_assigns, key=itemgetter(0)):
        env.bind(node.targets[0].id, env.unit_of(node.value))
    return env


def _bind_units(
    params: list[str],
    bound: bool,
    arg_units: list[Unit | None],
    kwarg_units: dict[str, Unit],
) -> dict[str, Unit]:
    """Match call-site argument units to callee parameter names.

    *bound* (from the resolver) says the call form supplies the callee's
    first parameter itself — a constructor, or a method called through a
    receiver — so positional arguments start at the second parameter.
    ``Class.meth(inst, x)`` passes ``self`` explicitly and binds from the
    first.
    """
    usable = params[1:] if bound else params
    bindings: dict[str, Unit] = {}
    for index, unit in enumerate(arg_units):
        if unit is not None and index < len(usable):
            bindings[usable[index]] = unit
    for kw, unit in kwarg_units.items():
        if kw in params:
            bindings[kw] = unit
    return bindings


def check_units(graph) -> list[Finding]:
    """All UNIT-X findings over a :class:`~repro.analysis.projectgraph.ProjectGraph`.

    Unit inference runs here rather than in the per-file walk, so
    ``lint`` never pays for it.  UNITX001 checks each function's
    collected arithmetic against its unit environment; UNITX002/UNITX003
    bind each resolved call site's argument units to the callee's
    parameters.  Module-level statements are not inferred over.  (The
    graph is duck-typed to avoid a circular import.)
    """
    from repro.analysis.projectgraph import short_id
    from repro.analysis.summary import MODULE_SCOPE

    envs = {
        fid: _unit_env(info)
        for fid, (_, info) in graph.functions.items()
        if info.qualname != MODULE_SCOPE
    }
    findings: list[Finding] = []
    for fid, (summary, info) in sorted(graph.functions.items()):
        if fid not in envs:
            continue
        seen: set[tuple] = set()
        for _, node in sorted(info.unit_exprs, key=itemgetter(0)):
            for expr, left, right in local_unit_conflicts(envs[fid], node):
                key = (expr.lineno, expr.col_offset, left, right)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    Finding(
                        code="UNITX001",
                        message=(
                            f"mixed-unit arithmetic in {short_id(fid)}: "
                            f"{left.render()} combined with {right.render()}; "
                            "convert explicitly (multiply/divide) first"
                        ),
                        path=summary.path,
                        line=expr.lineno,
                        col=expr.col_offset,
                    )
                )
    # UNITX002 + the per-(callee, param) evidence UNITX003 needs.
    incoming: dict[tuple[str, str], dict[str, tuple[Unit, str, int]]] = {}
    for fid, (summary, info) in graph.functions.items():
        env = envs.get(fid)
        if env is None:
            continue
        for name, call in info.calls:
            arg_units = [env.unit_of(a) for a in call.args]
            kwarg_units = {
                kw.arg: unit
                for kw in call.keywords
                if kw.arg is not None and (unit := env.unit_of(kw.value)) is not None
            }
            if all(u is None for u in arg_units) and not kwarg_units:
                continue
            for callee_fid, bound in graph.resolve(summary, info.qualname, name):
                params = graph.functions[callee_fid][1].params
                bindings = _bind_units(params, bound, arg_units, kwarg_units)
                for param, unit in bindings.items():
                    declared = unit_of_name(param)
                    if declared is None:
                        sites = incoming.setdefault((callee_fid, param), {})
                        sites.setdefault(unit.key(), (unit, summary.path, call.lineno))
                    elif declared.conflicts_with(unit):
                        findings.append(
                            Finding(
                                code="UNITX002",
                                message=(
                                    f"argument carrying {unit.render()} flows "
                                    f"into parameter '{param}' "
                                    f"({declared.render()}) of "
                                    f"{short_id(callee_fid)}"
                                ),
                                path=summary.path,
                                line=call.lineno,
                                col=call.col_offset,
                            )
                        )
    for (callee_fid, param), sites in sorted(incoming.items()):
        units = [sites[key][0] for key in sorted(sites)]
        conflicting = any(
            a.conflicts_with(b)
            for i, a in enumerate(units)
            for b in units[i + 1 :]
        )
        if not conflicting:
            continue
        callee_summary, callee = graph.functions[callee_fid]
        evidence = "; ".join(
            f"{unit.render()} from {path}:{line}"
            for _, (unit, path, line) in sorted(sites.items())
        )
        findings.append(
            Finding(
                code="UNITX003",
                message=(
                    f"parameter '{param}' of {short_id(callee_fid)} "
                    f"receives conflicting units across call sites "
                    f"({evidence}); name the parameter with a unit suffix "
                    "and convert at the callers"
                ),
                path=callee_summary.path,
                line=callee.line,
                col=callee.col,
            )
        )
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
