#!/usr/bin/env python
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the public classes and functions
(module ``__all__`` where defined, else non-underscore top-level names),
and emits their signatures with the first paragraph of their docstrings.
Run after changing any public API:

    python tools/gen_api_docs.py

``tests/test_api_surface.py`` regenerates the document in memory (via
:func:`build`) and fails when it differs from the committed docs/API.md, so
any surface drift must be reviewed and re-snapshotted explicitly.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"

#: Module walk order (stable output).
PACKAGES = [
    "repro",
    "repro.core",
    "repro.platform",
    "repro.sparse",
    "repro.graphs",
    "repro.hetero",
    "repro.workloads",
    "repro.experiments",
    "repro.engine",
    "repro.serve",
    "repro.obs",
    "repro.analysis",
    "repro.util",
]


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_names(module) -> list[str]:
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [n for n in vars(module) if not n.startswith("_")]


def describe_module(qualname: str) -> list[str]:
    module = importlib.import_module(qualname)
    lines = [f"## `{qualname}`", ""]
    lines.append(first_paragraph(module.__doc__))
    lines.append("")
    seen = set()
    for name in public_names(module):
        obj = getattr(module, name, None)
        if obj is None or name in seen:
            continue
        seen.add(name)
        # Skip re-exported submodules.
        if inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            methods = [
                (m, fn)
                for m, fn in inspect.getmembers(obj, inspect.isfunction)
                if not m.startswith("_") and fn.__qualname__.startswith(obj.__name__)
            ]
            if methods:
                lines.append("")
                for m, fn in methods:
                    lines.append(
                        f"- `{m}{signature_of(fn)}` — {first_paragraph(fn.__doc__)}"
                    )
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
        else:
            kind = type(obj).__name__
            lines.append(f"### constant `{name}` ({kind})")
            lines.append("")
    return lines


def build() -> str:
    """The full API.md document as a string (used by the snapshot test)."""
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "Each entry shows the public signature and the first docstring",
        "paragraph; see the source for full documentation.",
        "",
        "## Deprecation policy",
        "",
        "Names listed in a package `__all__` are the stable surface.  When",
        "a name moves or a signature is generalized, the old spelling keeps",
        "working for one deprecation cycle and emits a `DeprecationWarning`",
        "naming its replacement; results through the shim stay bit-identical",
        "to the replacement path.  Current shims: none.",
        "",
    ]
    for qualname in PACKAGES:
        lines.extend(describe_module(qualname))
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    text = build()
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(text)
    print(f"wrote {OUT} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
