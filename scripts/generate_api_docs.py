#!/usr/bin/env python
"""Generate the Markdown API reference under docs/api/ from docstrings.

Uses only the standard library (``pkgutil`` + ``inspect``).  Output is
deterministic — modules, classes, and members are emitted in sorted
order and memory addresses are scrubbed — so the generated files are
committed and CI fails when they drift from the code
(``git diff --exit-code docs/api``).

Regenerate after changing any public docstring or signature::

    PYTHONPATH=src python scripts/generate_api_docs.py

Layout: one ``docs/api/repro.<subpackage>.md`` per subpackage (all of
its modules concatenated), plus ``docs/api/index.md`` linking them.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import re
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

OUT_DIR = os.path.join(ROOT, "docs", "api")

_ADDR_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _clean(text: str) -> str:
    """Scrub memory addresses so output is reproducible run-to-run."""
    return _ADDR_RE.sub("", text)


def _signature(obj) -> str:
    try:
        return _clean(str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def _doc(obj) -> str:
    return inspect.getdoc(obj) or ""


def _public_names(module) -> list:
    if hasattr(module, "__all__"):
        return sorted(module.__all__)
    return sorted(
        name for name in vars(module)
        if not name.startswith("_")
    )


def _defined_here(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def _render_function(name: str, func, heading: str = "###") -> list:
    lines = [f"{heading} `{name}{_signature(func)}`", ""]
    doc = _doc(func)
    if doc:
        lines += [doc, ""]
    return lines


def _render_class(name: str, cls) -> list:
    bases = ", ".join(
        b.__name__ for b in cls.__bases__ if b is not object
    )
    title = f"### class `{name}{'(' + bases + ')' if bases else ''}`"
    lines = [title, ""]
    doc = _doc(cls)
    if doc:
        lines += [doc, ""]

    members = []
    for attr_name, attr in sorted(vars(cls).items()):
        if attr_name.startswith("_") and attr_name != "__init__":
            continue
        if isinstance(attr, property):
            members.append(("property", attr_name, attr))
        elif isinstance(attr, staticmethod):
            members.append(("staticmethod", attr_name, attr.__func__))
        elif isinstance(attr, classmethod):
            members.append(("classmethod", attr_name, attr.__func__))
        elif inspect.isfunction(attr):
            members.append(("method", attr_name, attr))

    for kind, attr_name, attr in members:
        if kind == "property":
            lines.append(f"- **`{attr_name}`** *(property)*")
            doc = _doc(attr)
        else:
            label = f" *({kind})*" if kind != "method" else ""
            lines.append(f"- **`{attr_name}{_signature(attr)}`**{label}")
            doc = _doc(attr)
        if doc:
            first = doc.strip().splitlines()[0]
            lines.append(f"  — {first}")
    if members:
        lines.append("")
    return lines


def _render_module(module) -> list:
    lines = [f"## Module `{module.__name__}`", ""]
    doc = _doc(module)
    if doc:
        lines += [doc, ""]

    classes, functions = [], []
    for name in _public_names(module):
        obj = getattr(module, name, None)
        if obj is None or not _defined_here(obj, module):
            continue
        if inspect.isclass(obj):
            classes.append((name, obj))
        elif inspect.isfunction(obj):
            functions.append((name, obj))

    for name, cls in classes:
        lines += _render_class(name, cls)
    for name, func in functions:
        lines += _render_function(name, func)
    return lines


def _iter_modules(package):
    """Yield the package module and all submodules, sorted by name."""
    yield package
    if not hasattr(package, "__path__"):
        return
    names = sorted(
        info.name
        for info in pkgutil.walk_packages(
            package.__path__, prefix=package.__name__ + "."
        )
        if not info.name.rsplit(".", 1)[-1].startswith("__")
    )
    for name in names:
        yield importlib.import_module(name)


def main() -> None:
    import repro

    subpackages = sorted(
        info.name
        for info in pkgutil.iter_modules(repro.__path__)
        if not info.name.startswith("_")
    )

    if os.path.isdir(OUT_DIR):
        shutil.rmtree(OUT_DIR)
    os.makedirs(OUT_DIR)

    index = [
        "# `repro` API reference",
        "",
        "Generated from docstrings by `scripts/generate_api_docs.py` —",
        "do not edit by hand.  Regenerate with:",
        "",
        "```bash",
        "PYTHONPATH=src python scripts/generate_api_docs.py",
        "```",
        "",
        "| package | synopsis |",
        "|---|---|",
    ]

    for sub in subpackages:
        package = importlib.import_module(f"repro.{sub}")
        lines = [f"# Package `repro.{sub}`", ""]
        for module in _iter_modules(package):
            lines += _render_module(module)
        filename = f"repro.{sub}.md"
        with open(os.path.join(OUT_DIR, filename), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines).rstrip() + "\n")
        synopsis = (_doc(package).splitlines() or [""])[0]
        index.append(f"| [`repro.{sub}`]({filename}) | {synopsis} |")
        print(f"wrote docs/api/{filename}")

    with open(os.path.join(OUT_DIR, "index.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(index) + "\n")
    print("wrote docs/api/index.md")


if __name__ == "__main__":
    main()
