"""RPR006: public simulation APIs stay docstring-covered.

An ``ast``-based docstring gate over the public APIs of
``repro.core``, ``repro.memory`` and ``repro.scale``.  Coverage is at
100% and the rule keeps it there: every public module, class, and
function in the covered packages must carry a docstring, and each
missing one is named.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.findings import Finding, Rule

# Packages whose public APIs must stay documented.
COVERED_PACKAGES = ("core", "memory", "scale")


def _documentable(name: str) -> bool:
    """Whether a def/class name is part of the public API.

    Leading-underscore names are exempt; that covers dunders too
    (``__init__`` etc. never need their own docstring).
    """
    return not name.startswith("_")


def walk_module(tree: ast.Module, filename: str):
    """Yield ``(qualname, node, has_docstring)`` for a module's API.

    Mirrors the original PR 6 gate exactly: module docstring first,
    then top-level defs/classes and class bodies (nested functions are
    implementation detail and are not walked).

    Args:
        tree: parsed module.
        filename: file name used in qualnames.
    """
    yield filename, tree, ast.get_docstring(tree) is not None

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not _documentable(child.name):
                    continue
                qualname = f"{prefix}{child.name}"
                yield qualname, child, ast.get_docstring(child) is not None
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, f"{qualname}.")

    yield from visit(tree, f"{filename}:")


def in_covered_package(parts: tuple[str, ...]) -> bool:
    """Whether a path (as parts) lies in a covered repro package."""
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and parts[i + 1] in COVERED_PACKAGES:
            return True
    return False


class DocstringCoverageRule(Rule):
    """Require docstrings on the covered packages' public APIs."""

    code = "RPR006"
    name = "docstring-coverage"
    rationale = (
        "the public APIs of repro.core/memory/scale are documentation-"
        "gated (PR 6); every public module, class and function there "
        "must carry a docstring"
    )

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        """Yield one finding per undocumented public object."""
        if not in_covered_package(path.resolve().parts):
            return
        for qualname, node, has_doc in walk_module(
            tree, path.name
        ):
            if has_doc:
                continue
            if isinstance(node, ast.Module):
                yield self.finding(
                    f"module {qualname} has no docstring", line=1
                )
            else:
                kind = (
                    "class" if isinstance(node, ast.ClassDef) else "function"
                )
                yield self.finding(
                    f"public {kind} {qualname!r} has no docstring",
                    node=node,
                )
