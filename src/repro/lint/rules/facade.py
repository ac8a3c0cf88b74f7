"""RPR007: the public facade's ``__all__`` matches the documented surface.

``repro.api`` is the stable public surface of the reproduction: its
``__all__`` is the contract that ``docs/SERVICE.md`` and the README
document, that the CLI and the ``repro serve`` client are built on, and
that downstream callers may rely on across PRs.  Like RPR004 pins the
dispatch sets, this rule pins the facade: the documented surface lives
here as a literal, and any drift between it and the module's
``__all__`` -- a name added without documentation, a documented name
dropped, an export that is not actually defined -- is a finding.
Changing the public surface is allowed, but it must be done in both
places (and in the docs) at once.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.findings import Finding, Rule

# Files the rule engages on (the facade module, wherever it lives --
# fixtures included).
FACADE_BASENAME = "api.py"

# The documented public surface (docs/SERVICE.md "Public API" and the
# README quick-start).  Sorted; ``__all__`` must equal it exactly.
FACADE_SURFACE = (
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceTimeoutError",
    "SessionConfig",
    "SessionStats",
    "SimRequest",
    "SimulationSession",
    "WireFormatError",
    "connect",
    "scaleout",
    "session",
    "simulate",
    "sweep",
)


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names bound at a module's top level (defs, classes, imports,
    assignments)."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
    return bound


def _find_all(tree: ast.Module):
    """The module's ``__all__`` assignment node, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return node
    return None


class FacadeSurfaceRule(Rule):
    """Pin the facade module's ``__all__`` to the documented surface."""

    code = "RPR007"
    name = "facade-surface-parity"
    rationale = (
        "repro.api is the documented public surface; its __all__ must "
        "stay a sorted literal equal to the pinned surface, with every "
        "exported name actually bound in the module -- so the API, the "
        "docs, and this rule change together or not at all"
    )

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        """Yield one finding per facade/documentation divergence."""
        if path.name != FACADE_BASENAME:
            return
        node = _find_all(tree)
        if node is None:
            yield self.finding(
                "facade module defines no __all__ (the documented "
                "public surface must be pinned explicitly)",
                line=1,
            )
            return
        if not isinstance(node.value, (ast.List, ast.Tuple)) or not all(
            isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            for elt in node.value.elts
        ):
            yield self.finding(
                "__all__ must be a literal list/tuple of strings so the "
                "surface is statically checkable",
                node=node,
            )
            return
        names = [elt.value for elt in node.value.elts]
        if names != sorted(names):
            yield self.finding(
                "__all__ is not sorted (keep the surface listing "
                "deterministic)",
                node=node,
            )
        for name in sorted(set(names), key=names.index):
            if names.count(name) > 1:
                yield self.finding(
                    f"name {name!r} appears more than once in __all__",
                    node=node,
                )
        for name in FACADE_SURFACE:
            if name not in names:
                yield self.finding(
                    f"documented public name {name!r} is missing from "
                    "__all__ (update FACADE_SURFACE and the docs if it "
                    "was removed on purpose)",
                    node=node,
                )
        bound = _module_bindings(tree)
        for name in names:
            if name not in FACADE_SURFACE:
                yield self.finding(
                    f"{name!r} in __all__ is not part of the documented "
                    "public surface (document it and add it to "
                    "FACADE_SURFACE, or drop the export)",
                    node=node,
                )
            if name not in bound:
                yield self.finding(
                    f"exported name {name!r} is not defined in the "
                    "facade module",
                    node=node,
                )
