"""Shared ``ast`` helpers for the rule set.

Nothing here is repo-specific; rules compose these primitives into the
actual contract checks.
"""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """The ``a.b.c`` form of a Name/Attribute chain, or None.

    Args:
        node: candidate expression node.

    Returns:
        The dotted path when the node is a pure attribute chain rooted
        at a plain name, else None (calls, subscripts, literals ...).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a Name/Attribute (``x.y.knob`` -> ``knob``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class ImportMap:
    """Local-name -> fully-qualified-path table built from imports.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from numpy.random
    import default_rng`` maps ``default_rng`` to
    ``numpy.random.default_rng``.  Relative imports keep their leading
    dots, so they never collide with the absolute stdlib/numpy paths the
    determinism rule matches against.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.table: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.table[local] = target
            elif isinstance(node, ast.ImportFrom):
                prefix = "." * node.level + (node.module or "")
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.table[local] = f"{prefix}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        """Fully-qualified path of an attribute chain, or None.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``;
        chains rooted at non-imported names (locals, ``self``) resolve
        to None.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        if root not in self.table:
            return None
        resolved = self.table[root]
        return f"{resolved}.{rest}" if rest else resolved


def str_const(node: ast.AST) -> str | None:
    """The value of a string-literal node, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def str_sequence(node: ast.AST) -> tuple[str, ...] | None:
    """The values of an all-string tuple/list/set literal, or None."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    values = [str_const(el) for el in node.elts]
    if any(v is None for v in values):
        return None
    return tuple(v for v in values if v is not None)
