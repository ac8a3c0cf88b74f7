"""RPR005: artifact output must not depend on set or directory order.

The CLI's JSON/text artifacts are byte-compared across runs (the PR 5
bit-exactness contract) and cached results must reproduce cold ones
exactly.  Two classic order leaks break that silently:

* **set iteration** -- string hashing is randomized per process
  (``PYTHONHASHSEED``), so ``for x in {...}`` or ``list(set(...))``
  changes order between runs;
* **directory listings** -- ``os.listdir`` / ``Path.iterdir`` /
  ``glob`` return OS-dependent order.

Both are fine once wrapped in ``sorted(...)``.  Order-independent
consumers (``len``, ``sum``, ``min``, ``max``, ``any``, ``all``,
membership tests) are not flagged.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.astutil import dotted_name
from repro.lint.findings import Finding, Rule

# Call wrappers that preserve (and therefore leak) iteration order.
ORDER_PRESERVING = {"list", "tuple", "enumerate", "iter"}

# Directory-listing callables with OS-dependent order.
LISTING_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
LISTING_METHODS = {"iterdir", "glob", "rglob"}


def _is_set_expr(node: ast.AST) -> bool:
    """Whether an expression produces a set (statically recognizable)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_listing_expr(node: ast.AST) -> bool:
    """Whether an expression lists a directory (OS-dependent order)."""
    if not isinstance(node, ast.Call):
        return False
    qual = dotted_name(node.func)
    if qual in LISTING_CALLS:
        return True
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in LISTING_METHODS
    )


class ArtifactStabilityRule(Rule):
    """Flag order-unstable iteration feeding program output."""

    code = "RPR005"
    name = "artifact-stability"
    rationale = (
        "artifacts are byte-compared across runs; iterating sets or "
        "directory listings without sorted() leaks hash/OS order into "
        "output"
    )

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        """Yield one finding per unstable iteration site."""
        sanctified = self._sorted_args(tree)
        for node in ast.walk(tree):
            yield from self._check_node(node, sanctified)

    def _sorted_args(self, tree: ast.Module) -> set[int]:
        """Node ids whose order a surrounding ``sorted()`` neutralizes.

        Covers both ``sorted(set(...))`` and ``sorted(x for x in
        set(...))`` -- a comprehension consumed whole by ``sorted`` may
        iterate anything.
        """
        sanctified: set[int] = set()
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
            ):
                continue
            arg = node.args[0]
            sanctified.add(id(arg))
            if isinstance(
                arg,
                (ast.ListComp, ast.SetComp, ast.GeneratorExp),
            ):
                for gen in arg.generators:
                    sanctified.add(id(gen.iter))
        return sanctified

    def _describe(self, iter_node: ast.AST) -> str | None:
        """Why an iterated expression is order-unstable (None = stable)."""
        if _is_set_expr(iter_node):
            return "set iteration order depends on PYTHONHASHSEED"
        if _is_listing_expr(iter_node):
            return "directory listing order is OS-dependent"
        return None

    def _check_node(
        self, node: ast.AST, sanctified: set[int]
    ) -> Iterator[Finding]:
        """Findings for one AST node's iteration sites."""
        if isinstance(node, (ast.For, ast.AsyncFor)):
            reason = self._describe(node.iter)
            if reason and id(node.iter) not in sanctified:
                yield self.finding(
                    f"loop over unstable order ({reason}) -- wrap the "
                    "iterable in sorted()",
                    node=node.iter,
                )
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                reason = self._describe(gen.iter)
                if reason and id(gen.iter) not in sanctified:
                    yield self.finding(
                        f"comprehension over unstable order ({reason}) "
                        "-- wrap the iterable in sorted()",
                        node=gen.iter,
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            is_wrapper = (
                isinstance(func, ast.Name)
                and func.id in ORDER_PRESERVING
                and id(node) not in sanctified
            )
            if is_wrapper and node.args:
                reason = self._describe(node.args[0])
                if reason:
                    assert isinstance(func, ast.Name)
                    yield self.finding(
                        f"{func.id}() over unstable order ({reason}) -- "
                        "use sorted() instead",
                        node=node,
                    )
