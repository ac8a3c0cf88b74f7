"""RPR002: every result-affecting knob must be in the canonical cache key.

The shared result store serves any simulation whose canonical key
matches -- so a knob that changes results but is missing from the key
silently serves *wrong numbers* to every later caller.  That exact bug
class has forced three ``CACHE_VERSION`` bumps already.  This rule
statically ties the key constructors to their input surfaces:

* the parameters of a key-constructor function (``canonical_key``,
  ``workload_key``, ``table_key``) must all appear as keys of the spec
  dict it builds;
* the annotated fields of :class:`SimRequest` and of
  :class:`SessionConfig` (minus the documented non-key knobs:
  parallelism and cache plumbing) must appear in ``canonical_key``'s
  spec -- ``execute_request(request, config)`` takes exactly these two
  values, so they are the full set that reaches a simulator;
* the spec must be serialized with ``json.dumps(..., sort_keys=True)``
  so the key is independent of dict construction order.

Deleting any result-affecting entry from the spec dict makes this rule
fail the self-lint test in ``tests/lint``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.astutil import dotted_name, param_names, str_const
from repro.lint.findings import Finding, Rule

# Functions that build canonical keys (engagement is content-based:
# the rule fires in any module defining one of these).
KEY_BUILDERS = ("canonical_key", "workload_key", "table_key")

# Names that are *not* part of a simulation's result: the request
# object itself (its fields are checked individually), execution
# plumbing and cache plumbing.  Documented in docs/LINTING.md; anything
# else reaching a simulator must be keyed.
NON_KEY_PARAMS = {
    "self",
    "cls",
    "request",
    "jobs",
    "cache_dir",
}


def _spec_keys(func: ast.FunctionDef) -> set[str]:
    """String keys of every dict literal / keyed store in a function."""
    keys: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                value = str_const(key) if key is not None else None
                if value is not None:
                    keys.add(value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    value = str_const(target.slice)
                    if value is not None:
                        keys.add(value)
    return keys


def _toplevel_defs(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions and classes by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _required_from_class_fields(classdef: ast.ClassDef) -> list[str]:
    """Dataclass-style annotated field names of a class body."""
    return [
        stmt.target.id
        for stmt in classdef.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and not stmt.target.id.startswith("_")
    ]


class CacheKeyRule(Rule):
    """Statically enforce canonical-cache-key completeness."""

    code = "RPR002"
    name = "cache-key-completeness"
    rationale = (
        "a result-affecting knob missing from the canonical key makes "
        "the result cache serve wrong numbers; key constructors must "
        "cover every parameter that flows into a simulator"
    )

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        """Yield findings for incomplete key constructors."""
        defs = _toplevel_defs(tree)
        builders = [
            defs[name]
            for name in KEY_BUILDERS
            if isinstance(defs.get(name), ast.FunctionDef)
        ]
        for builder in builders:
            assert isinstance(builder, ast.FunctionDef)
            spec = _spec_keys(builder)
            yield from self._check_self_parity(builder, spec)
            yield from self._check_sort_keys(builder)
        canonical = defs.get("canonical_key")
        if not isinstance(canonical, ast.FunctionDef):
            return
        spec = _spec_keys(canonical)
        for origin in ("SimRequest", "SessionConfig"):
            yield from self._check_surface(
                canonical,
                spec,
                f"{origin} field",
                self._class_fields(defs.get(origin)),
            )

    def _class_fields(self, node: ast.AST | None) -> list[str]:
        """Annotated fields of a class node (empty when absent)."""
        if isinstance(node, ast.ClassDef):
            return _required_from_class_fields(node)
        return []

    def _check_self_parity(
        self, builder: ast.FunctionDef, spec: set[str]
    ) -> Iterator[Finding]:
        """Every parameter of a key builder must appear in its spec."""
        for name in param_names(builder):
            if name in NON_KEY_PARAMS:
                continue
            if name not in spec:
                yield self.finding(
                    f"key builder {builder.name}() takes parameter "
                    f"{name!r} but its spec dict has no {name!r} entry",
                    node=builder,
                )

    def _check_surface(
        self,
        canonical: ast.FunctionDef,
        spec: set[str],
        origin: str,
        names: list[str],
    ) -> Iterator[Finding]:
        """Every result-affecting input name must appear in the spec."""
        for name in names:
            if name in NON_KEY_PARAMS:
                continue
            if name not in spec:
                yield self.finding(
                    f"{origin} {name!r} is result-affecting but missing "
                    "from the canonical_key spec dict",
                    node=canonical,
                )

    def _check_sort_keys(self, builder: ast.FunctionDef) -> Iterator[Finding]:
        """The spec serialization must be order-independent."""
        for node in ast.walk(builder):
            if not isinstance(node, ast.Call):
                continue
            qual = dotted_name(node.func)
            if qual not in ("json.dumps", "dumps"):
                continue
            sort = next(
                (
                    kw.value
                    for kw in node.keywords
                    if kw.arg == "sort_keys"
                ),
                None,
            )
            is_true = (
                isinstance(sort, ast.Constant) and sort.value is True
            )
            if not is_true:
                yield self.finding(
                    f"{builder.name}() serializes its spec without "
                    "sort_keys=True -- the key would depend on dict "
                    "construction order",
                    node=node,
                )
