"""RPR003: ``to_dict``/``from_dict`` pairs must cover the same fields.

Results persist to disk through ``to_dict`` and come back through
``from_dict``; warm runs are bit-identical to cold ones only if that
round trip is lossless.  A field added to a dataclass but forgotten in
either method silently truncates cached results.  The rule statically
diffs three key sets per serialized dataclass:

* the dataclass's public annotated fields;
* the string keys ``to_dict`` emits (dict literals, ``d["k"] = ...``
  stores, and ``{name: ... for name in self.FIELDS}`` comprehensions
  resolved against the class constant);
* the string keys ``from_dict`` consumes (``data["k"]`` loads,
  ``data.get("k")``, and the comprehension pattern).

There is no suppression comment: a key deliberately emitted under a
different name, or a derived key for readers other than ``from_dict``,
would be written into this rule, with a fixture case.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.astutil import (
    dataclass_fields,
    is_dataclass,
    methods_of,
    resolved_comp_keys,
    str_const,
)
from repro.lint.findings import Finding, Rule


def _emitted_keys(
    func: ast.FunctionDef, classdef: ast.ClassDef
) -> tuple[set[str], bool]:
    """(string keys ``to_dict`` emits, fully-resolved?).

    The second element is False when the method uses a pattern the
    rule cannot see through (e.g. ``asdict(self)``), in which case the
    class is skipped rather than misreported.
    """
    aliases = {"self", "cls", classdef.name}
    keys: set[str] = set()
    resolved = True
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
        elif isinstance(node, ast.DictComp):
            comp_keys = resolved_comp_keys(node, classdef, aliases)
            if comp_keys is None:
                resolved = False
            else:
                keys.update(comp_keys)
        elif isinstance(node, ast.Call):
            name = node.func
            if isinstance(name, ast.Name) and name.id == "asdict":
                resolved = False
    return keys, resolved


def _consumed_keys(
    func: ast.FunctionDef, classdef: ast.ClassDef
) -> tuple[set[str], bool]:
    """(string keys ``from_dict`` consumes, fully-resolved?)."""
    aliases = {"self", "cls", classdef.name}
    keys: set[str] = set()
    resolved = True
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Load
        ):
            value = str_const(node.slice)
            if value is not None:
                keys.add(value)
        elif isinstance(node, ast.Call):
            func_node = node.func
            if (
                isinstance(func_node, ast.Attribute)
                and func_node.attr == "get"
                and node.args
            ):
                value = str_const(node.args[0])
                if value is not None:
                    keys.add(value)
        elif isinstance(node, ast.DictComp):
            comp_keys = resolved_comp_keys(node, classdef, aliases)
            if comp_keys is None:
                resolved = False
            else:
                keys.update(comp_keys)
    return keys, resolved


class SerializationParityRule(Rule):
    """Diff serialized key sets against dataclass fields."""

    code = "RPR003"
    name = "serialization-parity"
    rationale = (
        "cached results round-trip through to_dict/from_dict; a field "
        "missing from either side silently truncates warm results"
    )

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        """Yield findings for each lossy serialization pair."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not is_dataclass(node):
                continue
            methods = methods_of(node)
            to_dict = methods.get("to_dict")
            from_dict = methods.get("from_dict")
            if to_dict is None or from_dict is None:
                continue
            yield from self._check_class(node, to_dict, from_dict)

    def _check_class(
        self,
        classdef: ast.ClassDef,
        to_dict: ast.FunctionDef,
        from_dict: ast.FunctionDef,
    ) -> Iterator[Finding]:
        """Findings for one serialized dataclass."""
        fields = set(dataclass_fields(classdef))
        emitted, emit_ok = _emitted_keys(to_dict, classdef)
        consumed, consume_ok = _consumed_keys(from_dict, classdef)
        if not (emit_ok and consume_ok):
            return  # opaque serialization; nothing provable
        name = classdef.name
        for field in sorted(fields - emitted):
            yield self.finding(
                f"{name}.{field} is never emitted by to_dict() -- the "
                "field would be lost on the way to disk",
                node=to_dict,
            )
        for field in sorted(fields - consumed):
            yield self.finding(
                f"{name}.{field} is never restored by from_dict() -- "
                "warm results would drop it",
                node=from_dict,
            )
        for key in sorted(consumed - emitted):
            yield self.finding(
                f"{name}.from_dict() consumes key {key!r} that "
                "to_dict() never emits",
                node=from_dict,
            )
        for key in sorted(emitted - consumed):
            yield self.finding(
                f"{name}.to_dict() emits key {key!r} that from_dict() "
                "never consumes -- round trip is asymmetric",
                node=to_dict,
            )
