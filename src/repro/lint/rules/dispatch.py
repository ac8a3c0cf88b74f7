"""RPR004: engine/scheme dispatch must cover the registered value set.

The simulators dispatch on small string knobs: ``memory_engine``
(``roofline``/``hierarchy``) and the scale-out partition scheme
(``data``/``model``/``pipeline``).  The registered sets below are the single source of
truth; the rule pins every static appearance of a knob to them:

* an equality/inequality comparison against a literal not in the set is
  a typo or a stale engine name;
* a membership test (``knob not in (...)`` validation) or an argparse
  ``choices=(...)`` tuple must equal the registered set *exactly* --
  adding a new engine starts by extending the set here, and the lint
  run then lists every stale validation/choices site;
* an ``if/elif`` chain with two or more branches on one knob must be
  exhaustive: end in ``else: raise``, or cover every registered value
  (a single-value fallthrough is accepted -- the unmatched branch is
  then unambiguous).  Single-branch feature gates are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.lint.astutil import str_const, str_sequence, terminal_name
from repro.lint.findings import Finding, Rule

# Knob name -> registered literal set.  THE source of truth: engines
# register here first, and the lint run enumerates the dispatch sites
# that still need extending.
KNOBS: dict[str, tuple[str, ...]] = {
    "memory_engine": ("roofline", "hierarchy"),
    "partition": ("data", "model", "pipeline"),
    "scheme": ("data", "model", "pipeline"),
}

# Module constants pinned to a knob's registered set (``scheme not in
# SCHEMES`` validations are checked through the constant's definition).
CONSTANT_ALIASES: dict[str, str] = {
    "SCHEMES": "scheme",
}

# argparse flags mapped onto knobs (``--memory-engine`` et al).
_FLAG_KNOBS = {f"--{k.replace('_', '-')}": k for k in KNOBS}


def _knob_of(node: ast.AST) -> str | None:
    """The knob a Name/Attribute refers to, if any."""
    name = terminal_name(node)
    return name if name in KNOBS else None


class DispatchExhaustivenessRule(Rule):
    """Pin dispatch sites to the registered engine/scheme sets."""

    code = "RPR004"
    name = "engine-dispatch-exhaustiveness"
    rationale = (
        "string-knob dispatch (memory_engine/partition) "
        "must cover the registered value set and reject unknown values, "
        "or a new engine silently falls into the wrong branch"
    )

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        """Yield findings for stale or non-exhaustive dispatch sites."""
        chain_members: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                yield from self._check_compare(node)
            elif isinstance(node, ast.Assign):
                yield from self._check_constant(node)
            elif isinstance(node, ast.Call):
                yield from self._check_add_argument(node)
            elif isinstance(node, ast.If) and id(node) not in chain_members:
                yield from self._check_chain(node, chain_members)

    # -- comparisons -------------------------------------------------------

    def _check_compare(self, node: ast.Compare) -> Iterator[Finding]:
        """Literal validity of knob comparisons and membership tests."""
        if len(node.ops) != 1:
            return
        op = node.ops[0]
        left, right = node.left, node.comparators[0]
        if isinstance(op, (ast.Eq, ast.NotEq)):
            for knob_side, lit_side in ((left, right), (right, left)):
                knob = _knob_of(knob_side)
                value = str_const(lit_side)
                if knob and value is not None and value not in KNOBS[knob]:
                    yield self.finding(
                        f"comparison against {value!r} which is not a "
                        f"registered {knob} value {KNOBS[knob]}",
                        node=node,
                    )
        elif isinstance(op, (ast.In, ast.NotIn)):
            knob = _knob_of(left)
            values = str_sequence(right)
            if knob and values is not None:
                if set(values) != set(KNOBS[knob]):
                    yield self.finding(
                        f"membership test covers {sorted(values)} but "
                        f"the registered {knob} set is "
                        f"{sorted(KNOBS[knob])}",
                        node=node,
                    )

    # -- pinned constants --------------------------------------------------

    def _check_constant(self, node: ast.Assign) -> Iterator[Finding]:
        """Module constants aliased to a knob must equal its set."""
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            return
        knob = CONSTANT_ALIASES.get(target.id)
        if knob is None:
            return
        values = str_sequence(node.value)
        if values is not None and set(values) != set(KNOBS[knob]):
            yield self.finding(
                f"constant {target.id} holds {sorted(values)} but the "
                f"registered {knob} set is {sorted(KNOBS[knob])}",
                node=node,
            )

    # -- argparse choices --------------------------------------------------

    def _check_add_argument(self, node: ast.Call) -> Iterator[Finding]:
        """``add_argument('--knob', choices=...)`` must match the set."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr == "add_argument"
        ):
            return
        flag = str_const(node.args[0]) if node.args else None
        knob = _FLAG_KNOBS.get(flag or "")
        if knob is None:
            return
        choices = next(
            (kw.value for kw in node.keywords if kw.arg == "choices"), None
        )
        if choices is None:
            yield self.finding(
                f"CLI flag {flag} has no choices= -- unknown {knob} "
                "values would pass argument parsing",
                node=node,
            )
            return
        values = str_sequence(choices)
        if values is not None and set(values) != set(KNOBS[knob]):
            yield self.finding(
                f"CLI flag {flag} offers choices {sorted(values)} but "
                f"the registered {knob} set is {sorted(KNOBS[knob])}",
                node=node,
            )

    # -- if/elif chains ----------------------------------------------------

    def _chain_test(self, test: ast.AST) -> tuple[str, str] | None:
        """(knob, literal) of an ``knob == 'lit'`` chain test."""
        if not isinstance(test, ast.Compare):
            return None
        if len(test.ops) != 1 or not isinstance(test.ops[0], ast.Eq):
            return None
        left, right = test.left, test.comparators[0]
        for knob_side, lit_side in ((left, right), (right, left)):
            knob = _knob_of(knob_side)
            value = str_const(lit_side)
            if knob and value is not None:
                return knob, value
        return None

    def _check_chain(
        self, node: ast.If, chain_members: set[int]
    ) -> Iterator[Finding]:
        """Exhaustiveness of a multi-branch knob dispatch chain."""
        head = self._chain_test(node.test)
        if head is None:
            return
        knob, first = head
        covered = [first]
        current = node
        has_else = False
        else_raises = False
        while current.orelse:
            if len(current.orelse) == 1 and isinstance(
                current.orelse[0], ast.If
            ):
                nxt = current.orelse[0]
                step = self._chain_test(nxt.test)
                if step is not None and step[0] == knob:
                    chain_members.add(id(nxt))
                    covered.append(step[1])
                    current = nxt
                    continue
            has_else = True
            else_raises = any(
                isinstance(stmt, ast.Raise) for stmt in current.orelse
            )
            break
        if len(covered) < 2:
            return  # single-branch feature gate, not a dispatch chain
        registered = set(KNOBS[knob])
        missing = registered - set(covered)
        if has_else and else_raises:
            return
        if not missing:
            return
        if not has_else and len(missing) == 1:
            return  # unambiguous fallthrough branch
        yield self.finding(
            f"dispatch chain on {knob} covers {sorted(set(covered))} "
            f"but not {sorted(missing)} and has no raising else branch",
            node=node,
        )
