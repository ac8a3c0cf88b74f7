"""The finding record every lint rule emits, and the rule base class."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        code: rule identifier (``RPR001`` ...).
        message: human-readable description of the violation.
        path: file the finding is in (posix-style string).
        line: 1-based source line.
        col: 0-based column.
    """

    code: str
    message: str
    path: str = ""
    line: int = 1
    col: int = 0

    def sort_key(self) -> tuple:
        """Deterministic report ordering: path, position, code."""
        return (self.path, self.line, self.col, self.code, self.message)


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`;
    :data:`repro.lint.rules.RULES` lists every rule class.

    Attributes:
        code: unique ``RPRxxx`` identifier.
        name: short kebab-case rule name.
        rationale: one-paragraph justification (the rule catalog in
            ``docs/LINTING.md`` summarizes these).
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        """Yield findings for one file.

        Args:
            tree: the file's parsed module.
            path: the file's path.
        """
        raise NotImplementedError

    def finding(self, message: str, node=None, line=1, col=0) -> Finding:
        """Build a finding of this rule, anchored at a node if given."""
        if node is not None:
            line = getattr(node, "lineno", line)
            col = getattr(node, "col_offset", col)
        return Finding(code=self.code, message=message, line=line, col=col)
