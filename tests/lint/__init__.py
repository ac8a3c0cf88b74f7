"""Tests of the three RPR contract rules (:mod:`.rules`).

:func:`run_rules` is the whole runner: it parses each ``.py`` file
once and hands the tree to every selected rule.
"""

import ast
from pathlib import Path
from typing import Iterable

from .rules import RULES


def python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` file under the given files and directories."""
    files: list[Path] = []
    for path in map(Path, paths):
        assert path.exists(), f"no such file or directory: {path}"
        files += [path] if path.is_file() else sorted(path.rglob("*.py"))
    return files


def run_rules(
    paths: Iterable[str | Path], select: set[str] | None = None
) -> list[tuple[str, int, int, str, str]]:
    """Sorted ``(path, line, col, code, message)`` findings of the rules
    whose codes are in ``select`` (every rule when None) over the given
    files and directories."""
    rules = {
        code: rule
        for code, rule in RULES.items()
        if select is None or code in select
    }
    findings: list[tuple[str, int, int, str, str]] = []
    for path in python_files(paths):
        tree = ast.parse(path.read_text())
        for code, rule in rules.items():
            findings += [
                (path.as_posix(), line, col, code, message)
                for line, col, message in rule(tree)
            ]
    return sorted(findings)
