"""Tests of the three RPR contract rules (:mod:`repro.lint.rules`).

:func:`run_rules` is the whole runner: it parses each ``.py`` file
once and hands the tree to every selected rule.
"""

import ast
import dataclasses
from pathlib import Path

from repro.lint import Finding
from repro.lint.rules import RULES


def python_files(paths):
    """Every ``.py`` file under the given files and directories."""
    files = []
    for path in map(Path, paths):
        assert path.exists(), f"no such file or directory: {path}"
        files += [path] if path.is_file() else sorted(path.rglob("*.py"))
    return files


def run_rules(paths, select=None):
    """Sorted findings of the rules whose codes are in ``select``
    (every rule when None) over the given files and directories."""
    rules = [r() for r in RULES if select is None or r.code in select]
    findings = []
    for path in python_files(paths):
        tree = ast.parse(path.read_text())
        for rule in rules:
            findings += [
                dataclasses.replace(f, path=path.as_posix())
                for f in rule.check(tree, path)
            ]
    return sorted(findings, key=Finding.sort_key)
