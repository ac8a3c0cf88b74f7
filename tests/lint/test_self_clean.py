"""The gatekeeping test: the repo's own source tree must lint clean.

A genuine finding must be fixed; there is no suppression comment.  A
deliberate exception is written into the rule (and its fixture case)
in the same change.
"""

import ast
from pathlib import Path

from repro.lint.rules.docstrings import COVERED_PACKAGES, walk_module

from . import python_files, run_rules

SRC = Path(__file__).parents[2] / "src" / "repro"


def test_src_tree_lints_clean():
    assert run_rules([SRC]) == []


def test_src_tree_has_meaningful_coverage():
    # The walker must actually be visiting the tree, not skipping it.
    assert len(python_files([SRC])) > 50


def test_covered_packages_are_the_documented_three():
    """RPR006's scope is part of the contract, not an implementation
    detail -- widening or narrowing it should be a conscious edit."""
    assert COVERED_PACKAGES == ("core", "memory", "scale")


def test_gate_counts_real_objects():
    """Sanity: the RPR006 walker sees a representative object set."""
    names = [
        qualname
        for path in python_files([SRC / "core"])
        for qualname, _node, _doc in walk_module(
            ast.parse(path.read_text()), path.name
        )
    ]
    assert "accelerator.py:AcceleratorSimulator" in names
    assert "workload.py:PhaseWorkload" in names
