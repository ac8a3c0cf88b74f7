"""The gatekeeping test: the repo's own source tree must lint clean.

A genuine finding must be fixed; there is no suppression comment.  A
deliberate exception is written into the rule (and its fixture case)
in the same change.
"""

from pathlib import Path

from . import python_files, run_rules

SRC = Path(__file__).parents[2] / "src" / "repro"


def test_src_tree_lints_clean():
    assert run_rules([SRC]) == []


def test_src_tree_has_meaningful_coverage():
    # The walker must actually be visiting the tree, not skipping it.
    assert len(python_files([SRC])) > 50

