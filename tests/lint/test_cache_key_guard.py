"""Acceptance guard for RPR002: deleting any entry from the real
``canonical_key`` or ``table_key`` spec dict must make the rule fire.

The test performs AST surgery on a copy of ``harness/runner.py`` and
``harness/cache.py`` -- removing one spec entry at a time -- and
asserts the cache-key rule reports the regression.  This proves the
rule protects every key the production caches depend on, not just the
ones it was written against.
"""

import ast
from pathlib import Path

import pytest

from . import run_rules

HARNESS = Path(__file__).parents[2] / "src" / "repro" / "harness"
RUNNER = HARNESS / "runner.py"
CACHE = HARNESS / "cache.py"


def _spec_dict(tree: ast.Module, builder: str) -> ast.Dict:
    """The spec dict literal inside the named key builder."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == builder:
            dicts = [n for n in ast.walk(node) if isinstance(n, ast.Dict)]
            assert dicts, f"{builder}() lost its spec dict literal"
            return max(dicts, key=lambda d: len(d.keys))
    raise AssertionError(f"{builder}() not found")


def _spec_keys(module: Path, builder: str) -> list[str]:
    spec = _spec_dict(ast.parse(module.read_text()), builder)
    return [k.value for k in spec.keys if isinstance(k, ast.Constant)]


def _lint_without(module: Path, builder: str, victim: str, tmp_path):
    """RPR002 findings on a copy of ``module`` whose ``builder`` spec
    dict lost its ``victim`` entry."""
    tree = ast.parse(module.read_text())
    spec = _spec_dict(tree, builder)
    survivors = [
        (k, v)
        for k, v in zip(spec.keys, spec.values)
        if not (isinstance(k, ast.Constant) and k.value == victim)
    ]
    assert len(survivors) == len(spec.keys) - 1
    spec.keys = [k for k, _ in survivors]
    spec.values = [v for _, v in survivors]
    copy = tmp_path / module.name
    copy.write_text(ast.unparse(ast.fix_missing_locations(tree)) + "\n")
    return run_rules([copy], select={"RPR002"})


SPEC_KEYS = _spec_keys(RUNNER, "canonical_key")
TABLE_SPEC_KEYS = _spec_keys(CACHE, "table_key")


def test_spec_covers_the_full_result_surface():
    """The production key covers the documented 12 result inputs."""
    assert set(SPEC_KEYS) >= {
        "model",
        "config",
        "progress",
        "seed",
        "acc_profile",
        "phases",
        "sample_strips",
        "sample_steps",
        "sim_seed",
        "memory_engine",
        "nodes",
        "partition",
    }


def test_table_key_spec_covers_experiment_and_arguments():
    assert set(TABLE_SPEC_KEYS) == {"experiment", "arguments"}


def _lint_unparsed(module: Path, tmp_path):
    """RPR002 findings on an unparsed copy of ``module``."""
    copy = tmp_path / module.name
    copy.write_text(ast.unparse(ast.parse(module.read_text())) + "\n")
    return run_rules([copy], select={"RPR002"})


def test_unmodified_runner_is_rpr002_clean(tmp_path):
    """Control: unparse alone must not introduce RPR002 findings."""
    assert _lint_unparsed(RUNNER, tmp_path) == []


def test_unmodified_cache_is_rpr002_clean(tmp_path):
    assert _lint_unparsed(CACHE, tmp_path) == []


@pytest.mark.parametrize("victim", SPEC_KEYS)
def test_deleting_spec_key_fails_lint(victim, tmp_path):
    findings = _lint_without(RUNNER, "canonical_key", victim, tmp_path)
    assert findings, f"deleting {victim!r} went undetected"
    assert any(f"'{victim}'" in f.message for f in findings)


@pytest.mark.parametrize("victim", TABLE_SPEC_KEYS)
def test_deleting_table_key_spec_key_fails_lint(victim, tmp_path):
    findings = _lint_without(CACHE, "table_key", victim, tmp_path)
    assert findings, f"deleting {victim!r} from table_key() went undetected"
    assert any(f"'{victim}'" in f.message for f in findings)
