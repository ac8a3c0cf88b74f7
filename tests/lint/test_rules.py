"""Per-rule fixture tests: each RPR rule fires on its trigger fixture
and stays quiet on its clean twin."""

from pathlib import Path

import pytest

from repro.lint import REGISTRY, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

# (code, trigger path, clean path, expected trigger finding count)
CASES = [
    ("RPR001", "rpr001_trigger.py", "rpr001_clean.py", 4),
    ("RPR002", "rpr002_trigger.py", "rpr002_clean.py", 5),
    ("RPR003", "rpr003_trigger.py", "rpr003_clean.py", 5),
    ("RPR004", "rpr004_trigger.py", "rpr004_clean.py", 5),
    ("RPR005", "rpr005_trigger.py", "rpr005_clean.py", 4),
    ("RPR006", "rpr006/trigger", "rpr006/clean", 4),
    ("RPR007", "rpr007/trigger", "rpr007/clean", 4),
]


def test_every_registered_rule_has_a_fixture_case():
    codes = {code for code, _, _, _ in CASES}
    assert codes == set(REGISTRY)


@pytest.mark.parametrize(
    "code,trigger,clean,expected", CASES, ids=[c[0] for c in CASES]
)
def test_trigger_fixture_fires(code, trigger, clean, expected):
    report = lint_paths([FIXTURES / trigger], select=[code])
    assert len(report.findings) == expected
    assert all(f.code == code for f in report.findings)


@pytest.mark.parametrize(
    "code,trigger,clean,expected", CASES, ids=[c[0] for c in CASES]
)
def test_clean_fixture_is_quiet(code, trigger, clean, expected):
    report = lint_paths([FIXTURES / clean], select=[code])
    assert report.findings == []


def test_findings_are_sorted_and_attributed():
    report = lint_paths([FIXTURES / "rpr001_trigger.py"], select=["RPR001"])
    keys = [f.sort_key() for f in report.findings]
    assert keys == sorted(keys)
    for finding in report.findings:
        assert finding.line > 0
        assert finding.path.endswith("rpr001_trigger.py")


def test_select_isolates_rules():
    # The RPR004 trigger also lacks docstring problems etc.; selecting a
    # different rule over it must come back clean.
    report = lint_paths([FIXTURES / "rpr004_trigger.py"], select=["RPR001"])
    assert report.findings == []


def test_ignore_masks_rule():
    report = lint_paths([FIXTURES / "rpr001_trigger.py"], ignore=["RPR001"])
    assert report.findings == []


def test_rule_metadata_complete():
    for code, rule_cls in REGISTRY.items():
        assert rule_cls.code == code
        assert rule_cls.name
        assert rule_cls.rationale
        assert rule_cls.__doc__
