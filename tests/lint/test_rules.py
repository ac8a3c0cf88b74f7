"""Per-rule fixture tests: each RPR rule fires on its trigger fixture
and stays quiet on its clean twin."""

from pathlib import Path

import pytest

from repro.lint.rules import RULES

from . import run_rules

FIXTURES = Path(__file__).parent / "fixtures"

# (code, trigger path, clean path, source lines of the trigger findings)
CASES = [
    ("RPR001", "rpr001_trigger.py", "rpr001_clean.py", [11, 12, 13, 14]),
    ("RPR002", "rpr002_trigger.py", "rpr002_clean.py", [22, 22, 22, 22, 28]),
    ("RPR003", "rpr003_trigger.py", "rpr003_clean.py", [14, 14, 19, 19, 19]),
    ("RPR004", "rpr004_trigger.py", "rpr004_clean.py", [3, 8, 10, 12, 23]),
    ("RPR005", "rpr005_trigger.py", "rpr005_clean.py", [8, 9, 11, 12]),
    ("RPR006", "rpr006/trigger", "rpr006/clean", [1, 4, 6, 10]),
    ("RPR007", "rpr007/trigger", "rpr007/clean", [35, 35, 35, 35]),
]


def test_every_registered_rule_has_a_fixture_case():
    codes = {code for code, _, _, _ in CASES}
    assert codes == {rule.code for rule in RULES}


@pytest.mark.parametrize(
    "code,trigger,clean,lines", CASES, ids=[c[0] for c in CASES]
)
def test_trigger_fixture_fires(code, trigger, clean, lines):
    findings = run_rules([FIXTURES / trigger], select={code})
    assert [(f.line, f.code) for f in findings] == [
        (line, code) for line in lines
    ]


@pytest.mark.parametrize(
    "code,trigger,clean,lines", CASES, ids=[c[0] for c in CASES]
)
def test_clean_fixture_is_quiet(code, trigger, clean, lines):
    assert run_rules([FIXTURES / clean], select={code}) == []


def test_findings_are_sorted_and_attributed():
    findings = run_rules([FIXTURES / "rpr001_trigger.py"], select={"RPR001"})
    keys = [f.sort_key() for f in findings]
    assert keys == sorted(keys)
    for finding in findings:
        assert finding.line > 0
        assert finding.path.endswith("rpr001_trigger.py")


def test_rule_metadata_complete():
    codes = [rule.code for rule in RULES]
    assert codes == sorted(set(codes))
    for rule_cls in RULES:
        assert rule_cls.name
        assert rule_cls.rationale
        assert rule_cls.__doc__
