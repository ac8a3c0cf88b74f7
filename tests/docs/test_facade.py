"""The public facade ``repro.api`` matches its documentation.

``repro.api.__all__`` is the stable public surface; the "Public API"
table of docs/SERVICE.md documents it.  The two lists change together
or not at all.
"""

import re
from pathlib import Path

import repro.api as api

SERVICE_DOC = Path(__file__).parents[2] / "docs" / "SERVICE.md"


def documented_names():
    """Backticked names in the first column of the Public API table."""
    section = SERVICE_DOC.read_text().split("## Public API", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            names += re.findall(r"`([A-Za-z_]\w*)", first_cell)
    return names


def test_all_is_sorted_and_unique():
    assert api.__all__ == sorted(set(api.__all__))


def test_all_equals_the_documented_table():
    assert sorted(documented_names()) == api.__all__


def test_every_exported_name_resolves():
    assert [name for name in api.__all__ if not hasattr(api, name)] == []
