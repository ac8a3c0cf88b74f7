"""Golden-fixture regression for Fig 15 under the default engine.

``tests/harness/fixtures/fig15_golden.json`` was generated from the
seed roofline path (the exact command is recorded below).  The default
``memory_engine="roofline"`` must keep reproducing it bit for bit --
this is the guard against silent figure drift while the hierarchy
engine evolves.

Regenerate (only when an *intentional* simulator change lands)::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.harness.experiments import run_fig15_stalls
    table = run_fig15_stalls(models=("NCF", "SNLI"))
    with open("tests/harness/fixtures/fig15_golden.json", "w") as fh:
        json.dump(table.to_dict(), fh, indent=2, sort_keys=True)
    PY
"""

import json
from pathlib import Path

import pytest

from repro.harness.experiments import run_fig12_energy, run_fig15_stalls
from repro.harness.runner import SessionConfig, SimulationSession

FIXTURE = Path(__file__).parent / "fixtures" / "fig15_golden.json"
GOLDEN_MODELS = ("NCF", "SNLI")


class TestFig15Golden:
    def test_default_engine_reproduces_golden_exactly(self):
        golden = json.loads(FIXTURE.read_text())
        table = run_fig15_stalls(models=GOLDEN_MODELS)
        assert table.to_dict() == golden  # exact floats, headers, title

    def test_roofline_session_reproduces_golden_exactly(self):
        """An explicit roofline session matches the private-session path."""
        golden = json.loads(FIXTURE.read_text())
        session = SimulationSession(
            config=SessionConfig(memory_engine="roofline")
        )
        table = run_fig15_stalls(models=GOLDEN_MODELS, session=session)
        assert table.to_dict() == golden

    def test_hierarchy_engine_extends_but_does_not_rewrite(self):
        """Hierarchy appends the two memory-stall columns; the shared
        lane-fraction columns keep their roofline values (compute is
        bit-identical across engines)."""
        golden = json.loads(FIXTURE.read_text())
        table = run_fig15_stalls(
            models=GOLDEN_MODELS, memory_engine="hierarchy"
        )
        assert table.headers == golden["headers"] + ["bank stall", "transposer"]
        for row, golden_row in zip(table.rows, golden["rows"]):
            assert row[: len(golden_row)] == golden_row


class TestFig12Hierarchy:
    def test_fraction_columns_partition_the_total(self):
        """The Scratchpad column is carved out of On-chip: the six
        energy-share columns must still sum to 1."""
        table = run_fig12_energy(models=GOLDEN_MODELS, memory_engine="hierarchy")
        assert "Scratchpad" in table.headers
        for row in table.rows[:-1]:  # skip the geomean row
            shares = row[1:-1]  # all fraction columns
            assert sum(shares) == pytest.approx(1.0)
            assert all(share >= 0.0 for share in shares)

    def test_roofline_table_keeps_seed_headers(self):
        table = run_fig12_energy(models=("NCF",))
        assert table.headers == [
            "Model", "Compute", "Control", "Accumulation", "On-chip",
            "Off-chip", "Total vs baseline",
        ]
