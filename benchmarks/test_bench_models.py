"""Tables I and II: the studied models and the evaluated configurations."""

from conftest import show

from repro.harness import run_table1, run_table2


def test_table1_models():
    table = run_table1()
    show(table, "Table I lists the same nine models / applications / datasets.")
    assert len(table.rows) == 9


def test_table2_configurations():
    table = run_table2()
    show(
        table,
        "Table II: FPRaker 36 tiles / 2304 PEs vs baseline 8 tiles / "
        "512 PEs / 4096 MACs per cycle at 600 MHz.",
    )
    params = dict(zip(table.column("Parameter"), table.column("FPRaker")))
    assert params["Tiles"] == 36
