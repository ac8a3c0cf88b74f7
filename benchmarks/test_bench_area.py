"""Table III: per-tile area/power and the iso-compute-area tile counts."""

from conftest import show

from repro.harness import run_table3


def test_table3_area_power():
    table = run_table3()
    show(
        table,
        "Table III: FPRaker tile 317,068 um^2 (0.22x of baseline's "
        "1,421,579), 109.5 mW vs 475 mW; 36 FPRaker / 20 Pragmatic tiles "
        "fit the 8-baseline-tile compute area.",
    )
    assert table.rows[2][4] == 36  # iso-area FPRaker tiles
    assert table.rows[3][4] == 20  # iso-area Pragmatic tiles
