"""Figs 19 and 20: the effect of tile row count on performance and stalls."""

from conftest import show

from repro.harness import run_fig19_20_rows
from repro.harness.report import geomean


def test_fig19_20_rows_per_tile():
    speed_table, stall_table = run_fig19_20_rows()
    show(
        (speed_table, stall_table),
        "Fig 19/20: growing rows per tile couples more PEs to the same "
        "A terms; 8->16 rows costs ~6% performance on average, with "
        "'no term' waits growing.",
    )
    by_rows = {}
    for i, rows in enumerate((2, 4, 8, 16)):
        by_rows[rows] = geomean([row[1 + i] for row in speed_table.rows])
    # More rows per tile never helps on average, and 16 rows is
    # measurably worse than 8 (the paper's -6%).
    assert by_rows[2] >= by_rows[8]
    assert by_rows[16] < by_rows[8]
    assert 0.85 <= by_rows[16] / by_rows[8] <= 0.99
    # Fig 20: 'no term' waits grow with row count.
    no_term = stall_table.column("no term")
    assert no_term[-1] >= no_term[0]
