"""Fig 10: memory savings from exponent base-delta compression."""

from conftest import show

from repro.harness import run_fig10_compression


def test_fig10_exponent_compression():
    table = run_fig10_compression()
    show(
        table,
        "Fig 10: base-delta compression shrinks the exponent footprint "
        "substantially for all three tensors of every model, both "
        "channel-wise and spatially.",
    )
    for row in table.rows:
        for ratio in row[1:]:
            assert 0.1 < ratio < 0.95
    # Weights (narrowest exponent spread) compress best on average.
    a_mean = sum(row[1] for row in table.rows) / len(table.rows)
    w_mean = sum(row[2] for row in table.rows) / len(table.rows)
    assert w_mean <= a_mean
