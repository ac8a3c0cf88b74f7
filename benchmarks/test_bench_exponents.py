"""Fig 6: exponent ranges over real training (captured traces)."""

from conftest import show

from repro.harness import run_fig6_exponents


def test_fig6_exponent_ranges():
    table = run_fig6_exponents(epochs=6)
    show(
        table,
        "Fig 6: the exponents of all three tensors occupy a narrow band "
        "of the 8-bit exponent's [-127, 128] range, at the start and "
        "the end of training alike -- the basis for the limited shift "
        "window and the base-delta compression.",
    )
    for row in table.rows:
        tensor, first, last, full = row
        # The 99%-mass band is a small fraction of the format's range.
        assert first < full / 4
        assert last < full / 4
