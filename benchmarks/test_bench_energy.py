"""Fig 12: the energy-consumption breakdown."""

from conftest import show

from repro.harness import run_fig12_energy


def test_fig12_energy_breakdown():
    table = run_fig12_energy()
    show(
        table,
        "Fig 12: FPRaker plus BDC cut core-logic and off-chip energy; "
        "overall efficiency 1.36x when everything is accounted.",
    )
    geomean_total = table.rows[-1][-1]
    assert 1.1 <= geomean_total <= 1.6
    for row in table.rows[:-1]:
        compute, control, accumulation, on_chip, off_chip = row[1:6]
        shares = [compute, control, accumulation, on_chip, off_chip]
        assert abs(sum(shares) - 1.0) < 1e-6
        assert all(share >= 0.0 for share in shares)
