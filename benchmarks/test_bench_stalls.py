"""Figs 15 and 16: lane-cycle breakdown and the OBS synchronization effect."""

from conftest import show

from repro.harness import run_fig15_stalls, run_fig16_obs_sync


def test_fig15_lane_efficiency():
    table = run_fig15_stalls()
    show(
        table,
        "Fig 15: cross-lane term imbalance ('no term') is the largest "
        "stall class (32.8% average, up to 55% for NCF); shift-range, "
        "inter-PE and exponent stalls are small.",
    )
    for row in table.rows:
        useful, no_term, shift, inter_pe, exponent = row[1:6]
        assert abs(useful + no_term + shift + inter_pe + exponent - 1.0) < 1e-6
        assert no_term == max(no_term, shift, inter_pe, exponent)
        assert shift < 0.12  # the 3-bit window is a good trade
    by_model = {row[0]: row for row in table.rows}
    assert by_model["NCF"][2] > 0.35  # NCF's imbalance is the worst


def test_fig16_obs_reduces_sync():
    table = run_fig16_obs_sync()
    show(
        table,
        "Fig 16: skipping out-of-bounds terms reduces the total "
        "synchronization overhead (paper: 30.3% average) by trimming "
        "the slowest lane's tail.",
    )
    mean_reduction = table.rows[-1][-1]
    assert mean_reduction > 0.0
