"""Figs 11 and 14: the headline iso-area speedups and per-phase breakdown."""

from conftest import show

from repro.harness import run_fig11_speedup, run_fig14_phases


def test_fig11_iso_area_speedup():
    table = run_fig11_speedup()
    show(
        table,
        "Fig 11: geomean 1.5x total speedup (zero terms +9%, BDC +5.8%, "
        "OB +35.2%); ResNet18-Q best convnet at 2.04x; SNLI 1.8x; core "
        "energy efficiency 1.4x.",
    )
    geomean = table.rows[-1]
    zero, bdc, full, energy = geomean[1], geomean[2], geomean[3], geomean[4]
    # Decomposition is cumulative and every component helps.
    assert zero > 0.95
    assert bdc >= zero
    assert full > bdc
    # Headline bands.
    assert 1.3 <= full <= 1.8
    assert 1.15 <= energy <= 1.8
    by_model = {row[0]: row for row in table.rows[:-1]}
    # ResNet18-Q is the best image classifier; SNLI is near 1.8x.
    convnets = ("SqueezeNet 1.1", "VGG16", "ResNet50-S2")
    assert all(by_model["ResNet18-Q"][3] > by_model[m][3] for m in convnets)
    assert 1.5 <= by_model["SNLI"][3] <= 2.1


def test_fig14_phase_speedups():
    table = run_fig14_phases()
    show(
        table,
        "Fig 14: FPRaker outperforms the baseline on all three phases "
        "of every model; the ranking follows each phase's term sparsity.",
    )
    geomean = table.rows[-1]
    for phase_speedup in geomean[1:]:
        assert phase_speedup > 1.0
