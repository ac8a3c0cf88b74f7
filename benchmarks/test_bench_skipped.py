"""Fig 13: the breakdown of skipped terms (zero vs out-of-bounds)."""

from conftest import show

from repro.harness import run_fig13_skipped


def test_fig13_skipped_terms():
    table = run_fig13_skipped()
    show(
        table,
        "Fig 13: zero terms dominate the skipped work everywhere; "
        "out-of-bounds skipping adds ~5-10% for ResNet50-S2/Detectron2 "
        "and least for the models that are already very sparse.",
    )
    by_model = {row[0]: row for row in table.rows}
    for model, row in by_model.items():
        skipped, zero_share, ob_share = row[1], row[2], row[3]
        assert 0.5 < skipped < 1.0
        assert zero_share > ob_share  # zeros dominate (Fig 13's shape)
    # Quantized ResNet18-Q gains mostly from zero terms (paper text).
    assert by_model["ResNet18-Q"][3] < 0.15
