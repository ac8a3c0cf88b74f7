"""Fig 18: speedup across the training process."""

from conftest import show

from repro.harness import run_fig18_over_time


def test_fig18_speedup_over_time():
    table = run_fig18_over_time()
    show(
        table,
        "Fig 18: VGG16 declines ~15% after the first third and "
        "plateaus; ResNet18-Q rises ~12.5% once PACT's clipping "
        "settles; all other models stay flat -- benefits persist "
        "across all of training.",
    )
    by_model = {row[0]: row[1:] for row in table.rows}
    # VGG16: early > late.
    assert by_model["VGG16"][0] > by_model["VGG16"][-1]
    # ResNet18-Q: late > early.
    assert by_model["ResNet18-Q"][-1] > by_model["ResNet18-Q"][0]
    # Stable models stay within a narrow band.
    for model in ("Bert", "NCF", "Image2Text"):
        series = by_model[model]
        assert max(series) - min(series) < 0.3
    # Speedups remain above break-even throughout for every model.
    for series in by_model.values():
        assert min(series) > 0.9
