"""Extensions: the paper's stated future work, implemented and measured."""

from conftest import show

from repro.harness.extensions import (
    run_inference_extension,
    run_precision_schedule,
)


def test_precision_scheduled_training():
    table = run_precision_schedule()
    show(
        table,
        "Paper conclusion: 'training can start with lower precision and "
        "increase the precision per epoch near convergence. FPRaker can "
        "adapt dynamically... boosting performance and energy "
        "efficiency.'",
    )
    geomean = table.rows[-1]
    scheduled, fixed = geomean[2], geomean[3]
    assert scheduled > fixed  # the schedule pays off on average
    # Early narrow stages are the fastest.
    assert table.rows[0][2] > table.rows[-2][2]


def test_inference_use():
    table = run_inference_extension()
    show(
        table,
        "Paper conclusion: 'While we evaluated FPRaker for training, it "
        "can naturally also be used for inference.'",
    )
    for row in table.rows:
        assert row[1] > 1.0  # forward-only still beats the baseline
