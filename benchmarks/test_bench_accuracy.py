"""Fig 17: end-to-end training accuracy under emulated FPRaker arithmetic."""

import numpy as np

from conftest import show

from repro.harness import run_fig17_accuracy


def test_fig17_training_accuracy():
    table = run_fig17_accuracy(epochs=12)
    show(
        table,
        "Fig 17: the FPRaker-emulated curve converges with the bf16 "
        "baseline, within 0.1% of native training (it skips only work "
        "that cannot affect the rounded result).",
    )
    results = {row[0]: row for row in table.rows}
    fp32 = results["fp32"]
    bf16 = results["bf16"]
    fpraker = results["fpraker"]
    # All three modes converge on the task (it is deliberately noisy;
    # chance level is 0.25).
    for row in (fp32, bf16, fpraker):
        assert row[1] > 0.7  # best accuracy
    # FPRaker tracks the bf16 baseline closely (last-3-epoch mean).
    assert abs(fpraker[3] - bf16[3]) <= 0.05
    # And both stay near the native-precision run.
    assert abs(bf16[3] - fp32[3]) <= 0.08
    # The per-epoch curves correlate: same trajectory, not just the end.
    curves = table.curves
    late_gap = np.abs(
        np.array(curves["fpraker"][3:]) - np.array(curves["bf16"][3:])
    )
    assert late_gap.mean() <= 0.06
