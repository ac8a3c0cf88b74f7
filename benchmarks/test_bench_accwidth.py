"""Fig 21: per-layer profiled accumulator widths (Sakr et al.)."""

from conftest import show

from repro.harness import run_fig21_accwidth


def test_fig21_profiled_accumulator_width():
    table = run_fig21_accwidth()
    show(
        table,
        "Fig 21: per-layer profiled accumulator widths raise ResNet18's "
        "speedup from 1.13x (fixed) to 1.56x -- FPRaker exploits the "
        "narrower out-of-bounds threshold with no hardware change.",
    )
    rows = {row[0]: row for row in table.rows}
    for model in ("AlexNet", "ResNet18"):
        fixed = rows[model]
        profiled = rows[f"{model}-P"]
        # Profiled widths speed up every phase and the total.
        assert profiled[-1] > fixed[-1]
        for column in (1, 2, 3):
            assert profiled[column] >= fixed[column] * 0.98
        # The profiled gain is substantial (paper: 1.38x relative for
        # ResNet18).
        assert profiled[-1] / fixed[-1] > 1.1
