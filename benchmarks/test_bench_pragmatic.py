"""Section I's negative result: bfloat16 Bit-Pragmatic at iso area."""

from conftest import show

from repro.harness import run_pragmatic_comparison


def test_pragmatic_fp_comparison():
    table = run_pragmatic_comparison()
    show(
        table,
        "Section I: the bfloat16 Bit-Pragmatic configuration is on "
        "average 1.72x slower and 1.96x less energy efficient than the "
        "optimized bit-parallel baseline (worst case 2.86x / 3.2x) -- "
        "the negative result motivating FPRaker's design.",
    )
    geomean = table.rows[-1]
    slowdown, inefficiency = geomean[1], geomean[2]
    assert 1.4 <= slowdown <= 2.1
    assert 1.5 <= inefficiency <= 2.4
    worst = max(row[1] for row in table.rows[:-1])
    assert worst > 1.9  # a clearly bad worst case exists
