"""Benchmark helpers: run each experiment once and print its table."""

import pathlib

import pytest

RESULTS_FILE = pathlib.Path(__file__).parent / "results" / "latest.txt"

# Whether show() has written RESULTS_FILE yet in this pytest session.
_shown = False


def run_once(benchmark, func, *args, **kwargs):
    """Execute an experiment exactly once under the benchmark timer.

    The experiments are deterministic and minutes-scale, so one round is
    both sufficient and necessary.

    Args:
        benchmark: the pytest-benchmark fixture.
        func: experiment entry point.
        *args: forwarded.
        **kwargs: forwarded.

    Returns:
        The experiment's return value.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def show(result, paper_note: str) -> None:
    """Print an experiment table (or tuple of tables) plus the paper anchor.

    The rendered tables also go to ``benchmarks/results/latest.txt`` so
    the regenerated figures survive pytest's output capture: the first
    call of a session rewrites the file, later calls append to it.
    """
    global _shown
    tables = result if isinstance(result, tuple) else (result,)
    lines = []
    print()
    for table in tables:
        table.show()
        lines.append(table.render())
    print(f"Paper reference: {paper_note}")
    lines.append(f"Paper reference: {paper_note}\n")
    RESULTS_FILE.parent.mkdir(exist_ok=True)
    with RESULTS_FILE.open("a" if _shown else "w") as handle:
        handle.write("\n".join(lines) + "\n")
    _shown = True
