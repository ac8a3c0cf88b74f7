"""Benchmark helpers: print each experiment's table and paper anchor."""

import pathlib

RESULTS_FILE = pathlib.Path(__file__).parent / "results" / "latest.txt"

# Whether show() has written RESULTS_FILE yet in this pytest session.
_shown = False


def show(result, paper_note: str) -> None:
    """Print an experiment table (or tuple of tables) plus the paper anchor.

    The rendered tables also go to ``benchmarks/results/latest.txt``
    (untracked) so the regenerated figures survive pytest's output
    capture: the first call of a session rewrites the file, later calls
    append to it.
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
