"""Scale-out: data-parallel speedup vs node count, end to end.

The fig-style scaleout artifact on the cheapest Table-I model.  That a
symmetric N-node run costs one node simulation is pinned by
``tests/scale/test_conformance.py``, which counts the simulations.
"""

from conftest import show

from repro.harness.experiments import run_scaleout

MODEL = "NCF"


def test_scaleout_artifact():
    """The fig-style sweep end to end on the cheapest Table-I model."""
    result = run_scaleout(models=(MODEL,), nodes=(1, 2, 4, 8))
    show(
        result,
        "scale-out extension: data-parallel speedup vs node count "
        "(no paper figure; pod-scale projection from ROADMAP)",
    )
    aggregate, _ = result
    speedups = aggregate.column("Speedup vs 1")
    assert speedups[0] == 1.0
    assert all(b > a for a, b in zip(speedups, speedups[1:]))
