"""FPRaker reproduction: a term-serial FP processing element for training.

A from-scratch implementation of the system described in "FPRaker: A
Processing Element For Accelerating Neural Network Training" (MICRO
2021): bit-faithful arithmetic models, cycle-level PE/tile/accelerator
simulators, the memory and compression substrate, a training framework
with emulated-FPRaker arithmetic, and a harness regenerating every table
and figure of the paper's evaluation.

Typical entry points -- the stable public surface is :mod:`repro.api`::

    import repro.api as api

    result = api.simulate("NCF")              # one cached simulation
    client = api.connect("http://host:8177")  # a repro serve daemon

lower layers stay importable for research use::

    from repro.core import FPRakerPE, AcceleratorSimulator
    from repro.nn import MatmulEngine, EngineConfig
    from repro.harness import run_fig11_speedup

or from the shell::

    python -m repro run fig11
    python -m repro serve --store .repro-store
"""

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "api",
]


def __getattr__(name: str):
    """Lazy re-export of the :mod:`repro.api` facade.

    Keeps ``import repro`` light (no numpy import) while letting
    ``repro.api`` resolve without a separate import statement.
    """
    if name == "api":
        import repro.api as api

        return api
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
