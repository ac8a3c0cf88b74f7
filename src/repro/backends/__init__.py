"""The three hot kernels of the simulation pipeline.

The compacting schedule cycle loop
(:func:`repro.core.schedule.schedule_from_weights_compact`), the
batched column timeline of
:meth:`repro.core.tile.TileSimulator.simulate_strips`, and the chunked
matmul group loop of :class:`repro.nn.fpmath.MatmulEngine` live as
methods of :class:`repro.backends.numpy_backend.NumpyBackend`, called
through its one shared instance :data:`~repro.backends.numpy_backend.KERNELS`.
Each is pinned bit for bit against the serial references those modules
retain.
"""

__all__ = ["KernelBackend"]


class KernelBackend:
    """Plain base of :class:`~repro.backends.numpy_backend.NumpyBackend`.

    It remains so the benchmark's span tracer (``perfbench/spans.py``)
    can find the kernel class as ``KernelBackend.__subclasses__()`` and
    time its methods as the ``backends.*`` layer.
    """
