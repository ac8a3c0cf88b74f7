"""FPRaker core: the processing element, tile, and accelerator models.

Two complementary models live here:

* a **functional model** (:mod:`repro.core.pe`) that performs the
  term-serial arithmetic exactly, bit for bit, against the golden
  extended-precision accumulator -- used for correctness tests and the
  accuracy study;
* a **performance model** (:mod:`repro.core.schedule`,
  :mod:`repro.core.tile`, :mod:`repro.core.accelerator`) that simulates
  the PE's cycle-by-cycle term schedule (shift window, out-of-bounds
  skipping, lane synchronization), the shared exponent block, and the
  tile's column/row synchronization, vectorized across many reduction
  groups at once.

The bit-parallel baseline and the Bit-Pragmatic-FP comparator the paper
measures against are in :mod:`repro.core.baseline` and
:mod:`repro.core.pragmatic`; :func:`simulator_for` picks among the three
by configuration name.
"""

from repro.core.config import (
    PEConfig,
    TileConfig,
    AcceleratorConfig,
    fpraker_paper_config,
    baseline_paper_config,
    pragmatic_paper_config,
)
from repro.core.stats import LaneLedger, TermLedger, SimCounters
from repro.core.pe import FPRakerPE, GroupTrace
from repro.core.schedule import schedule_groups, group_term_weights
from repro.core.tile import TileSimulator, TileResult
from repro.core.accelerator import (
    AcceleratorSimulator,
    LayerPhaseResult,
    WorkloadResult,
)
from repro.core.baseline import BaselineAccelerator
from repro.core.pragmatic import PragmaticFPAccelerator


def simulator_for(
    config: AcceleratorConfig,
    sample_strips: int,
    sample_steps: int,
    seed: int,
    memory_engine: str,
) -> AcceleratorSimulator | BaselineAccelerator:
    """The single-accelerator simulator a configuration names.

    ``"baseline"`` selects the analytic :class:`BaselineAccelerator`,
    which samples nothing and prices memory by roofline, so it ignores
    the sampling fields, ``seed`` and ``memory_engine``;
    ``"pragmatic-fp"`` selects :class:`PragmaticFPAccelerator`; every
    other name is an FPRaker :class:`AcceleratorSimulator`.

    Args:
        config: the accelerator configuration.
        sample_strips: operand strips sampled per layer-phase.
        sample_steps: reduction groups per strip.
        seed: operand-sampling RNG seed.
        memory_engine: ``"roofline"`` or ``"hierarchy"``.

    Returns:
        The simulator, ready for ``simulate_workload``.
    """
    if config.name == "baseline":
        return BaselineAccelerator(config)
    simulator_cls = (
        PragmaticFPAccelerator
        if config.name == "pragmatic-fp"
        else AcceleratorSimulator
    )
    return simulator_cls(
        config,
        sample_strips=sample_strips,
        sample_steps=sample_steps,
        seed=seed,
        memory_engine=memory_engine,
    )


__all__ = [
    "PEConfig",
    "TileConfig",
    "AcceleratorConfig",
    "fpraker_paper_config",
    "baseline_paper_config",
    "pragmatic_paper_config",
    "LaneLedger",
    "TermLedger",
    "SimCounters",
    "FPRakerPE",
    "GroupTrace",
    "schedule_groups",
    "group_term_weights",
    "TileSimulator",
    "TileResult",
    "AcceleratorSimulator",
    "LayerPhaseResult",
    "WorkloadResult",
    "BaselineAccelerator",
    "PragmaticFPAccelerator",
    "simulator_for",
]
