"""Bit-Pragmatic converted to bfloat16: the paper's negative result.

Section I reports that porting the Bit-Pragmatic inference PE to
floating point yields an area-expensive unit: 2.5x smaller than the
bit-parallel PE (so only 20 tiles fit the baseline's 8-tile compute
area), full-range shifters (no shift-window economy -- that is *why* it
is big), no out-of-bounds skipping, and a per-PE exponent path.  Under
iso compute area it ends up on average 1.72x slower and 1.96x less
energy efficient than the optimized bit-parallel baseline -- the
observation that motivated FPRaker's area-focused design choices.

The timing model reuses the FPRaker simulator with the Pragmatic
configuration (unlimited shift window, OB skipping off, no exponent
sharing); the energy model scales FPRaker's per-event costs by the
factors its wide datapath implies.
"""

from __future__ import annotations

from repro.core.accelerator import AcceleratorSimulator
from repro.core.config import AcceleratorConfig, pragmatic_paper_config
from repro.core.stats import SimCounters
from repro.core.workload import PhaseWorkload
from repro.energy.model import CoreEnergy, EnergyBreakdown, EnergyModel
from repro.memory.dram import DRAMModel

# Energy scale factors of the Pragmatic-FP datapath relative to
# FPRaker's: full 12-position shifters and a wide adder tree on the
# compute path, a full exponent block per PE, no shared encoders.
_COMPUTE_SCALE = 2.9
_CONTROL_SCALE = 2.0
_ACCUM_SCALE = 1.5


class PragmaticFPAccelerator(AcceleratorSimulator):
    """Bfloat16 Bit-Pragmatic accelerator at iso compute area.

    Args:
        config: defaults to 20 tiles of Pragmatic-FP PEs.
        energy: per-event energy model (FPRaker's, rescaled here).
        dram: off-chip memory model.
        sample_strips: operand strips sampled per layer-phase.
        sample_steps: reduction groups per strip.
        seed: RNG seed.
        memory_engine: ``"roofline"`` (default) or the event-level
            ``"hierarchy"`` traffic engine.
    """

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        energy: EnergyModel | None = None,
        dram: DRAMModel | None = None,
        sample_strips: int = 8,
        sample_steps: int = 32,
        seed: int = 1234,
        memory_engine: str = "roofline",
    ) -> None:
        super().__init__(
            config=config if config is not None else pragmatic_paper_config(),
            energy=energy,
            dram=dram,
            sample_strips=sample_strips,
            sample_steps=sample_steps,
            seed=seed,
            memory_engine=memory_engine,
        )

    def _phase_energy(
        self,
        workload: PhaseWorkload,
        counters: SimCounters,
        dram_bytes: float,
        tile_cfg,
    ) -> EnergyBreakdown:
        """FPRaker's activity energies scaled to the wide datapath."""
        base = self.energy.fpraker_core_energy(counters, lanes=tile_cfg.pe.lanes)
        core = CoreEnergy(
            compute=base.compute * _COMPUTE_SCALE,
            control=base.control * _CONTROL_SCALE,
            accumulation=base.accumulation * _ACCUM_SCALE,
        )
        on_chip_bytes = self._on_chip_bytes(workload, tile_cfg)
        on_chip = self.energy.on_chip_energy(on_chip_bytes)
        if counters.memory is not None:
            on_chip += self.energy.scratchpad_energy(
                counters.memory.scratchpad_bytes
            )
        return EnergyBreakdown(
            core=core,
            on_chip=on_chip,
            off_chip=self.energy.off_chip_energy(dram_bytes),
        )
