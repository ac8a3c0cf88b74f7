"""The optimized bit-parallel bfloat16 baseline accelerator.

The paper's baseline (Table II) is 8 tiles of 8x8 PEs, each PE a fused
bit-parallel MAC unit processing 8 bfloat16 pairs per cycle with the
same chunk-based reduced-precision accumulation as FPRaker -- 4096
MACs/cycle in total.  It retires one reduction group per PE per cycle
regardless of operand values, so its compute time is exactly
``macs / peak`` and its lanes are always "useful".

Numerically the baseline is the reference:
:func:`repro.fp.accumulator.dot_reference` implements its arithmetic,
which FPRaker must reproduce.
"""

from __future__ import annotations

from repro.core.accelerator import LayerPhaseResult, WorkloadResult
from repro.core.config import AcceleratorConfig, baseline_paper_config
from repro.core.stats import LaneLedger, SimCounters, TermLedger
from repro.core.workload import PhaseWorkload
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.memory.dram import DRAMModel


class BaselineAccelerator:
    """Bit-parallel baseline simulator (same interface as FPRaker's).

    Args:
        config: accelerator configuration (defaults to the paper's
            8-tile baseline).
    """

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config if config is not None else baseline_paper_config()
        self.energy = EnergyModel()
        self.dram = DRAMModel()

    def simulate_phase(self, workload: PhaseWorkload) -> LayerPhaseResult:
        """Simulate one layer-phase analytically.

        Args:
            workload: the layer-phase description.

        Returns:
            The :class:`LayerPhaseResult`.
        """
        cfg = self.config
        peak = cfg.peak_macs_per_cycle
        compute_cycles = workload.macs / peak
        dram_bytes = workload.total_bytes  # no compression in the baseline
        dram_cycles = self.dram.transfer_cycles(dram_bytes, cfg.clock_mhz)
        cycles = max(compute_cycles, dram_cycles)
        lanes = cfg.tile.pe.lanes
        groups = workload.macs / lanes
        counters = SimCounters(
            cycles=compute_cycles,
            groups=groups,
            macs=float(workload.macs),
            lanes=LaneLedger(useful=float(workload.macs)),
            terms=TermLedger(processed=0.0, zero_skipped=0.0, ob_skipped=0.0),
            exponent_invocations=groups,
            accumulator_updates=groups,
        )
        core = self.energy.baseline_core_energy(workload.macs)
        operand_bytes = workload.macs * 2.0 * (
            1.0 / cfg.tile.rows + 1.0 / cfg.tile.cols
        )
        output_bytes = 2.0 * workload.macs / max(1, workload.reduction)
        energy = EnergyBreakdown(
            core=core,
            on_chip=self.energy.on_chip_energy(operand_bytes + output_bytes),
            off_chip=self.energy.off_chip_energy(dram_bytes),
        )
        return LayerPhaseResult(
            model=workload.model,
            layer=workload.layer,
            phase=workload.phase,
            macs=workload.macs,
            serial_tensor="(bit-parallel)",
            compute_cycles=compute_cycles,
            dram_cycles=dram_cycles,
            cycles=cycles,
            counters=counters,
            dram_bytes=dram_bytes,
            dram_bytes_raw=dram_bytes,
            energy=energy,
        )

    def simulate_workload(
        self, workloads: list[PhaseWorkload], model: str = ""
    ) -> WorkloadResult:
        """Simulate a full list of layer-phases.

        Args:
            workloads: layer-phases of one model's training step.
            model: model name for the report.

        Returns:
            The aggregated :class:`WorkloadResult`.
        """
        if not workloads:
            raise ValueError("empty workload list")
        result = WorkloadResult(
            name=self.config.name,
            model=model or workloads[0].model,
        )
        for workload in workloads:
            result.phases.append(self.simulate_phase(workload))
        return result
