"""Whole-accelerator simulation: tiles x scheduler x memory roofline.

The simulator consumes :class:`repro.core.workload.PhaseWorkload` items
(one per layer and training phase), picks the serial side, simulates the
tile schedule over sampled operand strips -- drawn in one vectorized
call and simulated in one batched :meth:`TileSimulator.simulate_strips`
pass -- and scales the measured cycles-per-group to the phase's exact
MAC count.  Off-chip traffic is
checked against the LPDDR4 roofline (with exponent base-delta
compression when enabled), and activity counters feed the energy model.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro import codec
from repro.compression.base_delta import mean_compression_ratio
from repro.core.config import AcceleratorConfig, TileConfig, fpraker_paper_config
from repro.core.stats import SimCounters
from repro.core.tile import TileSimulator
from repro.core.workload import PhaseWorkload
from repro.encoding.booth import term_count
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.fp.accumulator import AccumulatorSpec
from repro.memory.dram import DRAMModel
from repro.memory.traffic import TRANSPOSERS_PER_TILE, phase_traffic


@dataclass
class LayerPhaseResult:
    """Simulation outcome of one layer-phase.

    Attributes:
        model: model name.
        layer: layer name.
        phase: training phase ("AxW", "GxW", "AxG").
        macs: MACs retired.
        serial_tensor: which tensor was streamed term-serially.
        compute_cycles: cycles if compute bound.
        dram_cycles: cycles if memory bound (after compression).
        cycles: the phase's cycles -- max of the two.
        counters: activity counters scaled to the full phase.
        dram_bytes: effective off-chip bytes (post-BDC when enabled).
        dram_bytes_raw: uncompressed off-chip bytes.
        energy: energy breakdown of the phase.
    """

    model: str
    layer: str
    phase: str
    macs: int
    serial_tensor: str
    compute_cycles: float
    dram_cycles: float
    cycles: float
    counters: SimCounters
    dram_bytes: float
    dram_bytes_raw: float
    energy: EnergyBreakdown


@dataclass
class WorkloadResult:
    """Aggregated simulation outcome over many layer-phases.

    Attributes:
        name: configuration name (e.g. "fpraker", "baseline").
        model: model name.
        phases: per-phase results.
    """

    name: str
    model: str
    phases: list[LayerPhaseResult] = field(default_factory=list)

    @property
    def cycles(self) -> float:
        """Total cycles (phases execute back to back)."""
        return sum(p.cycles for p in self.phases)

    @property
    def macs(self) -> int:
        """Total MACs."""
        return sum(p.macs for p in self.phases)

    def cycles_of_phase(self, phase: str) -> float:
        """Total cycles of one training phase across layers."""
        return sum(p.cycles for p in self.phases if p.phase == phase)

    def counters_total(self) -> SimCounters:
        """Merged activity counters."""
        total = SimCounters()
        for p in self.phases:
            total.add(p.counters)
        return total

    def energy_total(self) -> EnergyBreakdown:
        """Merged energy breakdown."""
        from repro.energy.model import CoreEnergy

        total = EnergyBreakdown(core=CoreEnergy())
        for p in self.phases:
            total.add(p.energy)
        return total

    def speedup_vs(self, other: "WorkloadResult") -> float:
        """Cycle-count speedup of this run relative to ``other``."""
        if self.cycles == 0:
            return float("inf")
        return other.cycles / self.cycles

    def phase_speedup_vs(self, other: "WorkloadResult", phase: str) -> float:
        """Per-phase speedup relative to ``other``."""
        own = self.cycles_of_phase(phase)
        if own == 0:
            return float("inf")
        return other.cycles_of_phase(phase) / own

    def to_dict(self) -> dict:
        """JSON-serializable form (exact float round-trip; read back
        with ``codec.from_dict(WorkloadResult, data, path)``)."""
        return codec.to_dict(self)


def _sample_runs(
    values: np.ndarray,
    shape: tuple[int, int],
    lanes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample groups as *contiguous* runs of the value stream.

    The dataflow feeds a PE group 8 consecutive reduction elements
    (adjacent channels), which are spatially correlated -- their
    exponents cluster (paper Fig 6).  Sampling i.i.d. values would
    destroy that correlation and grossly overstate the intra-group
    exponent spread, so groups are drawn as contiguous slices of the
    generated (group-correlated) sample stream.

    Args:
        values: flat value stream (in streaming order).
        shape: leading dimensions of the result (e.g. (cols, steps)).
        lanes: run length (group size).
        rng: random generator.

    Returns:
        float64 array of shape ``shape + (lanes,)``.
    """
    if values.size == 0:
        # A fully-empty stream (e.g. a degenerate layer slice) yields
        # all-zero groups; tiling cannot grow an empty array.
        return np.zeros(tuple(shape) + (lanes,))
    if values.size < lanes:
        values = np.tile(values, -(-lanes // values.size) + 1)
    starts = rng.integers(0, values.size - lanes + 1, size=shape)
    return values[starts[..., None] + np.arange(lanes)]


def _sample_column_runs(
    values: np.ndarray,
    cols: int,
    steps: int,
    lanes: int,
    rng: np.random.Generator,
    strips: int | None = None,
) -> np.ndarray:
    """Sample the serial-side streams of a tile's columns.

    Columns process *neighboring* outputs (adjacent convolution windows
    or adjacent batch rows), so at any reduction step their serial
    operands come from overlapping or nearby regions of the same tensor
    -- their term counts are strongly correlated, which is why the
    paper's depth-1 B buffers suffice to hide cross-column skew.  Each
    step draws one random stream position shared by all columns, with a
    small per-column offset (the window stride).

    Args:
        values: flat value stream (streaming order).
        cols: tile columns.
        steps: reduction steps.
        lanes: group size.
        rng: random generator.
        strips: optional batch size; when given, every strip draws its
            own step positions in one vectorized call.

    Returns:
        float64 array ``[cols, steps, lanes]``, or
        ``[strips, cols, steps, lanes]`` when ``strips`` is given.
    """
    stride = 2
    span = lanes + stride * (cols - 1)
    shape = (steps,) if strips is None else (strips, steps)
    if values.size == 0:
        return np.zeros(shape[:-1] + (cols, steps, lanes))
    if values.size < span:
        values = np.tile(values, -(-span // values.size) + 1)
    starts = rng.integers(0, values.size - span + 1, size=shape)
    offsets = starts[..., None, :] + stride * np.arange(cols)[:, None]
    return values[offsets[..., None] + np.arange(lanes)]


def choose_serial_side(
    workload: PhaseWorkload, mode: str
) -> tuple[np.ndarray, np.ndarray, str]:
    """Pick which tensor streams term-serially.

    ``"auto"`` serializes the tensor with fewer average terms (more term
    sparsity means fewer cycles), which is the paper's per-layer,
    per-phase choice.

    Args:
        workload: the layer-phase.
        mode: ``"auto"``, ``"a"`` or ``"b"``.

    Returns:
        ``(serial_values, parallel_values, serial_tensor_name)``.
    """
    if mode == "a":
        return workload.values_a, workload.values_b, workload.tensor_a
    if mode == "b":
        return workload.values_b, workload.values_a, workload.tensor_b
    if mode != "auto":
        raise ValueError(f"unknown serial-side mode {mode!r}")
    # The auto choice depends only on the value streams, so it is
    # memoized on the workload object (array-identity guarded), letting
    # every configuration of a sweep share one term-count measurement.
    memo = getattr(workload, "_serial_side_memo", None)
    if (
        memo is not None
        and memo[0] is workload.values_a
        and memo[1] is workload.values_b
    ):
        serialize_a = memo[2]
    else:
        # An empty stream carries no terms at all: serializing it is
        # free.
        terms_a = (
            float(term_count(workload.values_a).mean())
            if workload.values_a.size
            else 0.0
        )
        terms_b = (
            float(term_count(workload.values_b).mean())
            if workload.values_b.size
            else 0.0
        )
        serialize_a = terms_a <= terms_b
        workload._serial_side_memo = (
            workload.values_a,
            workload.values_b,
            serialize_a,
        )
    if serialize_a:
        return workload.values_a, workload.values_b, workload.tensor_a
    return workload.values_b, workload.values_a, workload.tensor_b


@dataclass
class _PhasePrep:
    """Per-phase state between the operand draw and the tile engine.

    Splitting the phase simulation into prepare -> engine -> finish is
    what lets :meth:`AcceleratorSimulator.simulate_workload` stack many
    phases into one batched tile pass: every phase's operand draw stays
    exactly the per-phase RNG sequence of the unstacked path, only the
    engine invocation is shared.
    """

    workload: PhaseWorkload
    tile_cfg: TileConfig
    serial: np.ndarray
    parallel: np.ndarray
    serial_name: str
    steps: int
    a_stack: np.ndarray
    b_stack: np.ndarray
    initial_sums: np.ndarray | None

    @property
    def strips(self) -> int:
        """Sampled strips of this phase."""
        return int(self.a_stack.shape[0])


# The memory engines that price off-chip traffic, in the order the CLI
# and the rejection messages list them.
MEMORY_ENGINES = ("roofline", "hierarchy")


class AcceleratorSimulator:
    """FPRaker accelerator simulator (compute + memory roofline + energy).

    Args:
        config: accelerator configuration (defaults to the paper's
            36-tile FPRaker).
        sample_strips: operand strips sampled per layer-phase.  The
            batched engine makes extra strips nearly free, so the
            default is 8 (twice the pre-batching default) for tighter
            sampling at lower cost than the old serial 4.
        sample_steps: reduction groups per strip (capped by the layer's
            actual reduction length).
        seed: RNG seed for operand sampling (results are deterministic).
        memory_engine: ``"roofline"`` (the reference) prices off-chip
            traffic as flat bytes-over-bandwidth; ``"hierarchy"`` runs
            the event-level traffic engine
            (:mod:`repro.memory.traffic`): container-granular DRAM
            bursts, global-buffer bank stalls, transposer occupancy,
            and scratchpad fills.  Compute cycles and activity counters
            are bit-identical between the two; only the memory-bound
            cycles (never below the roofline's), off-chip bytes, and
            on-chip energy can differ.
    """

    # Stacked simulate_strips calls are capped at this many
    # (strip x row) units so the schedule's masked row-reduction
    # intermediates stay around ten megabytes; oversized phase groups
    # split into several calls.
    _MAX_STACK_ROWS = 256

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        sample_strips: int = 8,
        sample_steps: int = 32,
        seed: int = 1234,
        memory_engine: str = "roofline",
    ) -> None:
        if memory_engine not in MEMORY_ENGINES:
            raise ValueError(f"unknown memory engine {memory_engine!r}")
        self.config = config if config is not None else fpraker_paper_config()
        self.energy = EnergyModel()
        self.dram = DRAMModel()
        self.sample_strips = sample_strips
        self.sample_steps = sample_steps
        self.seed = seed
        self.memory_engine = memory_engine

    def _prepare_phase(self, workload: PhaseWorkload) -> _PhasePrep:
        """Draw one phase's operand strips (the per-phase RNG sequence)."""
        cfg = self.config
        tile_cfg = self._tile_config_for(workload)
        serial, parallel, serial_name = choose_serial_side(
            workload, cfg.serial_side_selection
        )
        tag = f"{workload.model}/{workload.layer}/{workload.phase}".encode()
        rng = np.random.default_rng((self.seed, zlib.crc32(tag)))
        steps = max(1, min(self.sample_steps, workload.reduction // tile_cfg.pe.lanes))
        # PhaseWorkload's contract makes both value streams
        # bfloat16-exact already, and bf16 quantization is idempotent,
        # so the former re-quantization pass here was a no-op by
        # construction.
        serial_flat = np.asarray(serial, dtype=np.float64).ravel()
        parallel_flat = np.asarray(parallel, dtype=np.float64).ravel()
        # A strip usually sits in the middle of a long reduction: the
        # accumulator already holds the earlier products' sum, whose
        # random-walk growth (~ sqrt(n) times the product deviation)
        # raises the register exponent the OB mechanism keys off.
        product_std = (
            float(serial_flat.std() * parallel_flat.std())
            if serial_flat.size and parallel_flat.size
            else 0.0
        )
        strips = self.sample_strips
        # One vectorized draw covers every strip: the batched engine
        # then simulates the whole stack in a single pass.
        a_stack = _sample_column_runs(
            serial_flat,
            tile_cfg.cols,
            steps,
            tile_cfg.pe.lanes,
            rng,
            strips=strips,
        )
        b_stack = _sample_runs(
            parallel_flat,
            (strips, tile_cfg.rows, steps),
            tile_cfg.pe.lanes,
            rng,
        )
        prior_macs = rng.integers(
            0,
            max(1, workload.reduction - steps * tile_cfg.pe.lanes),
            size=strips,
        )
        if product_std > 0.0:
            # One draw per (strip, row) pair (filter): adjacent columns
            # accumulate overlapping windows, so their partial sums
            # track each other closely.  A strip at the reduction's very
            # start (prior_macs == 0) gets scale 0, i.e. a cold
            # accumulator.
            scale = product_std * np.sqrt(prior_macs.astype(np.float64))
            per_row = rng.normal(
                0.0, scale[:, None, None], (strips, tile_cfg.rows, 1)
            )
            initial_sums = np.broadcast_to(
                per_row, (strips, tile_cfg.rows, tile_cfg.cols)
            ).copy()
        else:
            initial_sums = None
        return _PhasePrep(
            workload=workload,
            tile_cfg=tile_cfg,
            serial=serial,
            parallel=parallel,
            serial_name=serial_name,
            steps=steps,
            a_stack=a_stack,
            b_stack=b_stack,
            initial_sums=initial_sums,
        )

    def simulate_phase(self, workload: PhaseWorkload) -> LayerPhaseResult:
        """Simulate one layer-phase and scale to its full MAC count.

        Args:
            workload: the layer-phase description.

        Returns:
            The scaled :class:`LayerPhaseResult`.
        """
        prep = self._prepare_phase(workload)
        batch = TileSimulator(prep.tile_cfg).simulate_strips(
            prep.a_stack, prep.b_stack, prep.initial_sums
        )
        return self._finish_phase(
            prep,
            batch.counters_total(),
            batch.steps * batch.strips,
            batch.makespan,
        )

    def _finish_phase(
        self,
        prep: _PhasePrep,
        sampled: SimCounters,
        total_steps: int,
        total_makespan: int,
    ) -> LayerPhaseResult:
        """Scale sampled tile counters to the phase and price memory."""
        cfg = self.config
        workload = prep.workload
        tile_cfg = prep.tile_cfg
        cycles_per_step = total_makespan / total_steps
        total_groups = workload.macs / tile_cfg.pe.lanes
        scale = total_groups / sampled.groups
        counters = SimCounters()
        counters.add(sampled, weight=scale)
        compute_cycles = (
            workload.macs
            * cycles_per_step
            / (cfg.tiles * tile_cfg.rows * tile_cfg.cols * tile_cfg.pe.lanes)
        )
        counters.cycles = compute_cycles
        dram_bytes_raw = workload.total_bytes
        dram_bytes = self._effective_dram_bytes(workload, prep.serial, prep.parallel)
        dram_cycles = self.dram.transfer_cycles(dram_bytes, cfg.clock_mhz)
        if self.memory_engine == "hierarchy":
            # Event-level path: same compute counters, but the
            # memory-bound cycles come from container bursts, bank
            # stalls, and transposer occupancy.  Container padding only
            # adds bytes, so hierarchy cycles are >= the roofline's.
            ratio = dram_bytes / dram_bytes_raw if dram_bytes_raw else 1.0
            traffic = phase_traffic(
                workload,
                dram=self.dram,
                clock_mhz=cfg.clock_mhz,
                transposer_units=cfg.tiles * TRANSPOSERS_PER_TILE,
                compression_ratio=ratio,
            )
            counters.memory = traffic
            dram_bytes = traffic.dram_bytes
            dram_cycles = traffic.memory_cycles
        cycles = max(compute_cycles, dram_cycles)
        energy = self._phase_energy(workload, counters, dram_bytes, tile_cfg)
        return LayerPhaseResult(
            model=workload.model,
            layer=workload.layer,
            phase=workload.phase,
            macs=workload.macs,
            serial_tensor=prep.serial_name,
            compute_cycles=compute_cycles,
            dram_cycles=dram_cycles,
            cycles=cycles,
            counters=counters,
            dram_bytes=dram_bytes,
            dram_bytes_raw=dram_bytes_raw,
            energy=energy,
        )

    def simulate_workload(
        self, workloads: list[PhaseWorkload], model: str = ""
    ) -> WorkloadResult:
        """Simulate a full list of layer-phases.

        Phases sharing a tile geometry and step count run as one
        multi-phase :meth:`TileSimulator.simulate_strips` stack (chunked
        by :data:`_MAX_STACK_ROWS`), paying the numpy dispatch and
        schedule-loop overhead once per stack instead of once per phase
        -- bit-identical to :meth:`simulate_phase` on each phase, since
        strips are independent.

        Args:
            workloads: layer-phases of one model's training step.
            model: model name for the report (defaults to the first
                workload's).

        Returns:
            The aggregated :class:`WorkloadResult`.
        """
        if not workloads:
            raise ValueError("empty workload list")
        result = WorkloadResult(
            name=self.config.name,
            model=model or workloads[0].model,
        )
        preps = [self._prepare_phase(workload) for workload in workloads]
        # Group phase indices by (tile geometry, steps): stacks must
        # agree on every strip dimension.  TileConfig is frozen, hence
        # hashable.
        groups: dict[tuple, list[int]] = {}
        for index, prep in enumerate(preps):
            groups.setdefault((prep.tile_cfg, prep.steps), []).append(index)
        phases: list[LayerPhaseResult | None] = [None] * len(preps)
        for (tile_cfg, _), indices in groups.items():
            simulator = TileSimulator(tile_cfg)
            per_call = max(
                1, self._MAX_STACK_ROWS // max(1, self.sample_strips * tile_cfg.rows)
            )
            for start in range(0, len(indices), per_call):
                chunk = indices[start : start + per_call]
                for index, prep, sampled, steps, makespan in self._run_stack(
                    simulator, [(i, preps[i]) for i in chunk]
                ):
                    phases[index] = self._finish_phase(
                        prep, sampled, steps, makespan
                    )
        result.phases = phases
        return result

    def _run_stack(
        self,
        simulator: TileSimulator,
        chunk: list[tuple[int, _PhasePrep]],
    ):
        """Run one stacked simulate_strips call and split it per phase.

        Yields ``(index, prep, sampled, total_steps, total_makespan)``
        per phase, with ``sampled`` accumulated in the phase's strip
        order -- the exact accumulation of the unstacked batched path.
        """
        a = np.concatenate([prep.a_stack for _, prep in chunk])
        b = np.concatenate([prep.b_stack for _, prep in chunk])
        if all(prep.initial_sums is None for _, prep in chunk):
            initial_sums = None
        else:
            # A zero warm start is bit-equivalent to no warm start:
            # adding 0.0 preserves every partial sum exactly and the
            # zero/nonzero exponent masking is sign-insensitive.
            initial_sums = np.concatenate(
                [
                    prep.initial_sums
                    if prep.initial_sums is not None
                    else np.zeros(
                        (prep.strips,) + prep.b_stack.shape[1:2] + (
                            prep.a_stack.shape[1],
                        )
                    )
                    for _, prep in chunk
                ]
            )
        batch = simulator.simulate_strips(a, b, initial_sums)
        offset = 0
        for index, prep in chunk:
            strips = prep.strips
            sampled = SimCounters()
            for counters in batch.counters[offset : offset + strips]:
                sampled.add(counters)
            makespan = int(batch.makespans[offset : offset + strips].sum())
            offset += strips
            yield index, prep, sampled, batch.steps * strips, makespan

    def _tile_config_for(self, workload: PhaseWorkload):
        """Tile config, honoring a per-layer accumulator width override."""
        tile_cfg = self.config.tile
        if workload.acc_frac_bits is None:
            return tile_cfg
        spec = AccumulatorSpec(
            frac_bits=workload.acc_frac_bits,
            int_bits=tile_cfg.pe.accumulator.int_bits,
            chunk_size=tile_cfg.pe.accumulator.chunk_size,
        )
        return replace(tile_cfg, pe=replace(tile_cfg.pe, accumulator=spec))

    def _effective_dram_bytes(
        self,
        workload: PhaseWorkload,
        serial: np.ndarray,
        parallel: np.ndarray,
    ) -> float:
        """Off-chip bytes after base-delta compression (when enabled).

        The compression ratio is a pure function of the two value
        streams, so it is memoized on the workload object (keyed by
        array identity: a replaced stream invalidates the memo).  The
        workload-reuse layer hands the same workload objects to every
        configuration of a sweep, which turns the per-config ratio
        measurements into one measurement per unique workload.
        """
        raw = workload.total_bytes
        if not self.config.base_delta_compression or raw == 0:
            return raw
        memo = getattr(workload, "_bdc_ratio_memo", None)
        if (
            memo is not None
            and memo[0] is workload.values_a
            and memo[1] is workload.values_b
        ):
            return raw * memo[2]
        # The mean over both streams is order-insensitive, so serial
        # and parallel sides of different configs share the value.
        ratio = mean_compression_ratio(serial, parallel)
        workload._bdc_ratio_memo = (workload.values_a, workload.values_b, ratio)
        return raw * ratio

    def _phase_energy(
        self,
        workload: PhaseWorkload,
        counters: SimCounters,
        dram_bytes: float,
        tile_cfg,
    ) -> EnergyBreakdown:
        """Energy breakdown of the phase from its activity counters."""
        core = self.energy.fpraker_core_energy(counters, lanes=tile_cfg.pe.lanes)
        on_chip_bytes = self._on_chip_bytes(workload, tile_cfg)
        on_chip = self.energy.on_chip_energy(on_chip_bytes)
        if counters.memory is not None:
            # The hierarchy engine tracks operand staging through the
            # per-tile scratchpads; those fills accrue on-chip energy
            # the roofline path cannot see.
            on_chip += self.energy.scratchpad_energy(
                counters.memory.scratchpad_bytes
            )
        return EnergyBreakdown(
            core=core,
            on_chip=on_chip,
            off_chip=self.energy.off_chip_energy(dram_bytes),
        )

    def _on_chip_bytes(self, workload: PhaseWorkload, tile_cfg) -> float:
        """Global-buffer traffic: operand broadcasts plus output writes."""
        operand_bytes = (
            workload.macs * 2.0 * (1.0 / tile_cfg.rows + 1.0 / tile_cfg.cols)
        )
        output_bytes = 2.0 * workload.macs / max(1, workload.reduction)
        return operand_bytes + output_bytes
