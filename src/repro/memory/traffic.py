"""Vectorized memory-traffic engine: tensor shapes to burst schedules.

The roofline path treats off-chip traffic as a featureless byte count
(``cycles = bytes / bandwidth``).  This module models the event-level
path the paper actually describes (Section IV-E) while staying closed
form, so a whole layer-phase costs microseconds to evaluate:

* **containers** -- each DRAM-visiting stream moves in 32x32 bfloat16
  containers (:mod:`repro.memory.container`); edge padding makes the
  burst-granular byte count a little larger than the raw tensor, which
  is exactly the slack the roofline hides;
* **global-buffer banks** -- per-stream strided fetch patterns are
  priced with the same groups-of-``banks`` semantics as
  :meth:`repro.memory.buffers.GlobalBuffer.conflict_cycles`, but
  evaluated in closed form over the pattern's exact period
  (:func:`strided_burst_cycles` is conformance-tested against the
  reference loop);
* **transposers** -- backward-pass weight / activation-gradient streams
  pass through the 8x8 transposer units, whose occupancy
  (:func:`repro.memory.transposer.transpose_throughput_cycles`) can
  gate the stream;
* **scratchpads** -- every operand staged into the per-tile scratchpads
  accrues per-byte energy.

The per-phase outcome is a :class:`MemoryTrafficResult`, which the
``memory_engine="hierarchy"`` dispatch of
:class:`repro.core.accelerator.AcceleratorSimulator` threads through
``SimCounters`` into the harness and its JSON persistence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.memory.container import (
    CONTAINER_BYTES,
    container_count,
    containers_for_bytes,
)
from repro.memory.dram import DRAMModel
from repro.memory.transposer import BLOCK, transpose_throughput_cycles

# Transposer units per tile feeding the backward-pass streams; with the
# paper's 36 tiles that is a bank of 144 units.
TRANSPOSERS_PER_TILE = 4

# Default global-buffer geometry (paper: 9 banks, 16 B accesses); kept
# in sync with :class:`repro.memory.buffers.GlobalBuffer` defaults.
DEFAULT_BANKS = 9
DEFAULT_ACCESS_BYTES = 16


def _pattern_cost(bank_ids: np.ndarray, banks: int) -> tuple[int, int]:
    """Burst cycles and conflicts of one explicit bank-index sequence.

    Accesses are issued in bursts of ``banks`` consecutive entries; a
    burst costs the maximum per-bank multiplicity and every same-bank
    duplicate beyond the first is a conflict -- the semantics of
    :meth:`repro.memory.buffers.GlobalBuffer.read_burst`.
    """
    if bank_ids.size == 0:
        return 0, 0
    groups = np.arange(bank_ids.size) // banks
    table = np.zeros((int(groups[-1]) + 1, banks), dtype=np.int64)
    np.add.at(table, (groups, bank_ids), 1)
    cycles = int(table.max(axis=1).sum())
    conflicts = int((table.sum(axis=1) - (table > 0).sum(axis=1)).sum())
    return cycles, conflicts


def strided_burst_cycles(
    stride_values: int,
    accesses: int,
    banks: int = DEFAULT_BANKS,
    access_bytes: int = DEFAULT_ACCESS_BYTES,
) -> tuple[int, int]:
    """Closed-form cycles/conflicts of a strided global-buffer sweep.

    Exactly equivalent to
    ``GlobalBuffer(banks=banks, access_bytes=access_bytes)
    .conflict_cycles(stride_values, accesses)`` -- the property suite
    pins the equivalence -- but evaluated over one period of the bank
    pattern instead of access by access, so billions of fetches price
    in constant time.

    The pattern ``bank(i) = (i * stride_bytes // access_bytes) % banks``
    is periodic: after ``t = access_bytes / gcd(stride_bytes,
    access_bytes)`` accesses the line index advances by the integer
    ``t * stride_bytes / access_bytes``, and after ``banks /
    gcd(line_step, banks)`` such steps the bank offset returns to zero.
    Aligning that with the burst width gives a period that is a whole
    number of bursts, over which costs simply repeat.

    Args:
        stride_values: stride between consecutive reads, in bfloat16
            values (non-negative).
        accesses: number of reads (non-positive counts cost 0).
        banks: bank count.
        access_bytes: bytes per access line.

    Returns:
        ``(cycles, conflicts)`` of the full sweep.
    """
    if banks < 1:
        raise ValueError(f"banks must be >= 1, got {banks}")
    if access_bytes < 1:
        raise ValueError(f"access_bytes must be >= 1, got {access_bytes}")
    if accesses <= 0:
        return 0, 0
    stride_bytes = int(stride_values) * 2
    t_int = access_bytes // math.gcd(abs(stride_bytes), access_bytes)
    line_step = t_int * stride_bytes // access_bytes
    bank_period = t_int * (banks // math.gcd(abs(line_step), banks))
    period = math.lcm(bank_period, banks)  # whole bursts

    def bank_ids(n: int) -> np.ndarray:
        idx = np.arange(n, dtype=np.int64)
        return ((idx * stride_bytes) // access_bytes) % banks

    if accesses <= period:
        return _pattern_cost(bank_ids(accesses), banks)
    full, remainder = divmod(accesses, period)
    cycles_p, conflicts_p = _pattern_cost(bank_ids(period), banks)
    cycles_r, conflicts_r = _pattern_cost(bank_ids(remainder), banks)
    return full * cycles_p + cycles_r, full * conflicts_p + conflicts_r


@dataclass
class MemoryTrafficResult:
    """Event-level memory-hierarchy activity of one simulation scope.

    All fields are floats so scaled aggregation (:meth:`add` with a
    weight) composes the same way the other simulator ledgers do.

    Attributes:
        dram_bytes: container-granular effective off-chip bytes
            (padding included, base-delta compression applied).
        containers: 32x32 containers moved off-chip.
        dram_cycles: DRAM burst cycles for those containers.
        gb_reads: global-buffer read accesses (PE fetches + drains).
        gb_writes: global-buffer write accesses (DRAM fills + results).
        bank_cycles: global-buffer cycles including bank serialization.
        bank_conflict_cycles: cycles lost to bank conflicts alone
            (``bank_cycles`` minus the conflict-free burst count).
        transposer_blocks: 8x8 groups routed through the transposers.
        transposer_cycles: transposer-bank occupancy in cycles.
        scratchpad_bytes: bytes staged through per-tile scratchpads.
    """

    dram_bytes: float = 0.0
    containers: float = 0.0
    dram_cycles: float = 0.0
    gb_reads: float = 0.0
    gb_writes: float = 0.0
    bank_cycles: float = 0.0
    bank_conflict_cycles: float = 0.0
    transposer_blocks: float = 0.0
    transposer_cycles: float = 0.0
    scratchpad_bytes: float = 0.0

    FIELDS = (
        "dram_bytes",
        "containers",
        "dram_cycles",
        "gb_reads",
        "gb_writes",
        "bank_cycles",
        "bank_conflict_cycles",
        "transposer_blocks",
        "transposer_cycles",
        "scratchpad_bytes",
    )

    @property
    def memory_cycles(self) -> float:
        """Cycles the memory system needs for the scope's traffic.

        DRAM bursts, global-buffer sweeps, and transposer turnaround
        pipeline against each other, so the slowest resource binds.
        """
        return max(self.dram_cycles, self.bank_cycles, self.transposer_cycles)

    def add(self, other: "MemoryTrafficResult", weight: float = 1.0) -> None:
        """Accumulate another result, optionally scaled."""
        for name in self.FIELDS:
            setattr(
                self, name, getattr(self, name) + getattr(other, name) * weight
            )


def _stream_containers(stream) -> float:
    """Containers covering a stream's off-chip bytes (padding included).

    A shaped stream moves ``container_count(shape)`` containers per
    stored copy; the spilled fraction (``dram_bytes / volume_bytes``,
    0 or 1 under the all-or-nothing partition rules) scales that down
    for tensors kept on-chip.
    """
    if not stream.dram_bytes > 0:
        return 0.0
    if stream.shape is None or not stream.volume_bytes > 0:
        return containers_for_bytes(stream.dram_bytes)
    spilled = stream.dram_bytes / stream.volume_bytes
    return container_count(stream.shape) * stream.copies * spilled


# Tensor letter each phase's result stream carries (the convention
# traces/workloads uses: forward produces activations' gradient-side
# counterpart, GxW the input gradient, AxG the weight gradient).
_PHASE_OUTPUT_TENSOR = {"AxW": "G", "GxW": "A", "AxG": "W"}


def _fallback_streams(workload):
    """Synthesized byte-total streams for workloads without geometry."""
    from repro.core.workload import StreamSpec

    streams = []
    if workload.input_bytes > 0:
        streams.append(
            StreamSpec(
                tensor=workload.tensor_a,
                direction="read",
                volume_bytes=workload.input_bytes,
                dram_bytes=workload.input_bytes,
            )
        )
    if workload.output_bytes > 0:
        streams.append(
            StreamSpec(
                tensor=_PHASE_OUTPUT_TENSOR.get(
                    workload.phase, workload.tensor_b
                ),
                direction="write",
                volume_bytes=workload.output_bytes,
                dram_bytes=workload.output_bytes,
            )
        )
    return tuple(streams)


def phase_traffic(
    workload,
    dram: DRAMModel | None = None,
    clock_mhz: float = 600.0,
    banks: int = DEFAULT_BANKS,
    access_bytes: int = DEFAULT_ACCESS_BYTES,
    transposer_units: int = 36 * TRANSPOSERS_PER_TILE,
    compression_ratio: float = 1.0,
) -> MemoryTrafficResult:
    """Price one layer-phase's memory traffic at event granularity.

    Args:
        workload: a :class:`repro.core.workload.PhaseWorkload`; its
            ``streams`` drive the schedule (falling back to the byte
            totals when no geometry is attached).
        dram: off-chip model (defaults to the paper's LPDDR4-3200 x4).
        clock_mhz: accelerator clock.
        banks: global-buffer bank count.
        access_bytes: global-buffer access width.
        transposer_units: 8x8 transposer units available in parallel.
        compression_ratio: effective/raw off-chip byte ratio from
            base-delta compression (1.0 = uncompressed).

    Returns:
        The phase's :class:`MemoryTrafficResult`.  Its ``dram_cycles``
        are always >= the roofline's, because container padding can
        only add bytes on top of the roofline's raw count.
    """
    dram = dram if dram is not None else DRAMModel()
    result = MemoryTrafficResult()
    streams = workload.streams or _fallback_streams(workload)
    for stream in streams:
        containers = _stream_containers(stream)
        if containers > 0:
            fill_bytes = containers * CONTAINER_BYTES
            result.containers += containers
            result.dram_bytes += fill_bytes * compression_ratio
            # Container fills/drains sweep the banks sequentially.
            fill_accesses = fill_bytes / access_bytes
            result.bank_cycles += math.ceil(fill_accesses / banks)
            if stream.direction == "read":
                result.gb_writes += fill_accesses
            else:
                result.gb_reads += fill_accesses
        if stream.volume_bytes > 0:
            accesses = math.ceil(stream.volume_bytes / access_bytes)
            if stream.direction == "read":
                cycles, _ = strided_burst_cycles(
                    stream.stride_values, accesses, banks, access_bytes
                )
                result.gb_reads += accesses
                result.bank_cycles += cycles
                result.bank_conflict_cycles += cycles - math.ceil(
                    accesses / banks
                )
            else:
                result.gb_writes += accesses
                result.bank_cycles += math.ceil(accesses / banks)
            result.scratchpad_bytes += stream.volume_bytes
            if stream.transposed:
                blocks = stream.volume_bytes / (2.0 * BLOCK * BLOCK)
                result.transposer_blocks += blocks
                result.transposer_cycles += transpose_throughput_cycles(
                    blocks, transposer_units
                )
    result.dram_cycles = dram.transfer_cycles(result.dram_bytes, clock_mhz)
    return result


def workload_traffic(
    workloads,
    dram: DRAMModel | None = None,
    clock_mhz: float = 600.0,
    banks: int = DEFAULT_BANKS,
    access_bytes: int = DEFAULT_ACCESS_BYTES,
    transposer_units: int = 36 * TRANSPOSERS_PER_TILE,
    ratio_of=None,
) -> MemoryTrafficResult:
    """Aggregate :func:`phase_traffic` over a list of layer-phases.

    Args:
        workloads: iterable of :class:`PhaseWorkload` items.
        dram: off-chip model shared by all phases.
        clock_mhz: accelerator clock.
        banks: global-buffer bank count.
        access_bytes: global-buffer access width.
        transposer_units: parallel transposer units.
        ratio_of: optional callable mapping a workload to its base-delta
            compression ratio (None = uncompressed).

    Returns:
        The summed :class:`MemoryTrafficResult`.
    """
    total = MemoryTrafficResult()
    for workload in workloads:
        ratio = ratio_of(workload) if ratio_of is not None else 1.0
        total.add(
            phase_traffic(
                workload,
                dram=dram,
                clock_mhz=clock_mhz,
                banks=banks,
                access_bytes=access_bytes,
                transposer_units=transposer_units,
                compression_ratio=ratio,
            )
        )
    return total
