"""Memory-system substrate: containers, transposers, buffers, DRAM.

Training reuses the same arrays in different orders across the three
phases, which defeats the memory layouts inference accelerators use.
The paper's data-supply design (Section IV-E):

* arrays live off-chip in **containers** of 32x32 bfloat16 values whose
  size matches DDR4 row granularity (:mod:`repro.memory.container`);
* on-chip **transposers** re-order 8x8 blocks so the backward pass can
  stream weights/gradients transposed (:mod:`repro.memory.transposer`);
* a multi-banked **global buffer** (4 MB x 9 banks -- odd to dodge
  stride conflicts) plus per-tile scratchpads feed the PEs
  (:mod:`repro.memory.buffers`);
* a 4-channel **LPDDR4-3200** model provides bandwidth and energy
  bookkeeping (:mod:`repro.memory.dram`).

The **traffic engine** (:mod:`repro.memory.traffic`) wires these
components into the simulator's timing path.  Data flows through it in
four stages, one per component above:

1. each layer-phase carries per-stream geometry
   (:class:`repro.core.workload.StreamSpec`); DRAM-visiting streams are
   cut into containers, whose edge padding sets the burst-granular
   off-chip byte count and hence the DRAM cycles;
2. container fills land in the global buffer and PE fetches sweep it
   with the stream's stride; :func:`repro.memory.traffic.strided_burst_cycles`
   prices the sweep with :meth:`GlobalBuffer.conflict_cycles` semantics
   in closed form, yielding bank-stall cycles;
3. backward-pass weight / activation-gradient streams pass through the
   8x8 transposers, whose occupancy can gate the stream;
4. every operand staged into the per-tile scratchpads accrues per-byte
   energy.

The per-phase :class:`repro.memory.traffic.MemoryTrafficResult` rides
on ``SimCounters`` when ``AcceleratorSimulator`` runs with
``memory_engine="hierarchy"``; the default ``"roofline"`` engine keeps
the flat ``bytes / bandwidth`` reference behavior.
"""

from repro.memory.container import (
    CONTAINER_BYTES,
    CONTAINER_SIDE,
    Container,
    pack_containers,
    unpack_containers,
    container_count,
    containers_for_bytes,
)
from repro.memory.transposer import (
    Transposer,
    transpose_blocks,
    transpose_throughput_cycles,
)
from repro.memory.buffers import GlobalBuffer
from repro.memory.dram import DRAMModel
from repro.memory.traffic import (
    MemoryTrafficResult,
    phase_traffic,
    strided_burst_cycles,
    workload_traffic,
)

__all__ = [
    "CONTAINER_BYTES",
    "CONTAINER_SIDE",
    "Container",
    "pack_containers",
    "unpack_containers",
    "container_count",
    "containers_for_bytes",
    "Transposer",
    "transpose_blocks",
    "transpose_throughput_cycles",
    "GlobalBuffer",
    "DRAMModel",
    "MemoryTrafficResult",
    "phase_traffic",
    "strided_burst_cycles",
    "workload_traffic",
]
