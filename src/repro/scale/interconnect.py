"""Inter-node link/NoC model and communication pricing.

Scale-out simulation splits one accelerator's work across N compute
nodes (tiles or chips); whatever a partition scheme exchanges between
nodes -- gradient all-reduces, activation all-gathers, pipeline
handoffs -- is priced here.  The model is deliberately simple and
closed form, mirroring the single-node memory roofline's style:

* a :class:`LinkModel` carries per-direction link bandwidth, a per-hop
  latency, and a per-bit transfer energy (NVLink/inter-chip-NoC
  ballpark figures by default);
* collective volumes follow the standard ring algorithms
  (:func:`all_reduce_wire_bytes`, :func:`all_gather_wire_bytes`):
  bandwidth-optimal schedules whose per-node wire traffic is a pure
  function of the payload and the node count;
* the landing side of every remote byte still crosses the receiving
  node's memory system, so wire traffic is also priced through the
  container machinery of :mod:`repro.memory` -- remote payloads move
  in the same 32x32-bfloat16 containers as DRAM streams, and the
  container-granular byte count feeds the node's
  :class:`repro.memory.dram.DRAMModel`.

Everything degenerates to exactly zero at one node: no wire bytes, no
hops, no energy -- which is one half of the N=1 bit-exactness contract
(:mod:`repro.scale.scaleout` holds the other half).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.container import CONTAINER_BYTES, containers_for_bytes
from repro.memory.dram import DRAMModel


@dataclass(frozen=True)
class LinkModel:
    """Point-to-point inter-node link (ring/mesh NoC hop).

    Attributes:
        link_gbs: per-direction link bandwidth in GB/s (inter-chip
            serdes ballpark; a pod-style 100 GB/s by default).
        hop_latency_cycles: accelerator cycles of latency per hop --
            serialization, switching, and synchronization overhead paid
            once per collective step or handoff.
        energy_pj_per_bit: transfer energy per bit moved over a link
            (inter-chip serdes cost, cheaper than DRAM's 4 pJ/bit).
    """

    link_gbs: float = 100.0
    hop_latency_cycles: float = 64.0
    energy_pj_per_bit: float = 0.8

    def bytes_per_cycle(self, clock_mhz: float) -> float:
        """Deliverable bytes per accelerator clock cycle.

        Args:
            clock_mhz: accelerator clock (paper: 600 MHz).

        Returns:
            Bytes per cycle at the link bandwidth.
        """
        return self.link_gbs * 1e9 / (clock_mhz * 1e6)

    def transfer_cycles(self, nbytes: float, clock_mhz: float) -> float:
        """Cycles to move ``nbytes`` over one link.

        Args:
            nbytes: bytes transferred (non-positive or NaN cost 0).
            clock_mhz: accelerator clock.

        Returns:
            Transfer time in accelerator cycles.
        """
        if not nbytes > 0:  # also catches NaN
            return 0.0
        return nbytes / self.bytes_per_cycle(clock_mhz)

    def transfer_energy_nj(self, nbytes: float) -> float:
        """Energy to move ``nbytes`` over the links, in nanojoules."""
        if not nbytes > 0:
            return 0.0
        return nbytes * 8.0 * self.energy_pj_per_bit / 1e3


def all_reduce_wire_bytes(payload_bytes: float, nodes: int) -> float:
    """Per-node wire traffic of a ring all-reduce.

    The bandwidth-optimal ring moves every payload byte around the ring
    twice (reduce-scatter then all-gather), so each node sends and
    receives ``2 * (N - 1) / N`` of the payload.

    Args:
        payload_bytes: bytes reduced (e.g. one step's weight gradients).
        nodes: participating nodes.

    Returns:
        Bytes each node puts on the wire (0 for one node).
    """
    if nodes <= 1 or not payload_bytes > 0:
        return 0.0
    return 2.0 * (nodes - 1) / nodes * payload_bytes


def all_gather_wire_bytes(payload_bytes: float, nodes: int) -> float:
    """Per-node wire traffic of a ring all-gather (or reduce-scatter).

    Each node forwards every other node's shard once: ``(N - 1) / N``
    of the full payload.

    Args:
        payload_bytes: full gathered size (sum of all shards).
        nodes: participating nodes.

    Returns:
        Bytes each node puts on the wire (0 for one node).
    """
    if nodes <= 1 or not payload_bytes > 0:
        return 0.0
    return (nodes - 1) / nodes * payload_bytes


@dataclass
class CommStats:
    """Priced inter-node communication of one node for one step.

    Attributes:
        payload_bytes: logical bytes the node's collectives cover (the
            tensor sizes, before the ring schedule multiplies them).
        wire_bytes: bytes the node actually puts on its links.
        steps: serialized collective steps / handoffs (each pays one
            hop latency).
        link_cycles: wire transfer time at link bandwidth.
        dram_cycles: cycles for the landed bytes to cross the node's
            own memory system (container-granular, DRAM bandwidth).
        latency_cycles: accumulated per-hop latency.
        energy_nj: link transfer energy in nanojoules.
    """

    payload_bytes: float = 0.0
    wire_bytes: float = 0.0
    steps: float = 0.0
    link_cycles: float = 0.0
    dram_cycles: float = 0.0
    latency_cycles: float = 0.0
    energy_nj: float = 0.0

    @property
    def cycles(self) -> float:
        """Communication time of the node for one training step.

        Wire transfer and the landing side's memory system pipeline
        against each other (the slower binds); hop latencies are
        serialized on top.
        """
        return max(self.link_cycles, self.dram_cycles) + self.latency_cycles


def price_comm(
    payload_bytes: float,
    wire_bytes: float,
    steps: float,
    link: LinkModel,
    dram: DRAMModel,
    clock_mhz: float,
) -> CommStats:
    """Price one node's communication volumes into a :class:`CommStats`.

    Args:
        payload_bytes: logical collective payload of the node.
        wire_bytes: bytes the node puts on its links.
        steps: serialized hops (collective steps / handoffs).
        link: the inter-node link model.
        dram: the node's off-chip memory model (remote bytes land
            through it, container-granular).
        clock_mhz: accelerator clock.

    Returns:
        The priced :class:`CommStats`; all-zero when ``wire_bytes`` is
        zero, preserving N=1 bit-exactness.
    """
    if not wire_bytes > 0:
        return CommStats(payload_bytes=float(payload_bytes))
    landed = containers_for_bytes(wire_bytes) * CONTAINER_BYTES
    return CommStats(
        payload_bytes=float(payload_bytes),
        wire_bytes=float(wire_bytes),
        steps=float(steps),
        link_cycles=link.transfer_cycles(wire_bytes, clock_mhz),
        dram_cycles=dram.transfer_cycles(landed, clock_mhz),
        latency_cycles=float(steps) * link.hop_latency_cycles,
        energy_nj=link.transfer_energy_nj(wire_bytes),
    )
