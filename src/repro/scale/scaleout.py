"""Multi-node scale-out simulation: partition, per-node sim, aggregate.

One :class:`ScaleOutSimulator` answers "how does this accelerator scale
to a pod?": it wraps the single-accelerator simulator every node runs
(whatever :func:`repro.core.simulator_for` returns -- FPRaker, the
analytic baseline or Pragmatic-FP, under either memory engine), splits
a model's :class:`PhaseWorkload` list across N nodes with
:func:`repro.scale.partition.partition_workloads`, runs each node's
shard through that *unchanged* simulator, prices each node's inter-node
traffic with the link/NoC model of :mod:`repro.scale.interconnect`, and
aggregates everything into one :class:`ScaleOutResult`.

Contracts, mirrored from the repo's engine-dispatch pattern:

* **N=1 is bit-exact**: under every scheme, a one-node scale-out run's
  aggregate cycles, counters, and energy equal the plain
  ``simulate_workload`` result exactly (the partition hands over the
  original workload objects, communication is identically zero, and
  aggregation adds with weight 1.0).  Conformance and hypothesis
  property suites in ``tests/scale/`` pin this.
* **symmetric shards simulate once**: data- and model-parallel nodes
  are identical by construction, so node 0's simulation stands in for
  all N -- an N-node sweep costs one node simulation, not N.
* results serialize exactly (:mod:`repro.codec`'s float round trip),
  so scale-out runs ride the same session memo and disk cache as
  single-node runs.

The pipeline makespan uses the standard GPipe schedule: with M
micro-batches over S active stages, the step takes
``(M + S - 1) / M`` times the slowest stage's full-batch time (fill and
drain amortized over the micro-batches).  With one node that factor is
exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import codec
from repro.core.accelerator import AcceleratorSimulator, WorkloadResult
from repro.core.baseline import BaselineAccelerator
from repro.core.stats import SimCounters
from repro.core.workload import PhaseWorkload
from repro.energy.model import CoreEnergy, EnergyBreakdown
from repro.memory.dram import DRAMModel
from repro.scale.interconnect import CommStats, LinkModel, price_comm
from repro.scale.partition import SCHEMES, NodePlan, partition_workloads


@dataclass
class NodeSummary:
    """Aggregated outcome of one compute node.

    Attributes:
        node_id: node index.
        layer_phases: layer-phase shards the node simulated.
        macs: MACs the node retired.
        cycles: the node's compute-side cycles (max of compute and
            memory per phase, summed).
        compute_cycles: compute-bound cycles summed over phases.
        dram_cycles: memory-bound cycles summed over phases.
        counters: the node's merged activity counters.
        energy: the node's energy breakdown.
        comm: the node's priced inter-node communication.
    """

    node_id: int
    layer_phases: int
    macs: float
    cycles: float
    compute_cycles: float
    dram_cycles: float
    counters: SimCounters
    energy: EnergyBreakdown
    comm: CommStats

    @property
    def step_cycles(self) -> float:
        """Compute plus communication time of the node for one step."""
        return self.cycles + self.comm.cycles


def _summarize(
    node_id: int, result: WorkloadResult, comm: CommStats
) -> NodeSummary:
    """Fold one node's simulation result into a :class:`NodeSummary`."""
    return NodeSummary(
        node_id=node_id,
        layer_phases=len(result.phases),
        macs=float(result.macs),
        cycles=result.cycles,
        compute_cycles=sum(p.compute_cycles for p in result.phases),
        dram_cycles=sum(p.dram_cycles for p in result.phases),
        counters=result.counters_total(),
        energy=result.energy_total(),
        comm=comm,
    )


@dataclass
class ScaleOutResult:
    """Aggregated outcome of one scale-out simulation.

    Attributes:
        name: configuration name (e.g. "fpraker").
        model: model name.
        scheme: partition scheme used.
        nodes: compute-node count.
        microbatches: micro-batches of the pipeline schedule (``nodes``
            under the pipeline scheme, 1 under the others).
        node_summaries: one :class:`NodeSummary` per node.
        cycles: aggregate makespan of one training step.
        node_cycles: slowest node's compute time (no communication).
        comm_cycles: slowest node's communication time.
        counters: activity counters summed over nodes.
        energy: node energies summed (links excluded).
        link_energy_nj: inter-node link energy in nanojoules.
    """

    name: str
    model: str
    scheme: str
    nodes: int
    microbatches: int
    node_summaries: list[NodeSummary] = field(default_factory=list)
    cycles: float = 0.0
    node_cycles: float = 0.0
    comm_cycles: float = 0.0
    counters: SimCounters = field(default_factory=SimCounters)
    energy: EnergyBreakdown = field(
        default_factory=lambda: EnergyBreakdown(core=CoreEnergy())
    )
    link_energy_nj: float = 0.0

    @property
    def total_energy_nj(self) -> float:
        """Node energy plus link energy, in nanojoules."""
        return self.energy.total + self.link_energy_nj

    def to_dict(self) -> dict:
        """JSON-serializable form (exact float round-trip; read back
        with ``codec.from_dict(ScaleOutResult, data, path)``)."""
        return codec.to_dict(self)


def _aggregate(
    name: str,
    model: str,
    scheme: str,
    nodes: int,
    microbatches: int,
    summaries: list[NodeSummary],
) -> ScaleOutResult:
    """Combine per-node summaries into the aggregate result.

    The makespan rule: data/model-parallel nodes run the same step
    concurrently, so the slowest node (compute plus collectives) binds;
    pipeline stages overlap across micro-batches under the GPipe
    schedule, ``(M + S - 1) / M`` times the slowest stage.  Both
    degenerate to the single node's exact cycle count at N=1.
    """
    counters = SimCounters()
    energy = EnergyBreakdown(core=CoreEnergy())
    link_energy = 0.0
    for summary in summaries:
        counters.add(summary.counters)
        energy.add(summary.energy)
        link_energy += summary.comm.energy_nj
    slowest = max(s.step_cycles for s in summaries)
    if scheme == "pipeline":
        active = sum(1 for s in summaries if s.layer_phases > 0)
        cycles = (microbatches + active - 1) / microbatches * slowest
    else:
        cycles = slowest
    return ScaleOutResult(
        name=name,
        model=model,
        scheme=scheme,
        nodes=nodes,
        microbatches=microbatches,
        node_summaries=summaries,
        cycles=cycles,
        node_cycles=max(s.cycles for s in summaries),
        comm_cycles=max(s.comm.cycles for s in summaries),
        counters=counters,
        energy=energy,
        link_energy_nj=link_energy,
    )


def single_node_result(
    result: WorkloadResult, scheme: str = "data"
) -> ScaleOutResult:
    """View a plain single-accelerator result as a 1-node scale-out run.

    Used where an N-sweep needs its N=1 anchor without re-simulating:
    the aggregate fields equal the workload result's totals exactly
    (the same aggregation code path a 1-node simulation takes).

    Args:
        result: a :class:`WorkloadResult` from any simulator.
        scheme: scheme label to carry in the report.

    Returns:
        The equivalent :class:`ScaleOutResult`.
    """
    summary = _summarize(0, result, CommStats())
    return _aggregate(result.name, result.model, scheme, 1, 1, [summary])


class ScaleOutSimulator:
    """Partition + per-node simulation + aggregation front end.

    Args:
        node: the single-accelerator simulator every node runs --
            whatever :func:`repro.core.simulator_for` returns, so its
            sampling settings and memory engine are already chosen.
            Its ``config`` names the result and sets the link clock.
        nodes: compute-node count (>= 1).
        scheme: partition scheme (``"data"``, ``"model"``,
            ``"pipeline"``).

    Links are priced by the default :class:`LinkModel` and node memory
    by the default :class:`DRAMModel`; the pipeline schedule runs
    ``nodes`` micro-batches.
    """

    def __init__(
        self,
        node: AcceleratorSimulator | BaselineAccelerator,
        nodes: int = 1,
        scheme: str = "data",
    ) -> None:
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        if scheme not in SCHEMES:
            raise ValueError(
                f"unknown partition scheme {scheme!r}; expected {SCHEMES}"
            )
        self.node = node
        self.nodes = int(nodes)
        self.scheme = scheme
        self.link = LinkModel()
        self.dram = DRAMModel()

    def _run_node(self, plan: NodePlan, model: str) -> NodeSummary:
        """Simulate one node's shard and price its communication (an
        empty shard, an idle pipeline stage, costs nothing)."""
        if plan.workloads:
            result = self.node.simulate_workload(plan.workloads, model=model)
        else:
            result = WorkloadResult(name=self.node.config.name, model=model)
        comm = price_comm(
            plan.comm.payload_bytes,
            plan.comm.wire_bytes,
            plan.comm.steps,
            self.link,
            self.dram,
            self.node.config.clock_mhz,
        )
        return _summarize(plan.node_id, result, comm)

    def simulate_workload(
        self, workloads: list[PhaseWorkload], model: str = ""
    ) -> ScaleOutResult:
        """Simulate one model's training step across all nodes.

        Args:
            workloads: the model's layer-phases (one training step).
            model: model name for the report (defaults to the first
                workload's).

        Returns:
            The aggregated :class:`ScaleOutResult`.
        """
        if not workloads:
            raise ValueError("empty workload list")
        model = model or workloads[0].model
        plan = partition_workloads(workloads, self.nodes, self.scheme)
        if plan.symmetric:
            # Identical shards: simulate node 0 once and give every node
            # a copy under its own id.  The copies share node 0's
            # counters, energy and comm objects; that is safe because
            # nothing mutates a summary once built (_aggregate only
            # reads them) and the disk and wire paths serialize each.
            summary = self._run_node(plan.node_plans[0], model)
            summaries = [
                replace(summary, node_id=p.node_id) for p in plan.node_plans
            ]
        else:
            summaries = [self._run_node(p, model) for p in plan.node_plans]
        return _aggregate(
            self.node.config.name,
            model,
            self.scheme,
            self.nodes,
            self.nodes if self.scheme == "pipeline" else 1,
            summaries,
        )
