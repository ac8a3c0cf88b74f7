"""Multi-node scale-out simulation: partition, per-node sim, aggregate.

One :class:`ScaleOutSimulator` answers "how does this accelerator scale
to a pod?": it splits a model's :class:`PhaseWorkload` list across N
:class:`ComputeNode`\\ s with :func:`repro.scale.partition.partition_workloads`,
runs each node through the *unchanged* single-accelerator simulators
(the batched strip engine and both memory engines work as-is), prices
each node's inter-node traffic with the link/NoC model of
:mod:`repro.scale.interconnect`, and aggregates everything into one
:class:`ScaleOutResult`.

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
* results serialize exactly (``to_dict``/``from_dict`` float
  round-trip), so scale-out runs ride the same session memo and disk
  cache as single-node runs.

The pipeline makespan uses the standard GPipe schedule: with M
micro-batches over S active stages, the step takes
``(M + S - 1) / M`` times the slowest stage's full-batch time (fill and
drain amortized over the micro-batches).  With one node that factor is
exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import simulator_for
from repro.core.accelerator import AcceleratorSimulator, WorkloadResult
from repro.core.baseline import BaselineAccelerator
from repro.core.config import AcceleratorConfig, fpraker_paper_config
from repro.core.stats import SimCounters
from repro.core.workload import PhaseWorkload
from repro.energy.model import CoreEnergy, EnergyBreakdown
from repro.memory.dram import DRAMModel
from repro.scale.interconnect import CommStats, LinkModel, price_comm
from repro.scale.partition import NodePlan, partition_workloads


@dataclass
class ComputeNode:
    """One compute node: a node id plus its simulator and shard.

    Attributes:
        node_id: node index in [0, nodes).
        simulator: the single-accelerator simulator this node runs
            (FPRaker, baseline, or Pragmatic-FP -- unchanged engines).
        workloads: the node's layer-phase shard (empty = idle stage).
    """

    node_id: int
    simulator: object
    workloads: list[PhaseWorkload]

    def run(self, model: str) -> WorkloadResult:
        """Simulate this node's shard (an empty shard costs nothing).

        Args:
            model: model name for the report.

        Returns:
            The node's :class:`WorkloadResult`.
        """
        if not self.workloads:
            return WorkloadResult(
                name=self.simulator.config.name, model=model
            )
        return self.simulator.simulate_workload(self.workloads, model=model)


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

    def to_dict(self) -> dict:
        """JSON-serializable form (exact float round-trip)."""
        return {
            "node_id": self.node_id,
            "layer_phases": self.layer_phases,
            "macs": self.macs,
            "cycles": self.cycles,
            "compute_cycles": self.compute_cycles,
            "dram_cycles": self.dram_cycles,
            "counters": self.counters.to_dict(),
            "energy": self.energy.to_dict(),
            "comm": self.comm.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NodeSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        return cls(
            node_id=int(data["node_id"]),
            layer_phases=int(data["layer_phases"]),
            macs=float(data["macs"]),
            cycles=float(data["cycles"]),
            compute_cycles=float(data["compute_cycles"]),
            dram_cycles=float(data["dram_cycles"]),
            counters=SimCounters.from_dict(data["counters"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
            comm=CommStats.from_dict(data["comm"]),
        )


def _summarize_node(
    plan: NodePlan, result: WorkloadResult, comm: CommStats
) -> NodeSummary:
    """Fold one node's simulation result into a :class:`NodeSummary`."""
    return NodeSummary(
        node_id=plan.node_id,
        layer_phases=len(plan.workloads),
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
    def macs(self) -> float:
        """MACs retired across all nodes (>= the model's, by padding)."""
        return sum(s.macs for s in self.node_summaries)

    @property
    def total_energy_nj(self) -> float:
        """Node energy plus link energy, in nanojoules."""
        return self.energy.total + self.link_energy_nj

    def speedup_vs(self, other: "ScaleOutResult") -> float:
        """Makespan speedup of this run relative to ``other``."""
        if self.cycles == 0:
            return float("inf")
        return other.cycles / self.cycles

    def to_dict(self) -> dict:
        """JSON-serializable form (exact float round-trip)."""
        return {
            "name": self.name,
            "model": self.model,
            "scheme": self.scheme,
            "nodes": self.nodes,
            "microbatches": self.microbatches,
            "node_summaries": [s.to_dict() for s in self.node_summaries],
            "cycles": self.cycles,
            "node_cycles": self.node_cycles,
            "comm_cycles": self.comm_cycles,
            "counters": self.counters.to_dict(),
            "energy": self.energy.to_dict(),
            "link_energy_nj": self.link_energy_nj,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScaleOutResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            model=data["model"],
            scheme=data["scheme"],
            nodes=int(data["nodes"]),
            microbatches=int(data["microbatches"]),
            node_summaries=[
                NodeSummary.from_dict(s) for s in data["node_summaries"]
            ],
            cycles=float(data["cycles"]),
            node_cycles=float(data["node_cycles"]),
            comm_cycles=float(data["comm_cycles"]),
            counters=SimCounters.from_dict(data["counters"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
            link_energy_nj=float(data["link_energy_nj"]),
        )


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
    summary = NodeSummary(
        node_id=0,
        layer_phases=len(result.phases),
        macs=float(result.macs),
        cycles=result.cycles,
        compute_cycles=sum(p.compute_cycles for p in result.phases),
        dram_cycles=sum(p.dram_cycles for p in result.phases),
        counters=result.counters_total(),
        energy=result.energy_total(),
        comm=CommStats(),
    )
    return _aggregate(result.name, result.model, scheme, 1, 1, [summary])


class ScaleOutSimulator:
    """Partition + per-node simulation + aggregation front end.

    Args:
        config: accelerator configuration *of one node* (defaults to
            the paper's 36-tile FPRaker; baseline and Pragmatic-FP
            configs dispatch to their simulators through
            :func:`repro.core.simulator_for`, as
            :func:`repro.harness.runner.execute_request` does).
        nodes: compute-node count (>= 1).
        scheme: partition scheme (``"data"``, ``"model"``,
            ``"pipeline"``).
        sample_strips: operand strips sampled per layer-phase.
        sample_steps: reduction groups per strip.
        seed: operand-sampling RNG seed.
        memory_engine: ``"roofline"`` or ``"hierarchy"`` for the node
            simulators (the baseline prices roofline either way).

    Links are priced by the default :class:`LinkModel` and node memory
    by the default :class:`DRAMModel`; the pipeline schedule runs
    ``nodes`` micro-batches.
    """

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        nodes: int = 1,
        scheme: str = "data",
        sample_strips: int = 8,
        sample_steps: int = 32,
        seed: int = 1234,
        memory_engine: str = "roofline",
    ) -> None:
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        from repro.scale.partition import SCHEMES

        if scheme not in SCHEMES:
            raise ValueError(
                f"unknown partition scheme {scheme!r}; expected {SCHEMES}"
            )
        self.config = config if config is not None else fpraker_paper_config()
        self.nodes = int(nodes)
        self.scheme = scheme
        self.link = LinkModel()
        self.dram = DRAMModel()
        self.sample_strips = sample_strips
        self.sample_steps = sample_steps
        self.seed = seed
        self.memory_engine = memory_engine

    def _node_simulator(self) -> AcceleratorSimulator | BaselineAccelerator:
        """One node's single-accelerator simulator (config dispatch)."""
        return simulator_for(
            self.config,
            sample_strips=self.sample_strips,
            sample_steps=self.sample_steps,
            seed=self.seed,
            memory_engine=self.memory_engine,
        )

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
        clock = self.config.clock_mhz
        summaries: list[NodeSummary] = []
        if plan.symmetric:
            # Identical shards: simulate node 0, price its comm once,
            # and replicate the summary (distinct node ids only).
            node0 = plan.node_plans[0]
            node = ComputeNode(0, self._node_simulator(), node0.workloads)
            result = node.run(model)
            comm = price_comm(
                node0.comm.payload_bytes,
                node0.comm.wire_bytes,
                node0.comm.steps,
                self.link,
                self.dram,
                clock,
            )
            template = _summarize_node(node0, result, comm)
            for node_plan in plan.node_plans:
                summary = NodeSummary.from_dict(template.to_dict())
                summary.node_id = node_plan.node_id
                summaries.append(summary)
        else:
            simulator = self._node_simulator()
            for node_plan in plan.node_plans:
                node = ComputeNode(
                    node_plan.node_id, simulator, node_plan.workloads
                )
                result = node.run(model)
                comm = price_comm(
                    node_plan.comm.payload_bytes,
                    node_plan.comm.wire_bytes,
                    node_plan.comm.steps,
                    self.link,
                    self.dram,
                    clock,
                )
                summaries.append(_summarize_node(node_plan, result, comm))
        return _aggregate(
            self.config.name,
            model,
            self.scheme,
            self.nodes,
            self.nodes if self.scheme == "pipeline" else 1,
            summaries,
        )
