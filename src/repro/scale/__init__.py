"""Multi-node scale-out layer: partitioning, links, and aggregation.

Splits one model's training-step workload across N compute nodes under
data-, model-, or pipeline-parallel mappings, runs each node through
the single-accelerator simulator it is given
(``ScaleOutSimulator(node, nodes, scheme)`` wraps whatever
:func:`repro.core.simulator_for` returns, unchanged), and prices the
inter-node collectives through a simple link/NoC model.  See
``docs/ARCHITECTURE.md`` for how this layer slots into the repo and
:mod:`repro.scale.scaleout` for the N=1 bit-exactness contract.
"""

from repro.scale.interconnect import (
    CommStats,
    LinkModel,
    all_gather_wire_bytes,
    all_reduce_wire_bytes,
    price_comm,
)
from repro.scale.partition import (
    SCHEMES,
    CommVolume,
    NodePlan,
    PartitionPlan,
    partition_workloads,
)
from repro.scale.scaleout import (
    NodeSummary,
    ScaleOutResult,
    ScaleOutSimulator,
    single_node_result,
)

__all__ = [
    "CommStats",
    "LinkModel",
    "all_gather_wire_bytes",
    "all_reduce_wire_bytes",
    "price_comm",
    "SCHEMES",
    "CommVolume",
    "NodePlan",
    "PartitionPlan",
    "partition_workloads",
    "NodeSummary",
    "ScaleOutResult",
    "ScaleOutSimulator",
    "single_node_result",
]
