"""Sharded fleet simulation: cluster-scale topologies on shard runners.

Layer 5 of the stack (kernel -> devices -> workloads -> sweeps -> cluster):

* :mod:`repro.cluster.topology` -- declarative fleet descriptions
  (:class:`FleetTopology`: device groups x tenants x replication edges).
* :mod:`repro.cluster.shard` -- :class:`ShardWorker`, one simulator owning
  a slice of the fleet, advancing in bounded time epochs.
* :mod:`repro.cluster.coordinator` -- :class:`FleetCoordinator`:
  device-affinity partitioning and the conservative epoch barrier for
  cross-shard replica messages, driven per coupling component.
  ``shards=1`` is the serial path; every layout is bit-identical.
* :mod:`repro.cluster.transport` -- how grants and message batches move
  between coordinator and shards (:class:`ShardTransport`): in-process
  calls or a dedicated executor process per shard; the four execution
  knobs (shards, run-ahead, transport, epoch bound) live on
  :class:`FleetRunConfig`.
* :mod:`repro.cluster.metrics` -- per-tenant / per-group / fleet-wide
  metric merges from the per-shard payloads.
* :mod:`repro.cluster.macro` -- calibrated mean-field aggregates for
  ``mode="macro"`` device groups: fleet size becomes a constant-cost
  parameter (100k+ devices), with every macro metric flagged
  ``approximate`` and validated against the discrete model by the
  macro-vs-discrete harness.

The sweep layer runs fleets through ``CellSpec.fleet``; the CLI exposes
``python -m repro.experiments fleet <scenario> [--shards N] [--macro G]``.
"""

from repro.cluster.coordinator import (
    FleetCoordinator,
    partition_topology,
    run_fleet,
    run_fleet_serial,
)
from repro.cluster.faults import FaultEvent, FaultInjector, FaultPolicy
from repro.cluster.macro import MacroCalibration, MacroGroup, calibrate_workload
from repro.cluster.metrics import fleet_headline, merge_shard_payloads
from repro.cluster.shard import ReplicaMessage, ShardPlan, ShardWorker
from repro.cluster.transport import (
    ExecutorTransport,
    FleetRunConfig,
    InProcessTransport,
    ShardTransport,
    create_transport,
)
from repro.cluster.topology import (
    DeviceGroup,
    FleetTopology,
    ReplicationEdge,
    Tenant,
    edge,
    fault,
    fleet,
    group,
    tenant,
)

__all__ = [
    "FleetTopology",
    "DeviceGroup",
    "Tenant",
    "ReplicationEdge",
    "FaultEvent",
    "FaultPolicy",
    "FaultInjector",
    "fleet",
    "group",
    "tenant",
    "edge",
    "fault",
    "ShardPlan",
    "ShardWorker",
    "ReplicaMessage",
    "MacroCalibration",
    "MacroGroup",
    "calibrate_workload",
    "FleetCoordinator",
    "FleetRunConfig",
    "ShardTransport",
    "InProcessTransport",
    "ExecutorTransport",
    "create_transport",
    "partition_topology",
    "run_fleet",
    "run_fleet_serial",
    "merge_shard_payloads",
    "fleet_headline",
]
