"""The storage cluster: nodes, placement, and chunk-level request service.

:class:`StorageCluster` owns the :class:`~repro.ebs.storage_node.StorageNode`
objects and the :class:`~repro.ebs.chunk_map.ChunkMap`, and provides the
generator entry points the ESSD device uses to service one chunk-level
sub-request (network hop, replica fan-out for writes, single-replica reads).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ebs.chunk_map import ChunkMap, SubRequest
from repro.ebs.config import EssdProfile
from repro.ebs.network import DatacenterNetwork
from repro.ebs.replication import ReplicationPolicy
from repro.ebs.storage_node import StorageNode
from repro.sim.events import spawn_process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


@dataclass
class ClusterStats:
    """Aggregate counters across all nodes of the cluster."""

    subrequest_reads: int = 0
    subrequest_writes: int = 0
    replica_writes: int = 0


class StorageCluster:
    """Backend cluster of one elastic volume."""

    def __init__(self, sim: "Simulator", profile: EssdProfile):
        self.sim = sim
        self.profile = profile
        self.network = DatacenterNetwork(profile.network, seed=profile.seed ^ 0x7E7)
        self.nodes = [StorageNode(sim, node_id, profile.node)
                      for node_id in range(profile.storage_nodes)]
        self.chunk_map = ChunkMap(
            capacity_bytes=profile.capacity_bytes,
            chunk_size=profile.chunk_size,
            num_nodes=profile.storage_nodes,
            replication_factor=profile.replication_factor,
            seed=profile.seed & 0xFFFF,
        )
        self.replication = ReplicationPolicy(
            replication_factor=profile.replication_factor,
            write_quorum=profile.write_quorum,
        )
        self.stats = ClusterStats()
        self._read_salt = itertools.count()
        self._write_quorum = self.replication.acknowledgements_needed()

    # -- chunk-level service -------------------------------------------------------
    def write_subrequest(self, sub: SubRequest):
        """Generator: replicate one chunk-level write and wait for the quorum."""
        sim = self.sim
        nodes = self.nodes
        size = sub.size
        group = self.chunk_map.placement_group(sub.chunk_index)
        # Request message to the storage cluster carries the payload.
        yield self.network.transfer_delay(size)
        self.stats.replica_writes += len(group)
        # Wait until the quorum count of replicas has acknowledged; the
        # rest finish in the background.
        yield sim.join([spawn_process(sim, nodes[node_id].write(size))
                        for node_id in group],
                       self._write_quorum)
        # Acknowledgement back to the VM (metadata-sized).
        yield self.network.transfer_delay(256)
        self.stats.subrequest_writes += 1

    def read_subrequest(self, sub: SubRequest, sequential: bool = False):
        """Generator: read one chunk-level piece from a single replica."""
        network = self.network
        node_id = self.chunk_map.read_replica(sub.chunk_index, next(self._read_salt))
        # Request message (metadata-sized), response carries the payload.
        yield network.transfer_delay(256)
        yield from self.nodes[node_id].read(sub.size, sequential)
        yield network.transfer_delay(sub.size)
        self.stats.subrequest_reads += 1
