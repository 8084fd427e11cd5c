"""The elastic SSD (ESSD) block device.

The request path mirrors a production elastic block store:

1. the virtual block service in the compute node (client overhead),
2. QoS admission against the volume's throughput and IOPS budgets,
3. chunk-aligned splitting and dispatch to the storage cluster, where writes
   fan out to the chunk's replicas and reads go to one replica,
4. completion once every chunk-level sub-request has finished.

The backend accounts cumulative writes and may engage provider-side flow
limiting (Observation 2).
"""

from __future__ import annotations

import random
from math import log
from typing import TYPE_CHECKING, Optional

from repro.ebs.backend import ElasticBackend
from repro.ebs.cluster import StorageCluster
from repro.ebs.config import EssdProfile, aws_io2_profile
from repro.ebs.qos import QosManager
from repro.host.device import BlockDevice
from repro.host.io import IOKind, IORequest
from repro.sim.events import spawn_process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


class EssdDevice(BlockDevice):
    """A simulated cloud elastic SSD volume."""

    def __init__(self, sim: "Simulator", profile: Optional[EssdProfile] = None,
                 name: Optional[str] = None):
        profile = profile or aws_io2_profile()
        super().__init__(sim, profile.capacity_bytes, profile.logical_block_size,
                         name or profile.name)
        self.profile = profile
        self.qos = QosManager(sim, profile.qos)
        self.cluster = StorageCluster(sim, profile)
        self.backend = ElasticBackend(sim, profile, self.qos)
        self._rng = random.Random(profile.seed)
        self._last_read_end: Optional[int] = None
        self._sequential_reads = 0
        # Per-I/O constants, precomputed once so ``_serve`` reads attributes
        # instead of chasing profile fields per request.
        self._client_base_us = profile.client_overhead_us
        self._hiccup_p = profile.hiccup_probability
        self._hiccup_lambda = (1.0 / profile.hiccup_mean_us
                               if profile.hiccup_mean_us > 0 else 0.0)
        self._per_sub_us = profile.per_subrequest_overhead_us

    # -- convenience ---------------------------------------------------------------
    @property
    def flow_limited(self) -> bool:
        """Whether the provider has engaged write flow limiting."""
        return self.qos.flow_limited

    def preload(self, offset: int = 0, size: Optional[int] = None) -> None:
        """Interface parity with :class:`repro.ssd.SsdDevice`.

        An ESSD needs no preconditioning for reads (the backend always has
        the data somewhere), so this is a no-op.
        """

    # -- request service -----------------------------------------------------------
    def _serve(self, request: IORequest):
        """One generator frame per request: client overhead, QoS admission,
        then the cluster fan-out -- inline for the common single-chunk
        request, one :meth:`_dispatch` process per chunk otherwise."""
        sim = self.sim
        tracer = self.tracer
        if tracer is not None:
            tracer.enter(request, "service")  # virtual-block-service overhead
        overhead = self._client_base_us
        rng = self._rng
        if self._hiccup_p > 0 and rng.random() < self._hiccup_p:
            # ``expovariate(lambda)``, inlined: the same expression.
            overhead += -log(1.0 - rng.random()) / self._hiccup_lambda
        yield overhead
        kind = request.kind
        if kind is IOKind.FLUSH or kind is IOKind.TRIM:
            # Replicated writes are durable on completion; flush (and trim)
            # cost only the client-side overhead.
            self._finish(request)
            return request
        if tracer is not None:
            tracer.enter(request, "queue")  # QoS admission (volume budgets)
        size = request.size
        yield from self.qos.admit(kind, size)
        if tracer is not None:
            tracer.enter(request, "network")  # cluster fan-out + media
        sequential = self._note_access(request)
        subrequests = self.cluster.chunk_map.split(request.offset, size)
        if len(subrequests) == 1:
            # _dispatch, inlined for the hot single-chunk case.
            yield self._per_sub_us
            if kind is IOKind.WRITE:
                yield from self.cluster.write_subrequest(subrequests[0])
            else:
                yield from self.cluster.read_subrequest(subrequests[0], sequential)
        else:
            yield sim.join([spawn_process(sim, self._dispatch(sub, kind, sequential))
                            for sub in subrequests])
        if kind is IOKind.WRITE:
            self.backend.record_write(size)
        else:
            self.backend.record_read(size)
        self._finish(request)
        return request

    def _dispatch(self, sub, kind: IOKind, sequential: bool):
        yield self._per_sub_us
        if kind is IOKind.WRITE:
            yield from self.cluster.write_subrequest(sub)
        else:
            yield from self.cluster.read_subrequest(sub, sequential)

    # -- helpers ---------------------------------------------------------------------
    def _note_access(self, request: IORequest) -> bool:
        """Track read sequentiality (enables the node-side readahead path)."""
        if request.kind is not IOKind.READ:
            self._last_read_end = None
            self._sequential_reads = 0
            return False
        sequential = self._last_read_end is not None and \
            request.offset == self._last_read_end
        if sequential:
            self._sequential_reads += 1
        else:
            self._sequential_reads = 0
        self._last_read_end = request.end_offset
        return sequential and self._sequential_reads >= 2

    # -- reporting ---------------------------------------------------------------------
    def describe(self) -> dict:
        """Summary of configuration and runtime statistics (for reports)."""
        return {
            "name": self.name,
            "kind": "essd",
            "provider": self.profile.provider,
            "volume_type": self.profile.volume_type,
            "capacity_bytes": self.capacity_bytes,
            "max_throughput_gbps": round(self.profile.max_throughput_gbps, 2),
            "max_iops": self.profile.qos.max_iops,
            "chunk_size": self.profile.chunk_size,
            "replication": self.cluster.replication.describe(),
            "storage_nodes": self.profile.storage_nodes,
            "host_reads": self.stats.reads_completed,
            "host_writes": self.stats.writes_completed,
            "bytes_read": self.stats.bytes_read,
            "bytes_written": self.stats.bytes_written,
            "flow_limited": self.flow_limited,
            "written_capacity_factor": round(self.backend.written_capacity_factor, 3),
        }
