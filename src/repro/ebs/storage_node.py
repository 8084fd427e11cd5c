"""A storage-cluster node as observed by a single volume.

Each node bounds the concurrency it grants the volume and the aggregate
bandwidth it serves, and charges fixed software-path and media latencies per
request.  Sequential writes that concentrate on one placement group are
therefore limited by a handful of nodes, while random writes spread over the
whole cluster -- the mechanism behind the paper's Observation 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ebs.config import NodeProfile
from repro.sim.resources import Resource, TokenBucket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


@dataclass
class StorageNodeStats:
    """Per-node service counters."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class StorageNode:
    """One backend storage server (its SSDs aggregated behind one service)."""

    def __init__(self, sim: "Simulator", node_id: int, profile: NodeProfile):
        self.sim = sim
        self.node_id = node_id
        self.profile = profile
        self._slots = Resource(sim, capacity=profile.concurrency)
        # The burst allowance must stay well below a chunk: a multi-MiB burst
        # would let an entire chunk's replica stream through without ever
        # touching the sustained rate, erasing the single-placement-group
        # bottleneck that makes sequential writes slower than random ones
        # (the paper's Observation 3).  ~500 us worth of tokens absorbs
        # request-level jitter without hiding the rate limit.
        self._bandwidth = TokenBucket(
            sim, rate=profile.bandwidth_bytes_per_us,
            capacity=min(4 * 1024 * 1024, profile.bandwidth_bytes_per_us * 500))
        self.stats = StorageNodeStats()
        # Per-request constants, folded once at construction.  The sums are
        # the exact values the service generators previously computed per
        # request; the media rate stays a divisor (see SsdDevice note on
        # reciprocal rounding).
        self._min_charge = profile.min_charge_bytes
        self._write_latency_us = profile.write_processing_us + profile.media_write_us
        self._random_read_us = profile.read_processing_us + profile.media_read_us
        self._seq_read_us = profile.seq_read_processing_us
        self._media_read_bw = profile.media_read_bytes_per_us

    @property
    def queue_length(self) -> int:
        """Requests waiting for a service slot on this node."""
        return self._slots.queue_length

    def write(self, num_bytes: int):
        """Generator: service one replica write of ``num_bytes``.

        Small writes are charged at least ``min_charge_bytes`` against the
        node's bandwidth budget (append-log record granularity).
        """
        charge = max(num_bytes, self._min_charge)
        bandwidth = self._bandwidth
        yield self._slots.request()
        try:
            if 0 < charge <= bandwidth.capacity:
                # One slice: exactly the one call consume_sliced would make.
                yield bandwidth.consume(charge)
            else:
                yield from bandwidth.consume_sliced(charge)
            yield self._write_latency_us
        finally:
            self._slots.release()
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += num_bytes

    def read(self, num_bytes: int, sequential: bool = False):
        """Generator: service one read of ``num_bytes``.

        ``sequential`` selects the cheaper software path used when the node
        recognises a sequential stream (server-side readahead).
        """
        if sequential:
            # Server-side readahead: the data is already staged in the node's
            # memory, so only the (cheaper) sequential software path is paid.
            processing = self._seq_read_us
        else:
            processing = self._random_read_us
        streaming = num_bytes / self._media_read_bw
        bandwidth = self._bandwidth
        yield self._slots.request()
        try:
            if 0 < num_bytes <= bandwidth.capacity:
                yield bandwidth.consume(num_bytes)
            else:
                yield from bandwidth.consume_sliced(num_bytes)
            yield processing + streaming
        finally:
            self._slots.release()
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += num_bytes
