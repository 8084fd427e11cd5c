"""Datacenter network between the compute cluster and the storage cluster.

The model is intentionally simple: every message pays a fixed one-way
latency plus a per-flow serialization time proportional to its payload, plus
a small exponential jitter.  The network itself is not a shared bottleneck
(datacenter fabrics are heavily over-provisioned relative to a single
volume); the volume-level bottlenecks live in the QoS budget and the
storage nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ebs.config import NetworkProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


@dataclass
class NetworkStats:
    """Counters for traffic crossing the compute/storage boundary."""

    messages: int = 0
    bytes_carried: int = 0
    total_latency_us: float = 0.0

    @property
    def mean_latency_us(self) -> float:
        return self.total_latency_us / self.messages if self.messages else 0.0


class DatacenterNetwork:
    """Latency model for messages between the VM and storage nodes."""

    def __init__(self, sim: "Simulator", profile: NetworkProfile, seed: int = 0xD0C):
        self.sim = sim
        self.profile = profile
        self.stats = NetworkStats()
        self._rng = random.Random(seed)
        # Per-message constants, hoisted once (the profile is frozen).
        self._latency_us = profile.one_way_latency_us
        self._flow_bytes_per_us = profile.flow_bytes_per_us
        self._jitter_rate = (1.0 / profile.jitter_mean_us
                             if profile.jitter_mean_us > 0 else None)

    def one_way_delay(self, payload_bytes: int) -> float:
        """Sampled latency for a single one-way message carrying a payload."""
        delay = self._latency_us + payload_bytes / self._flow_bytes_per_us
        if self._jitter_rate is not None:
            delay += self._rng.expovariate(self._jitter_rate)
        return delay

    def transfer_delay(self, payload_bytes: int) -> float:
        """Sampled, stats-accounted delay for one one-way message.

        The flattened form of :meth:`transfer`: hot callers yield a single
        ``sim.timeout(network.transfer_delay(n))`` instead of trampolining
        through a sub-generator.  Draws and counters are identical.  It
        inlines :meth:`one_way_delay` (one frame less per message).
        """
        delay = self._latency_us + payload_bytes / self._flow_bytes_per_us
        if self._jitter_rate is not None:
            delay += self._rng.expovariate(self._jitter_rate)
        stats = self.stats
        stats.messages += 1
        stats.bytes_carried += payload_bytes
        stats.total_latency_us += delay
        return delay

    def transfer(self, payload_bytes: int):
        """Generator: occupy simulated time for one one-way message."""
        yield self.sim.timeout(self.transfer_delay(payload_bytes))

    def round_trip(self, request_bytes: int, response_bytes: int):
        """Generator: a request message followed by its response."""
        yield from self.transfer(request_bytes)
        yield from self.transfer(response_bytes)
