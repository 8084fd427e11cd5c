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
from math import log

from repro.ebs.config import NetworkProfile


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

    def __init__(self, profile: NetworkProfile, seed: int = 0xD0C):
        self.profile = profile
        self.stats = NetworkStats()
        self._rng = random.Random(seed)
        # Per-message constants, hoisted once (the profile is frozen).
        self._latency_us = profile.one_way_latency_us
        self._flow_bytes_per_us = profile.flow_bytes_per_us
        self._jitter_rate = (1.0 / profile.jitter_mean_us
                             if profile.jitter_mean_us > 0 else None)

    def transfer_delay(self, payload_bytes: int) -> float:
        """Sampled delay of one one-way message carrying ``payload_bytes``,
        counted in :attr:`stats`: callers sleep for it,
        ``yield network.transfer_delay(n)``.
        """
        delay = self._latency_us + payload_bytes / self._flow_bytes_per_us
        if self._jitter_rate is not None:
            # ``expovariate(rate)``, inlined: the same expression.
            delay += -log(1.0 - self._rng.random()) / self._jitter_rate
        stats = self.stats
        stats.messages += 1
        stats.bytes_carried += payload_bytes
        stats.total_latency_us += delay
        return delay
