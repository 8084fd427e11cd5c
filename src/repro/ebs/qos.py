"""Provider-side QoS enforcement: throughput and IOPS budgets.

Every host request passes through two token buckets before it is dispatched
to the storage cluster:

* a **byte bucket** refilled at the guaranteed throughput.  Because the same
  bucket covers reads and writes alike, the volume's maximum bandwidth is
  deterministic and insensitive to the access pattern -- the paper's
  Observation 4.
* an **IOPS bucket** where each request consumes ``ceil(size /
  iops_accounting_bytes)`` tokens, mirroring how providers count large I/Os
  as multiple I/O operations.  This is why the paper notes the *IOPS*
  guarantee, unlike the throughput guarantee, remains size-dependent.

Flow limiting (Observation 2, ESSD-1): once the provider decides to throttle
a volume, an additional write-only bucket with a much lower rate is switched
in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.ebs.config import QosProfile
from repro.host.io import IOKind
from repro.sim.resources import TokenBucket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


@dataclass
class QosStats:
    """Admission-control counters."""

    requests_admitted: int = 0
    bytes_admitted: int = 0
    iops_tokens_charged: int = 0
    flow_limited_requests: int = 0


class QosManager:
    """Token-bucket admission control for one volume."""

    def __init__(self, sim: "Simulator", profile: QosProfile):
        self.sim = sim
        self.profile = profile
        self.stats = QosStats()
        burst = max(profile.burst_bytes, profile.iops_accounting_bytes)
        self._byte_bucket = TokenBucket(
            sim, rate=profile.max_throughput_bytes_per_us, capacity=burst)
        # IOPS are per second; convert to tokens per microsecond.
        self._iops_bucket = TokenBucket(
            sim, rate=profile.max_iops / 1e6,
            capacity=max(64.0, profile.max_iops / 1e3))
        self._write_limit_bucket: Optional[TokenBucket] = None
        # Hoisted for the per-request admission path.
        self._iops_acc = profile.iops_accounting_bytes

    # -- flow limiting -------------------------------------------------------------
    @property
    def flow_limited(self) -> bool:
        """Whether provider-side write flow limiting is currently engaged."""
        return self._write_limit_bucket is not None

    def engage_write_limit(self, bytes_per_us: float) -> None:
        """Throttle writes to ``bytes_per_us`` from now on."""
        if bytes_per_us <= 0:
            raise ValueError("flow limit rate must be positive")
        if self._write_limit_bucket is None:
            # ``initial=0``: throttling takes effect immediately.  Starting the
            # bucket full would let a whole burst through at the old rate right
            # after the provider decided to limit the volume.
            self._write_limit_bucket = TokenBucket(
                self.sim, rate=bytes_per_us,
                capacity=max(self.profile.burst_bytes, 1024 * 1024),
                initial=0.0)
        else:
            self._write_limit_bucket.set_rate(bytes_per_us)

    def release_write_limit(self) -> None:
        """Remove the write flow limit (not observed in the paper, but useful
        for what-if experiments)."""
        self._write_limit_bucket = None

    # -- admission -------------------------------------------------------------------
    def admit(self, kind: IOKind, size: int):
        """Generator: block until the request fits within the budgets.

        Hot path of every ESSD request.  The request is charged
        ``max(1, ceil(size / iops_accounting_bytes))`` IOPS tokens (counted
        in ``stats.iops_tokens_charged``), and the stats counters are
        updated in one batch at the end.  Uncontended requests ride the
        :class:`TokenBucket` fast paths (single pooled grant, no waiter
        queue).
        """
        tokens = max(1, math.ceil(size / self._iops_acc))
        yield self._iops_bucket.consume(tokens)
        if size > 0:
            byte_bucket = self._byte_bucket
            if size <= byte_bucket.capacity:
                # One slice: exactly the one call consume_sliced would make.
                yield byte_bucket.consume(size)
            else:
                yield from byte_bucket.consume_sliced(size)
        stats = self.stats
        if kind is IOKind.WRITE and self._write_limit_bucket is not None:
            stats.flow_limited_requests += 1
            yield from self._write_limit_bucket.consume_sliced(size)
        stats.requests_admitted += 1
        stats.bytes_admitted += size
        stats.iops_tokens_charged += tokens
