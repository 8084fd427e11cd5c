"""Throughput timelines: bytes completed per time bin.

Figure 3 of the paper plots runtime throughput of a sustained random-write
workload; Figure 5 plots steady-state throughput under mixed read/write
ratios.  :class:`ThroughputTimeline` supports both: completions are recorded
with their timestamp and byte count, then aggregated into fixed-width bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class ThroughputSample:
    """Throughput over one time bin."""

    start_us: float
    end_us: float
    bytes_completed: int

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    @property
    def gigabytes_per_second(self) -> float:
        """Throughput in GB/s (decimal gigabytes, as the paper plots)."""
        if self.duration_us <= 0:
            return 0.0
        return self.bytes_completed / self.duration_us / 1000.0


class ThroughputTimeline:
    """Records (completion time, bytes) events and bins them."""

    def __init__(self, name: str = "throughput"):
        self.name = name
        self._times: list[float] = []
        self._bytes: list[int] = []

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time_us: float, num_bytes: int) -> None:
        """Record one completion of ``num_bytes`` at ``time_us``."""
        if num_bytes < 0:
            raise ValueError(f"negative byte count: {num_bytes}")
        if self._times and time_us < self._times[-1]:
            raise ValueError("completions must be recorded in time order")
        self._times.append(time_us)
        self._bytes.append(num_bytes)

    def record_many(self, events: Iterable[tuple[float, int]]) -> None:
        for time_us, num_bytes in events:
            self.record(time_us, num_bytes)

    def events(self) -> list[tuple[float, int]]:
        """The recorded ``(completion time, bytes)`` events, in time order.

        This is the merge/serialization interface: the fleet layer ships
        per-shard timelines as plain pairs and rebuilds a merged timeline
        with :meth:`record_many`.
        """
        return list(zip(self._times, self._bytes))

    @property
    def total_bytes(self) -> int:
        return int(sum(self._bytes))

    @property
    def duration_us(self) -> float:
        if not self._times:
            return 0.0
        return self._times[-1] - self._times[0]

    def average_gbps(self) -> float:
        """Average throughput in GB/s across the recorded span."""
        duration = self.duration_us
        if duration <= 0:
            return 0.0
        return self.total_bytes / duration / 1000.0

    def binned(self, bin_us: float) -> list[ThroughputSample]:
        """Aggregate the timeline into fixed ``bin_us``-wide samples."""
        if bin_us <= 0:
            raise ValueError("bin width must be positive")
        if not self._times:
            return []
        times = np.asarray(self._times)
        payloads = np.asarray(self._bytes)
        start = float(times[0])
        end = float(times[-1])
        num_bins = max(1, int(np.ceil((end - start) / bin_us)))
        indices = np.minimum(((times - start) // bin_us).astype(int), num_bins - 1)
        sums = np.bincount(indices, weights=payloads, minlength=num_bins)
        samples = []
        for index in range(num_bins):
            bin_start = start + index * bin_us
            bin_end = bin_start + bin_us
            if index == num_bins - 1:
                # The recording span rarely ends exactly on a bin boundary;
                # normalising the trailing bin by the full width would
                # under-report its throughput (a partial bin holds
                # proportionally fewer completions).
                bin_end = max(min(bin_end, end), bin_start + 1e-9)
            samples.append(ThroughputSample(
                start_us=bin_start,
                end_us=bin_end,
                bytes_completed=int(sums[index]),
            ))
        # A sliver of a trailing bin (completions landing just past the last
        # boundary) would be normalised by a near-zero span and report an
        # absurd rate; fold it into the previous bin instead.  The threshold
        # stays low (5%) because a shorter-but-substantial trailing bin is
        # real signal (e.g. a throttled tail) that merging would erase.
        if len(samples) >= 2 and samples[-1].duration_us < 0.05 * bin_us:
            tail = samples.pop()
            prev = samples[-1]
            samples[-1] = ThroughputSample(
                start_us=prev.start_us,
                end_us=tail.end_us,
                bytes_completed=prev.bytes_completed + tail.bytes_completed,
            )
        elif len(samples) == 1 and samples[0].duration_us < 0.05 * bin_us:
            # Degenerate single-bin timeline (all completions at ~one
            # timestamp): there is no span to derive a rate from, so assume
            # the requested bin width rather than dividing by ~zero.
            only = samples[0]
            samples[0] = ThroughputSample(
                start_us=only.start_us,
                end_us=only.start_us + bin_us,
                bytes_completed=only.bytes_completed,
            )
        return samples
