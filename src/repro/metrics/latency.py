"""Per-request latency recording and summaries.

The paper reports average and P99.9 latency (Figure 2); the recorder keeps
every sample so arbitrary percentiles and distribution comparisons are
available to tests and advisors as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency population (microseconds)."""

    count: int
    mean_us: float
    p50_us: float
    p90_us: float
    p95_us: float
    p99_us: float
    p999_us: float
    min_us: float
    max_us: float
    stddev_us: float

    @staticmethod
    def empty() -> "LatencySummary":
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


#: The percentiles a summary reports, computed in one ``np.percentile``
#: call (equal, bit for bit, to one call per percentile).
_SUMMARY_PERCENTILES = (50, 90, 95, 99, 99.9)


class LatencyRecorder:
    """Collects latency samples (in microseconds) and summarises them."""

    def __init__(self, name: str = "latency"):
        self.name = name
        self._samples: list[float] = []

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, latency_us: float) -> None:
        """Add one sample."""
        if latency_us < 0:
            raise ValueError(f"negative latency: {latency_us}")
        self._samples.append(latency_us)

    def extend(self, latencies: Iterable[float]) -> None:
        """Add many samples: all of them, or none when one is negative, as
        :meth:`record` would reject it."""
        batch = list(latencies)
        if not batch:
            return
        # ``min`` skips a NaN after its first element, but a NaN first
        # element would stay the minimum and hide a negative value.
        lowest = min(batch)
        if lowest < 0 or lowest != lowest:
            for value in batch:
                if value < 0:
                    raise ValueError(f"negative latency: {value}")
        self._samples.extend(batch)

    @property
    def samples(self) -> np.ndarray:
        """The raw samples as a numpy array (copy)."""
        return np.asarray(self._samples, dtype=np.float64)

    def mean(self) -> float:
        return float(np.mean(self._samples)) if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100)."""
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, q))

    def p999(self) -> float:
        """The P99.9 latency the paper reports."""
        return self.percentile(99.9)

    def summary(self) -> LatencySummary:
        """Full summary of the recorded population."""
        if not self._samples:
            return LatencySummary.empty()
        arr = np.asarray(self._samples, dtype=np.float64)
        minimum = float(arr.min())
        maximum = float(arr.max())
        # Pairwise summation can leave the mean a few ULPs outside the sample
        # range for near-constant populations; clamp to keep the invariant
        # min <= mean <= max exact.
        mean = min(max(float(arr.mean()), minimum), maximum)
        p50, p90, p95, p99, p999 = \
            np.percentile(arr, _SUMMARY_PERCENTILES).tolist()
        return LatencySummary(
            count=len(arr),
            mean_us=mean,
            p50_us=p50,
            p90_us=p90,
            p95_us=p95,
            p99_us=p99,
            p999_us=p999,
            min_us=minimum,
            max_us=maximum,
            stddev_us=float(arr.std()),
        )

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Return a new recorder containing both populations."""
        merged = LatencyRecorder(f"{self.name}+{other.name}")
        merged._samples = self._samples + other._samples
        return merged
