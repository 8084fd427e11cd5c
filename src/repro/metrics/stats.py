"""Comparison metrics used throughout the unwritten contract.

* ``latency_gap`` -- the "multiples the ESSD latency is divided by the SSD
  latency" metric of Figure 2.
* ``throughput_gain`` -- the random-over-sequential throughput gain of
  Figure 4.
* ``coefficient_of_variation`` -- used by the Observation-4 check to decide
  whether the maximum bandwidth is "deterministic".
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def latency_gap(essd_latency_us: float, ssd_latency_us: float) -> float:
    """ESSD latency divided by SSD latency (smaller is better for the ESSD)."""
    if essd_latency_us < 0 or ssd_latency_us < 0:
        raise ValueError("latencies must be non-negative")
    if ssd_latency_us == 0:
        return float("inf") if essd_latency_us > 0 else 1.0
    return essd_latency_us / ssd_latency_us


def throughput_gain(random_gbps: float, sequential_gbps: float) -> float:
    """Random-write throughput divided by sequential-write throughput."""
    if random_gbps < 0 or sequential_gbps < 0:
        raise ValueError("throughputs must be non-negative")
    if sequential_gbps == 0:
        return float("inf") if random_gbps > 0 else 1.0
    return random_gbps / sequential_gbps


def coefficient_of_variation(values: Iterable[float]) -> float:
    """Standard deviation divided by mean; 0.0 for empty or zero-mean input."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(arr.std() / mean)
