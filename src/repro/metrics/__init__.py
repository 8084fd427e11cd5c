"""Measurement utilities: latency recording, throughput timelines, statistics."""

from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.metrics.throughput import ThroughputTimeline, ThroughputSample
from repro.metrics.stats import (
    coefficient_of_variation,
    latency_gap,
    throughput_gain,
)

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "ThroughputTimeline",
    "ThroughputSample",
    "latency_gap",
    "throughput_gain",
    "coefficient_of_variation",
]
