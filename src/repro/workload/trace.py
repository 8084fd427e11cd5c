"""Block-level trace synthesis, serialization, and open-loop replay.

The paper's experiments are closed-loop (FIO), but its implications concern
real deployments whose arrival processes are bursty (Implication 4: smooth
I/Os below the throughput budget).  This module synthesizes such arrival
processes, replays them open-loop against any device, and round-trips traces
through a simple CSV format so external traces can be plugged in.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from repro.host.device import BlockDevice
from repro.host.io import IOKind, KiB
from repro.metrics.latency import LatencyRecorder
from repro.metrics.throughput import ThroughputTimeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


@dataclass(frozen=True)
class TraceEvent:
    """One request of a block-level trace."""

    timestamp_us: float
    kind: IOKind
    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.timestamp_us < 0:
            raise ValueError("timestamp must be non-negative")
        if self.offset < 0 or self.size <= 0:
            raise ValueError("offset must be >= 0 and size > 0")


@dataclass
class Trace:
    """An ordered sequence of :class:`TraceEvent`."""

    events: list[TraceEvent] = field(default_factory=list)
    name: str = "trace"

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def append(self, event: TraceEvent) -> None:
        if self.events and event.timestamp_us < self.events[-1].timestamp_us:
            raise ValueError("trace events must be appended in time order")
        self.events.append(event)

    @property
    def duration_us(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1].timestamp_us - self.events[0].timestamp_us

    @property
    def total_bytes(self) -> int:
        return sum(event.size for event in self.events)

    def write_bytes(self) -> int:
        return sum(e.size for e in self.events if e.kind is IOKind.WRITE)

    def read_bytes(self) -> int:
        return sum(e.size for e in self.events if e.kind is IOKind.READ)

    def offered_load_series(self, bin_us: float) -> list[float]:
        """Offered load (GB/s) per time bin -- the burstiness profile."""
        if bin_us <= 0:
            raise ValueError("bin width must be positive")
        if not self.events:
            return []
        start = self.events[0].timestamp_us
        end = self.events[-1].timestamp_us
        bins = max(1, int(math.ceil((end - start) / bin_us)) + 1)
        loads = [0.0] * bins
        for event in self.events:
            index = min(bins - 1, int((event.timestamp_us - start) // bin_us))
            loads[index] += event.size
        return [load / bin_us / 1000.0 for load in loads]

    def peak_load_gbps(self, bin_us: float = 1000.0) -> float:
        """Peak offered load over any bin (GB/s)."""
        series = self.offered_load_series(bin_us)
        return max(series) if series else 0.0

    def mean_load_gbps(self) -> float:
        """Average offered load over the trace duration (GB/s)."""
        if self.duration_us <= 0:
            return 0.0
        return self.total_bytes / self.duration_us / 1000.0

    # -- serialization ---------------------------------------------------------
    def save_csv(self, path: str | Path) -> None:
        """Write the trace as ``timestamp_us,kind,offset,size`` rows."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["timestamp_us", "kind", "offset", "size"])
            for event in self.events:
                writer.writerow([f"{event.timestamp_us:.3f}", event.kind.value,
                                 event.offset, event.size])

    @classmethod
    def load_csv(cls, path: str | Path, name: Optional[str] = None) -> "Trace":
        """Read a trace previously written by :meth:`save_csv`."""
        trace = cls(name=name or Path(path).stem)
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                trace.append(TraceEvent(
                    timestamp_us=float(row["timestamp_us"]),
                    kind=IOKind(row["kind"]),
                    offset=int(row["offset"]),
                    size=int(row["size"]),
                ))
        return trace


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def synthesize_uniform_trace(duration_us: float, load_gbps: float, io_size: int = 64 * KiB,
                             write_ratio: float = 1.0, region_bytes: int = 1 << 30,
                             seed: int = 0, name: str = "uniform") -> Trace:
    """A trace whose offered load is constant at ``load_gbps``."""
    if load_gbps <= 0 or duration_us <= 0:
        raise ValueError("duration and load must be positive")
    rng = random.Random(seed)
    interval = io_size / (load_gbps * 1000.0)
    trace = Trace(name=name)
    timestamp = 0.0
    while timestamp < duration_us:
        kind = IOKind.WRITE if rng.random() < write_ratio else IOKind.READ
        offset = rng.randrange(max(1, region_bytes // io_size)) * io_size
        trace.append(TraceEvent(timestamp, kind, offset, io_size))
        timestamp += interval
    return trace


def synthesize_bursty_trace(duration_us: float, mean_load_gbps: float,
                            burst_factor: float = 8.0, burst_fraction: float = 0.1,
                            io_size: int = 64 * KiB, write_ratio: float = 1.0,
                            region_bytes: int = 1 << 30, period_us: float = 100_000.0,
                            seed: int = 0, name: str = "bursty") -> Trace:
    """An on/off trace: short bursts at ``burst_factor`` times the mean load.

    ``burst_fraction`` of every ``period_us`` window is a burst; the rest of
    the window carries the residual load so that the long-run average equals
    ``mean_load_gbps``.  This is the adversarial arrival process for a
    throughput-budgeted ESSD (Implication 4).
    """
    if not 0 < burst_fraction < 1:
        raise ValueError("burst_fraction must be in (0, 1)")
    if burst_factor * burst_fraction > 1.0 + 1e-9:
        raise ValueError("burst_factor * burst_fraction must be <= 1 "
                         "(otherwise the residual load would be negative)")
    rng = random.Random(seed)
    burst_load = mean_load_gbps * burst_factor
    residual_load = mean_load_gbps * (1.0 - burst_factor * burst_fraction) \
        / (1.0 - burst_fraction)
    trace = Trace(name=name)
    window_start = 0.0
    while window_start < duration_us:
        burst_end = window_start + burst_fraction * period_us
        window_end = min(window_start + period_us, duration_us)
        for phase_start, phase_end, load in (
                (window_start, min(burst_end, duration_us), burst_load),
                (min(burst_end, duration_us), window_end, residual_load)):
            if load <= 0 or phase_end <= phase_start:
                continue
            interval = io_size / (load * 1000.0)
            timestamp = phase_start
            while timestamp < phase_end:
                kind = IOKind.WRITE if rng.random() < write_ratio else IOKind.READ
                offset = rng.randrange(max(1, region_bytes // io_size)) * io_size
                trace.append(TraceEvent(timestamp, kind, offset, io_size))
                timestamp += interval
        window_start += period_us
    return trace


def synthesize_diurnal_trace(duration_us: float, mean_load_gbps: float,
                             peak_to_trough: float = 4.0, io_size: int = 64 * KiB,
                             write_ratio: float = 0.7, region_bytes: int = 1 << 30,
                             cycles: int = 2, seed: int = 0,
                             name: str = "diurnal") -> Trace:
    """A sinusoidal day/night load curve, a milder form of burstiness."""
    if peak_to_trough < 1:
        raise ValueError("peak_to_trough must be >= 1")
    rng = random.Random(seed)
    trace = Trace(name=name)
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    timestamp = 0.0
    while timestamp < duration_us:
        phase = 2.0 * math.pi * cycles * timestamp / duration_us
        load = mean_load_gbps * (1.0 + amplitude * math.sin(phase))
        load = max(load, mean_load_gbps / (10.0 * peak_to_trough))
        interval = io_size / (load * 1000.0)
        kind = IOKind.WRITE if rng.random() < write_ratio else IOKind.READ
        offset = rng.randrange(max(1, region_bytes // io_size)) * io_size
        trace.append(TraceEvent(timestamp, kind, offset, io_size))
        timestamp += interval
    return trace


#: Named trace families usable from the sweep layer (``trace-<family>``
#: cell patterns) and from fleet tenants (``{"trace": "<family>", ...}``).
TRACE_FAMILIES = {
    "uniform": synthesize_uniform_trace,
    "bursty": synthesize_bursty_trace,
    "diurnal": synthesize_diurnal_trace,
}


def synthesize_trace(family: str, **params) -> Trace:
    """Synthesize a trace by family name, forwarding generator knobs.

    ``family`` is one of :data:`TRACE_FAMILIES`; ``params`` are passed to the
    matching ``synthesize_*_trace`` function (``duration_us``,
    ``mean_load_gbps`` / ``load_gbps``, ``burst_factor``, ``peak_to_trough``,
    ...).  This is the single entry point the scenario grids and fleet
    topologies go through, so an axis named after a generator knob lands on
    the generator unchanged.
    """
    try:
        synthesize = TRACE_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(TRACE_FAMILIES))
        raise ValueError(f"unknown trace family {family!r}; known: {known}") \
            from None
    return synthesize(**params)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    """Measurements of an open-loop trace replay."""

    trace_name: str
    device_name: str
    ios_completed: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Simulated time the replay started, and of its last completion.
    started_us: float = 0.0
    finished_us: float = 0.0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    timeline: ThroughputTimeline = field(default_factory=ThroughputTimeline)
    #: Requests still outstanding when the replay window closed.
    unfinished: int = 0

    @property
    def mean_latency_us(self) -> float:
        return self.latency.mean()

    @property
    def p999_latency_us(self) -> float:
        return self.latency.p999()


def replay_trace(sim: "Simulator", device: BlockDevice, trace: Trace,
                 run: bool = True,
                 on_complete: Optional[Callable[..., None]] = None,
                 ) -> ReplayResult:
    """Replay ``trace`` open-loop (requests are issued at their timestamps).

    Offsets are wrapped into the device's address space, so traces
    synthesized for a different capacity still apply.
    With ``run=False`` the replay is only scheduled (several replays can then
    share one simulation) and the caller advances the simulator itself; note
    that ``unfinished`` is only meaningful once the simulation has drained.
    ``on_complete(request, now_us)`` fires per completed request (the fleet
    layer's replication hook).
    """
    result = ReplayResult(trace_name=trace.name, device_name=device.name,
                          started_us=sim.now)
    outstanding = {"count": 0}

    def issue(event: TraceEvent):
        offset = event.offset % max(device.logical_block_size,
                                    device.capacity_bytes - event.size)
        offset -= offset % device.logical_block_size
        submit = device.read(offset, event.size) if event.kind is IOKind.READ \
            else device.write(offset, event.size)
        outstanding["count"] += 1
        request = yield submit
        outstanding["count"] -= 1
        if on_complete is not None:
            on_complete(request, sim.now)
        result.ios_completed += 1
        if request.kind is IOKind.READ:
            result.bytes_read += request.size
        else:
            result.bytes_written += request.size
        result.finished_us = sim.now
        result.latency.record(request.latency)
        result.timeline.record(sim.now, request.size)

    def driver():
        start = sim.now
        for event in trace.events:
            target = start + event.timestamp_us
            if target > sim.now:
                yield target - sim.now
            sim.process(issue(event))

    sim.process(driver())
    if run:
        sim.run()
        result.unfinished = outstanding["count"]
    return result
