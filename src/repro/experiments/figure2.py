"""Figure 2: latency of the ESSDs versus the local SSD (the latency gap).

The paper's Figure 2 is a grid over four access patterns, I/O sizes from
4 KiB to 256 KiB, and queue depths from 1 to 16, with two metrics (average
and P99.9 latency) per ESSD.  Each pixel shows the ESSD latency and its gap
(ESSD / SSD) relative to the local SSD at the same workload point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.experiments.common import DeviceKind, ExperimentScale, format_table
from repro.experiments.scenarios import register, scenario
from repro.experiments.sweep import CellSpec, SweepRunner
from repro.host.io import KiB
from repro.metrics.stats import latency_gap

#: The four access patterns of Figure 2, in paper order.
PATTERNS = ("randwrite", "write", "randread", "read")
PATTERN_LABELS = {
    "randwrite": "Random Write",
    "write": "Sequential Write",
    "randread": "Random Read",
    "read": "Sequential Read",
}
#: Full paper grid.
PAPER_IO_SIZES = (4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB)
PAPER_QUEUE_DEPTHS = (1, 2, 4, 8, 16)
#: Reduced grid used by default to keep the benchmark harness quick.
DEFAULT_IO_SIZES = (4 * KiB, 64 * KiB, 256 * KiB)
DEFAULT_QUEUE_DEPTHS = (1, 4, 16)


@dataclass(frozen=True)
class LatencyCell:
    """One pixel of Figure 2."""

    device: DeviceKind
    pattern: str
    io_size: int
    queue_depth: int
    mean_us: float
    p999_us: float

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.pattern, self.io_size, self.queue_depth)


@dataclass
class Figure2Result:
    """All measured cells plus gap computation against the SSD baseline."""

    cells: list[LatencyCell] = field(default_factory=list)
    io_sizes: tuple[int, ...] = DEFAULT_IO_SIZES
    queue_depths: tuple[int, ...] = DEFAULT_QUEUE_DEPTHS

    def cell(self, device: DeviceKind, pattern: str, io_size: int,
             queue_depth: int) -> LatencyCell:
        for cell in self.cells:
            if (cell.device is device and cell.pattern == pattern
                    and cell.io_size == io_size and cell.queue_depth == queue_depth):
                return cell
        raise KeyError((device, pattern, io_size, queue_depth))

    def gap(self, device: DeviceKind, pattern: str, io_size: int,
            queue_depth: int, metric: str = "mean") -> float:
        """ESSD/SSD latency gap for one pixel (metric: 'mean' or 'p999')."""
        essd = self.cell(device, pattern, io_size, queue_depth)
        ssd = self.cell(DeviceKind.SSD, pattern, io_size, queue_depth)
        if metric == "mean":
            return latency_gap(essd.mean_us, ssd.mean_us)
        if metric == "p999":
            return latency_gap(essd.p999_us, ssd.p999_us)
        raise ValueError(f"unknown metric {metric!r}")

    def max_gap(self, device: DeviceKind, metric: str = "mean") -> float:
        """Largest gap over the whole grid for one ESSD."""
        gaps = [self.gap(device, cell.pattern, cell.io_size, cell.queue_depth, metric)
                for cell in self.cells if cell.device is device]
        return max(gaps) if gaps else 0.0

    def gap_by_pattern(self, device: DeviceKind, pattern: str,
                       metric: str = "mean") -> list[float]:
        return [self.gap(device, pattern, cell.io_size, cell.queue_depth, metric)
                for cell in self.cells
                if cell.device is device and cell.pattern == pattern]

    def render(self, device: DeviceKind, metric: str = "mean") -> str:
        """Text rendering of one panel (one ESSD, one metric), paper-style."""
        headers = ["Pattern", "QD"] + [f"{size // KiB}KiB" for size in self.io_sizes]
        rows = []
        for pattern in PATTERNS:
            for queue_depth in self.queue_depths:
                row = [PATTERN_LABELS[pattern], str(queue_depth)]
                for io_size in self.io_sizes:
                    gap = self.gap(device, pattern, io_size, queue_depth, metric)
                    cell = self.cell(device, pattern, io_size, queue_depth)
                    value = cell.mean_us if metric == "mean" else cell.p999_us
                    row.append(f"{gap:.1f}x ({_format_latency(value)})")
                rows.append(row)
        title = f"{metric.upper()} latency of {device.value} (gap vs SSD in parentheses: ESSD us)"
        return title + "\n" + format_table(headers, rows)


def _format_latency(value_us: float) -> str:
    if value_us >= 1000:
        return f"{value_us / 1000:.1f}m"
    return f"{value_us:.0f}u"


def figure2_cells(scale: Optional[ExperimentScale] = None,
                  io_sizes: Sequence[int] = DEFAULT_IO_SIZES,
                  queue_depths: Sequence[int] = DEFAULT_QUEUE_DEPTHS,
                  ios_per_cell: int = 250,
                  devices: Sequence[DeviceKind] = (DeviceKind.SSD, DeviceKind.ESSD1,
                                                   DeviceKind.ESSD2),
                  ) -> list[CellSpec]:
    """The Figure 2 grid as independent sweep cells."""
    scale = scale or ExperimentScale.default()
    cells = []
    for device in devices:
        for pattern in PATTERNS:
            for io_size in io_sizes:
                for queue_depth in queue_depths:
                    cells.append(CellSpec(
                        device=device.value,
                        pattern=pattern,
                        io_size=io_size,
                        queue_depth=queue_depth,
                        io_count=max(ios_per_cell, queue_depth * 20),
                        seed=17,
                        preload=pattern.endswith("read"),
                        ssd_capacity_bytes=scale.ssd_capacity_bytes,
                        essd_capacity_bytes=scale.essd_capacity_bytes,
                        labels=(("device", device.value), ("io_size", io_size),
                                ("pattern", pattern), ("queue_depth", queue_depth)),
                    ))
    return cells


def run_figure2(scale: Optional[ExperimentScale] = None,
                io_sizes: Sequence[int] = DEFAULT_IO_SIZES,
                queue_depths: Sequence[int] = DEFAULT_QUEUE_DEPTHS,
                ios_per_cell: int = 250,
                devices: Sequence[DeviceKind] = (DeviceKind.SSD, DeviceKind.ESSD1,
                                                 DeviceKind.ESSD2),
                runner: Optional[SweepRunner] = None) -> Figure2Result:
    """Measure the Figure 2 latency grid through the sweep runner.

    The default grid is reduced relative to the paper's (3 sizes x 3 queue
    depths instead of 4 x 5) to keep the harness fast; pass
    ``io_sizes=PAPER_IO_SIZES, queue_depths=PAPER_QUEUE_DEPTHS`` for the full
    grid.  Pass a parallel :class:`SweepRunner` to spread cells over worker
    processes and/or cache results.
    """
    cells = figure2_cells(scale, io_sizes, queue_depths, ios_per_cell,
                          devices)
    sweep = (runner or SweepRunner()).run_cells("figure2", cells)
    result = Figure2Result(io_sizes=tuple(io_sizes), queue_depths=tuple(queue_depths))
    for outcome in sweep.outcomes:
        labels = outcome.params
        result.cells.append(LatencyCell(
            device=DeviceKind(labels["device"]),
            pattern=labels["pattern"],
            io_size=labels["io_size"],
            queue_depth=labels["queue_depth"],
            mean_us=outcome.metrics["mean_us"],
            p999_us=outcome.metrics["p999_us"],
        ))
    return result


register(scenario(
    "figure2",
    "Paper Figure 2: ESSD vs SSD latency grid (pattern x size x depth)",
    devices=("SSD", "ESSD-1", "ESSD-2"),
    tags=("paper", "latency"),
    cell_builder=lambda: figure2_cells(
        ExperimentScale.small(), io_sizes=(4 * KiB, 262144),
        queue_depths=(1, 8), ios_per_cell=80),
))
