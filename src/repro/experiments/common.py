"""Shared infrastructure for the paper-reproduction experiments.

Every experiment builds its devices with :func:`build_device` at an
:class:`ExperimentScale`, which fixes the (scaled) capacities and keeps the
paper's 1:2 SSD:ESSD capacity ratio.  The workloads themselves run as sweep
cells (:func:`repro.experiments.sweep.run_cell`) with bounded I/O counts, so
experiment cost stays predictable regardless of how fast a configuration
happens to be.

Device construction goes through the :mod:`repro.devices` registry;
:class:`DeviceKind` remains as the typed enumeration of the paper's Table I
devices (its values are the registry names).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.devices import create_device
from repro.host.io import GiB, MiB
from repro.sim import Simulator


class DeviceKind(enum.Enum):
    """The three devices of the paper's Table I."""

    SSD = "SSD"
    ESSD1 = "ESSD-1"
    ESSD2 = "ESSD-2"


@dataclass(frozen=True)
class ExperimentScale:
    """Scaled device capacities (paper: SSD 1 TB, ESSDs 2 TB -- ratio kept)."""

    ssd_capacity_bytes: int = 512 * MiB
    essd_capacity_bytes: int = 1 * GiB

    @classmethod
    def small(cls) -> "ExperimentScale":
        """Fast scale for unit tests."""
        return cls(ssd_capacity_bytes=256 * MiB, essd_capacity_bytes=512 * MiB)

    @classmethod
    def default(cls) -> "ExperimentScale":
        """Default scale used by the benchmark harness."""
        return cls()

    @classmethod
    def large(cls) -> "ExperimentScale":
        """Closer-to-paper scale (slower; used for Figure 3's GC study)."""
        return cls(ssd_capacity_bytes=1 * GiB, essd_capacity_bytes=2 * GiB)

    def capacity_of(self, kind: "DeviceKind | str") -> int:
        """Scaled capacity for a device name (SSD uses the SSD capacity,
        everything else the ESSD capacity)."""
        name = kind.value if isinstance(kind, DeviceKind) else str(kind)
        return self.ssd_capacity_bytes if name == DeviceKind.SSD.value \
            else self.essd_capacity_bytes


def build_device(sim: Simulator, kind: "DeviceKind | str",
                 scale: Optional[ExperimentScale] = None,
                 name: Optional[str] = None,
                 device_params: Optional[dict] = None):
    """Instantiate a registered device on ``sim`` at experiment scale.

    ``device_params`` are forwarded to the factory as profile overrides
    (e.g. ``replication_factor`` / ``chunk_size`` for the ESSD cluster).
    """
    scale = scale or ExperimentScale.default()
    device_name = kind.value if isinstance(kind, DeviceKind) else str(kind)
    return create_device(sim, device_name,
                         capacity_bytes=scale.capacity_of(device_name),
                         name=name, **(device_params or {}))


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a plain-text table (used by every experiment's ``render``)."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render_row(cells):
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))
    lines = [render_row(headers), render_row(["-" * width for width in widths])]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)
