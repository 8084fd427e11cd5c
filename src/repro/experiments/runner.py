"""Run every paper experiment and render a combined report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.common import DeviceKind, ExperimentScale
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.figure5 import Figure5Result, run_figure5
from repro.experiments.table1 import DeviceConfigRow, render_table1, run_table1


@dataclass
class EvaluationReport:
    """All reproduced tables and figures in one object."""

    scale: ExperimentScale
    table1: list[DeviceConfigRow]
    figure2: Figure2Result
    figure3: Figure3Result
    figure4: Figure4Result
    figure5: Figure5Result

    def render(self) -> str:
        sections = ["# Reproduced evaluation artifacts", ""]
        sections.append("## Table I -- device configurations")
        sections.append(render_table1(self.table1))
        sections.append("\n## Figure 2 -- latency and latency gap")
        for device in (DeviceKind.ESSD1, DeviceKind.ESSD2):
            sections.append(self.figure2.render(device, "mean"))
            sections.append(self.figure2.render(device, "p999"))
        sections.append("\n## Figure 3 -- sustained random writes (GC)")
        sections.append(self.figure3.render())
        sections.append("\n## Figure 4 -- random vs sequential writes")
        for device in (DeviceKind.ESSD1, DeviceKind.ESSD2, DeviceKind.SSD):
            sections.append(self.figure4.render(device))
        sections.append("\n## Figure 5 -- mixed read/write throughput")
        sections.append(self.figure5.render())
        return "\n".join(sections)


def run_all(scale: Optional[ExperimentScale] = None,
            quick: bool = False) -> EvaluationReport:
    """Run every experiment.

    ``quick=True`` shrinks grids and write volumes so the whole sweep stays
    in the tens of seconds (used by tests and the quickstart example).
    """
    scale = scale or (ExperimentScale.small() if quick else ExperimentScale.default())
    return EvaluationReport(
        scale=scale,
        table1=run_table1(scale),
        figure2=run_figure2(
            scale,
            ios_per_cell=80 if quick else 250,
            io_sizes=(4096, 262144) if quick else (4096, 65536, 262144),
            queue_depths=(1, 8) if quick else (1, 4, 16),
        ),
        figure3=run_figure3(scale, capacity_factor=1.2 if quick else 3.0),
        figure4=run_figure4(
            scale,
            ios_per_cell=150 if quick else 800,
            io_sizes=(4096, 65536) if quick else (4096, 16384, 65536, 262144),
            queue_depths=(1, 32) if quick else (1, 8, 32),
        ),
        figure5=run_figure5(
            scale,
            ios_per_point=200 if quick else 1200,
            write_ratios=(0, 50, 100) if quick else (0, 25, 50, 75, 100),
        ),
    )
