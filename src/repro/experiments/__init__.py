"""Reproduction of the paper's evaluation section, plus open-ended sweeps.

Each ``figure*`` module regenerates one paper artifact; :func:`run_all` runs
everything and renders a combined text report.  Beyond the paper's grid, the
scenario-sweep subsystem (:mod:`repro.experiments.scenarios`,
:mod:`repro.experiments.sweep`) turns the same machinery into an open-ended
characterization harness: named scenarios expand parameter grids into
independent cells, execute across worker processes, and cache results as
JSON.  ``python -m repro.experiments`` lists, runs, and diffs scenarios.
"""

from repro.experiments.common import DeviceKind, ExperimentScale, build_device
from repro.experiments.scenarios import (
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register,
    scenario,
)
from repro.experiments.sweep import (
    CellSpec,
    SweepResult,
    SweepRunner,
    diff_results,
    expand_grid,
    run_cell,
    spec_hash,
)
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.figure5 import Figure5Result, run_figure5
from repro.experiments.runner import EvaluationReport, run_all
from repro.experiments.table1 import render_table1, run_table1

__all__ = [
    "DeviceKind",
    "ExperimentScale",
    "build_device",
    "ScenarioSpec",
    "scenario",
    "register",
    "get_scenario",
    "all_scenarios",
    "CellSpec",
    "SweepRunner",
    "SweepResult",
    "run_cell",
    "expand_grid",
    "spec_hash",
    "diff_results",
    "run_table1",
    "render_table1",
    "run_figure2",
    "Figure2Result",
    "run_figure3",
    "Figure3Result",
    "run_figure4",
    "Figure4Result",
    "run_figure5",
    "Figure5Result",
    "run_all",
    "EvaluationReport",
]
