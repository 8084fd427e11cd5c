"""Config-driven fleets: validated YAML/JSON documents for every layer.

This package is the declarative front door of the stack: topologies, device
profile overrides, fault schedules, and whole scenario definitions live in
plain documents (YAML when :mod:`pyyaml` is installed, JSON always) instead
of Python code.  Documents load through the existing factory registries --
``devices`` names must be registered families, fleets round-trip through
:class:`repro.cluster.FleetTopology` -- so a config-loaded fleet and its
Python-built twin are the *same object* and produce bit-identical metrics.

* :mod:`repro.config.schema` -- document <-> object converters with precise,
  path-addressed validation errors (``fleet.groups[2].count: expected
  positive int``): :func:`topology_from_document`,
  :func:`scenario_from_document`, :func:`cell_from_document` and their
  ``*_to_document`` inverses (also exposed as methods on
  :class:`~repro.cluster.FleetTopology`,
  :class:`~repro.experiments.sweep.CellSpec`, and
  :class:`~repro.experiments.scenarios.ScenarioSpec`).
* :mod:`repro.config.loader` -- text/file parsing (YAML/JSON, with a
  graceful JSON-only fallback when pyyaml is absent) plus the
  ``$REPRO_SCENARIO_PATH`` directory scan that registers user scenario
  documents beside the built-ins.

CLI: ``python -m repro.experiments validate <file>`` checks documents
without running anything; ``run``/``fleet``/``submit`` accept registered
document scenarios like any built-in.
"""

from repro.config.loader import (
    SCENARIO_SUFFIXES,
    load_document,
    parse_document_text,
    scan_scenario_dirs,
    scenario_from_path,
    yaml_available,
)
from repro.config.schema import (
    ConfigError,
    cell_from_document,
    cell_to_document,
    document_kind,
    fault_spec_from_document,
    fault_spec_to_document,
    fold_faults,
    run_config_from_document,
    scenario_for_document,
    scenario_from_document,
    scenario_to_document,
    topology_from_document,
    topology_to_document,
)

__all__ = [
    "ConfigError",
    "SCENARIO_SUFFIXES",
    "cell_from_document",
    "cell_to_document",
    "document_kind",
    "fault_spec_from_document",
    "fault_spec_to_document",
    "fold_faults",
    "load_document",
    "parse_document_text",
    "run_config_from_document",
    "scan_scenario_dirs",
    "scenario_for_document",
    "scenario_from_document",
    "scenario_from_path",
    "scenario_to_document",
    "topology_from_document",
    "topology_to_document",
    "yaml_available",
]
