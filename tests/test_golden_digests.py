"""Golden digests of every built-in scenario's quick cells.

Each test runs one built-in scenario's ``quick_cells`` on fresh simulators
and compares ``spec_hash`` of every cell's metrics with the value recorded
in ``golden_digests.json``.  A change that keeps these digests keeps every
simulated result, bit for bit.

Beside the scenarios, the file records the contract checker's full
evidence (all four observations) at the small ``quick_checker_config``
under ``CONTRACT_KEY``, and under ``CONTRACT_EVENTS_KEY`` the total
``Simulator.scheduled_events`` of that run.  The count pins the event
order's shape: a change that keeps every result but schedules one event
more or less shows here.  ``tests/test_contract_and_implications.py``
compares both from its one module-scoped checker run.

Under ``FLEET_EVENTS_KEY`` it records ``runtime.scheduled_events`` of each
quick ``failover-storm`` cell run at two in-process shards: the fleet path
through lockstep rounds, fault barriers and replica deliveries.

The recorded sets are keyed by interpreter (``py3.11``, ...).  From 3.12 on,
``sum()`` over floats is compensated (``sum([0.1] * 10)`` is ``1.0`` on 3.12
and ``0.9999999999999999`` on 3.11), so metrics that sum floats may differ
in the last digit between interpreters.  An interpreter with no recorded
set skips.

Regenerate after a change that is meant to move simulated results::

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

GOLDEN_PATH = Path(__file__).resolve().with_name("golden_digests.json")
INTERPRETER = f"py{sys.version_info[0]}.{sys.version_info[1]}"
#: Entry of the contract checker's evidence digest (not a scenario name).
CONTRACT_KEY = "contract:quick_checker"
#: Entry of the events the checker's full run schedules (not a scenario name).
CONTRACT_EVENTS_KEY = "contract:quick_checker:scheduled_events"
#: Entry of the events each quick failover-storm cell schedules at two shards.
FLEET_EVENTS_KEY = "failover-storm:shards=2:scheduled_events"


def load_golden() -> dict[str, dict[str, list]]:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def scenario_digests(name: str) -> list[str]:
    """``spec_hash`` of each quick cell's metrics, in cell order."""
    from repro.determinism import spec_hash
    from repro.experiments.scenarios import get_scenario
    from repro.experiments.sweep import quick_cells, run_cell

    return [spec_hash(run_cell(cell)[0])
            for cell in quick_cells(get_scenario(name).cells())]


def fleet_scheduled_events(name: str = "failover-storm",
                           shards: int = 2) -> list[int]:
    """``runtime.scheduled_events`` of each quick cell of fleet scenario
    ``name`` run at ``shards`` in-process shards, in cell order."""
    from repro.cluster import FleetCoordinator, FleetRunConfig, FleetTopology
    from repro.experiments.scenarios import get_scenario
    from repro.experiments.sweep import quick_cells

    config = FleetRunConfig(shards=shards, transport="local")
    counts = []
    for cell in quick_cells(get_scenario(name).cells()):
        assert cell.faults is None  # the faults ride the topology
        payload = FleetCoordinator(config=config).run(
            FleetTopology.from_json(cell.fleet))
        counts.append(payload["runtime"]["scheduled_events"])
    return counts


def quick_checker_config():
    """A small :class:`CheckerConfig` whose full run takes a few seconds."""
    from repro.core import CheckerConfig
    from repro.host.io import MiB

    return CheckerConfig(
        ssd_capacity_bytes=96 * MiB,
        essd_capacity_bytes=192 * MiB,
        latency_ios=120,
        gc_write_capacity_factor=1.5,
        throughput_window_us=60_000.0,
    )


@contextmanager
def checker_simulators():
    """Collect, in the yielded list, every ``Simulator`` the contract
    checker builds inside the block."""
    import repro.core.checker as checker

    built = []

    class Collected(checker.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(checker, "Simulator", Collected):
        yield built


def run_quick_checker():
    """The quick checker's full report and the events its run scheduled."""
    from repro.core import ContractChecker

    with checker_simulators() as simulators:
        report = ContractChecker(config=quick_checker_config()).run()
    return report, sum(sim.scheduled_events for sim in simulators)


def contract_digest(report) -> str:
    """``spec_hash`` of a :class:`ContractReport`: every observation's
    verdict plus its evidence metrics."""
    from repro.determinism import spec_hash

    return spec_hash({
        "essd": report.essd_name,
        "ssd": report.ssd_name,
        "evidence": [{"observation": item.observation.number,
                      "holds": item.holds,
                      "metrics": item.metrics}
                     for item in report.evidence],
    })


_GOLDEN = load_golden()
_NAMES = sorted({name for recorded in _GOLDEN.values() for name in recorded}
                - {CONTRACT_KEY, CONTRACT_EVENTS_KEY, FLEET_EVENTS_KEY})


@pytest.mark.parametrize("name", _NAMES)
def test_scenario_quick_cells_match_golden_digests(name, monkeypatch):
    recorded = _GOLDEN.get(INTERPRETER)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for {INTERPRETER}: float "
                    "sum() differs across interpreter versions")
    monkeypatch.delenv("REPRO_SCENARIO_PATH", raising=False)
    assert name in recorded, f"{name} has no {INTERPRETER} digests"
    assert scenario_digests(name) == recorded[name]


def test_failover_storm_schedules_the_golden_event_counts():
    """The fleet twin of the checker's event count: lockstep rounds, fault
    barriers and replica deliveries schedule what they did."""
    recorded = _GOLDEN.get(INTERPRETER)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for {INTERPRETER}: float "
                    "sum() differs across interpreter versions")
    assert fleet_scheduled_events() == recorded[FLEET_EVENTS_KEY]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record every built-in scenario's digests, "
                             f"the checker's, its event count and the "
                             f"failover-storm event counts under "
                             f"{INTERPRETER} in {GOLDEN_PATH.name}")
    args = parser.parse_args(argv)
    if not args.write:
        print(json.dumps(load_golden(), indent=2, sort_keys=True))
        return 0
    os.environ.pop("REPRO_SCENARIO_PATH", None)
    import repro.experiments  # noqa: F401 - registers the built-in scenarios
    from repro.experiments.scenarios import all_scenarios

    golden = load_golden()
    golden[INTERPRETER] = {spec.name: scenario_digests(spec.name)
                           for spec in all_scenarios()}
    report, events = run_quick_checker()
    golden[INTERPRETER][CONTRACT_KEY] = [contract_digest(report)]
    golden[INTERPRETER][CONTRACT_EVENTS_KEY] = [events]
    golden[INTERPRETER][FLEET_EVENTS_KEY] = fleet_scheduled_events()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
