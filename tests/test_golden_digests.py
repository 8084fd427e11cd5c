"""Golden digests of every built-in scenario's quick cells.

Each test runs one built-in scenario's ``quick_cells`` on fresh simulators
and compares ``spec_hash`` of every cell's metrics with the value recorded
in ``golden_digests.json``.  A change that keeps these digests keeps every
simulated result, bit for bit.

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
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).resolve().with_name("golden_digests.json")
INTERPRETER = f"py{sys.version_info[0]}.{sys.version_info[1]}"


def load_golden() -> dict[str, dict[str, list[str]]]:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def scenario_digests(name: str) -> list[str]:
    """``spec_hash`` of each quick cell's metrics, in cell order."""
    from repro.determinism import spec_hash
    from repro.experiments.scenarios import get_scenario
    from repro.experiments.sweep import quick_cells, run_cell

    return [spec_hash(run_cell(cell))
            for cell in quick_cells(get_scenario(name).cells())]


_GOLDEN = load_golden()
_NAMES = sorted({name for recorded in _GOLDEN.values() for name in recorded})


@pytest.mark.parametrize("name", _NAMES)
def test_scenario_quick_cells_match_golden_digests(name, monkeypatch):
    recorded = _GOLDEN.get(INTERPRETER)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for {INTERPRETER}: float "
                    "sum() differs across interpreter versions")
    monkeypatch.delenv("REPRO_SCENARIO_PATH", raising=False)
    assert name in recorded, f"{name} has no {INTERPRETER} digests"
    assert scenario_digests(name) == recorded[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record every built-in scenario's digests "
                             f"under {INTERPRETER} in {GOLDEN_PATH.name}")
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
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
