"""Digests of deterministic workload outputs.

A digest is the sha256 of a canonical JSON rendering: sorted keys, no
whitespace, tuples as lists, floats as ``repr`` (so a change in the last
digit changes the digest).  Fleet payloads lose their ``runtime`` section
first -- wall clock, partition and transport live there, and none of them
may change a result.

The committed reference values live in ``digests.json`` beside this file,
one list of per-unit digests per workload at the default seed.  Regenerate
them after a change that is *meant* to move simulated results::

    python3 e2ebench/digest.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Mapping

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def canonical(value: Any) -> str:
    """Canonical JSON text of ``value`` (key order and tuple/list blind)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256_of(value: Any) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def strip_runtime(payload: Mapping[str, Any]) -> dict[str, Any]:
    """A fleet payload without its nondeterministic ``runtime`` section."""
    return {key: value for key, value in payload.items() if key != "runtime"}


def fleet_digest(payload: Mapping[str, Any]) -> str:
    return sha256_of(strip_runtime(payload))


def contract_digest(report) -> str:
    """Digest of one :class:`ContractReport`: every observation's verdict
    plus its evidence metrics."""
    return sha256_of({
        "essd": report.essd_name,
        "ssd": report.ssd_name,
        "evidence": [{"observation": item.observation.number,
                      "holds": item.holds,
                      "metrics": item.metrics}
                     for item in report.evidence],
    })


def load_committed() -> dict[str, list[str]]:
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="recompute every workload's default-seed "
                             "digests and rewrite digests.json")
    args = parser.parse_args(argv)
    if not args.write:
        print(json.dumps(load_committed(), indent=2, sort_keys=True))
        return 0
    from e2ebench.calibrate import Timer, probe
    from e2ebench.run import isolate_run
    from e2ebench.workloads import DEFAULT_SEED, WORKLOADS, make_workload

    with isolate_run():
        digests = {}
        for name in WORKLOADS:
            workload = make_workload(name, DEFAULT_SEED)
            workload.setup()
            try:
                digests[name] = list(workload.iterate(Timer(probe())).digests)
            finally:
                workload.close()
            print(f"{name}: {digests[name]}", file=sys.stderr)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    sys.exit(main())
