"""``benchmarks/profile_roundtrip.py``: the ``--sample`` profiler charges
CPU time to the code that used it, and ``--fleet`` profiles a fleet
scenario's quick cells."""

import os
import time

import numpy as np
import pytest

from benchmarks.profile_roundtrip import FrameSampler, main


def mostly_python(seconds: float) -> float:
    """Python arithmetic with a short ``np.cumsum`` call now and then, for
    ``seconds`` of CPU time; returns the share of it spent in those calls."""
    data = np.arange(10_000.0)
    in_numpy = 0.0
    start = time.process_time()
    while time.process_time() - start < seconds:
        total = 0
        for value in range(20_000):
            total += value * value
        before = time.process_time()
        np.cumsum(data)
        in_numpy += time.process_time() - before
    return in_numpy / (time.process_time() - start)


def test_sampler_charges_numpy_no_more_than_its_small_share():
    numpy_dir = os.path.dirname(np.__file__)
    with FrameSampler() as sampler:
        share = mostly_python(1.0)
    total = sum(sampler.counts.values())
    in_numpy = sum(samples for (filename, _line, _name), samples in sampler.counts.items()
                   if filename.startswith(numpy_dir))
    assert total >= 100
    assert share < 0.1
    assert in_numpy / total < 2 * share + 0.05, (in_numpy, total, share)


def test_fleet_profile_runs_the_quick_cells_and_ends_with_the_collector(capsys):
    assert main(["--fleet", "failover-storm", "--top", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith(
        "# fleet failover-storm: 3 quick cells on one shard; 2880 I/Os, ")
    assert any("(_run_loop)" in line for line in lines)
    assert lines[-1].startswith("# cyclic GC during the run: ")


@pytest.mark.parametrize("scenario, reason", [
    ("figure3", "scenario 'figure3' has no fleet cells"),
    ("no-such-scenario", "unknown scenario 'no-such-scenario'"),
], ids=["figure3", "no-such-scenario"])
def test_fleet_profile_refuses_a_scenario_without_fleet_cells(scenario, reason, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--fleet", scenario])
    assert exit_info.value.code == 2
    assert reason in capsys.readouterr().err
