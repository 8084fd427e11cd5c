"""The ``--sample`` profiler of ``benchmarks/profile_roundtrip.py`` charges
CPU time to the code that used it."""

import os
import time

import numpy as np

from benchmarks.profile_roundtrip import FrameSampler


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
