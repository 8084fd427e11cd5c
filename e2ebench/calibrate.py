"""Host-speed yardstick interleaved with the workload iterations.

On a shared 2-core x86-64 VM each vCPU flips between a fast state and one
about 1.7x slower every second or so, independently of the other, and the
share of slow time drifts over minutes as neighbours get busy.  That moves
raw timings by more than any benchmark bound: five 20 s runs of
``failover-sharded`` under Python 3.11 gave raw medians from 2.9 s to
5.2 s, and over one 240 s run of ``fleet-smoke`` the spread of 20 s windows
was 0.32 raw against 0.05 scaled.  So a short fixed pure-Python probe runs
between the steps of every iteration, outside their timing, and measures
how fast the CPU is right now.  :class:`Timer` scales each step's host
seconds by ``REFERENCE_PROBE_S / probe`` (the probes just before and after
the step, averaged), turning them into host seconds on a host whose probe
takes ``REFERENCE_PROBE_S``.  Raw and scaled values are both kept with the
result.

Each probe runs in a fresh Python process of its own (about 55 ms to start,
and 15 kernel runs of about 5 ms each).  Nothing the program under test does
in the benchmark process -- its threads, its heap, its hold on the GIL --
can move the yardstick; only the host can.  The runner pins itself to one
CPU and the probe inherits the pin, because only a probe on the same vCPU
as the work follows its flips.

The probe covers the three kinds of work the simulator does most: integer
arithmetic, allocating and walking tuples, and dict inserts and lookups.
Each kernel runs five times and gives its mean -- not its median, which
would drop exactly the slow bursts the work pays for; the probe is the
geometric mean of the three.  The child imports nothing but ``gc``,
``math`` and ``time``, so it starts fast.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
from time import perf_counter

#: Probe time of the reference host: a 2-core x86-64 VM under Python 3.11
#: in a quiet phase.  Only a unit: it scales every run the same way.
REFERENCE_PROBE_S = 0.0045

#: Runs of each kernel per probe; the probe takes their mean.
_RUNS = 5

#: Host seconds this process has spent in :func:`probe`.  The traced run's
#: spans subtract it, so no per-layer time includes the yardstick.
probed_s = 0.0


def _arithmetic() -> None:
    total = 0
    for value in range(50_000):
        total += value * value % 7


def _tuples() -> None:
    table = [(value, value & 7) for value in range(30_000)]
    total = 0
    for left, right in table:
        total += left * right % 7


def _dicts() -> None:
    table = {}
    for value in range(20_000):
        table[value] = (value, str(value))
    sum(len(entry[1]) for entry in table.values())


def _mean_time(kernel) -> float:
    start = perf_counter()
    for _ in range(_RUNS):
        kernel()
    return (perf_counter() - start) / _RUNS


def probe_here() -> float:
    """The yardstick's seconds, measured in this process.

    The cyclic collector is paused meanwhile, so no collection pass lands
    inside a kernel.
    """
    gc.disable()
    kernels = (_arithmetic, _tuples, _dicts)
    return math.exp(sum(math.log(_mean_time(kernel)) for kernel in kernels)
                    / len(kernels))


def probe() -> float:
    """The yardstick's seconds on the host right now, measured in a fresh
    Python process (isolated, no ``site``, no bytecode written)."""
    global probed_s
    start = perf_counter()
    child = subprocess.run([sys.executable, "-I", "-S", "-B", __file__],
                           capture_output=True, text=True, timeout=60,
                           check=True)
    probed_s += perf_counter() - start
    return float(child.stdout)


def scale(before: float, after: float) -> float:
    """The factor that turns host seconds measured between two probes into
    reference-host seconds."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


class Timer:
    """Host seconds of one iteration's steps, probed between steps.

    ``start`` opens the first step and every ``lap`` closes one: it probes
    the host (untimed) and opens the next.  A workload calls ``lap`` after
    each natural step -- an FIO job, a fleet cell, a served job -- and once
    at the end, so no step spans more than a second or two of host drift.
    """

    def __init__(self, probe_s: float):
        #: The most recent probe: the "before" of the running step.
        self.last_probe = probe_s
        #: Host seconds in finished steps.
        self.raw = 0.0
        #: The same steps in reference-host seconds.
        self.scaled = 0.0
        self._start = perf_counter()

    def start(self) -> None:
        self._start = perf_counter()

    def elapsed(self) -> float:
        """Host seconds timed so far: finished steps plus the running one."""
        return self.raw + perf_counter() - self._start

    def lap(self) -> float:
        """Close the running step; reference-host seconds of every finished
        step."""
        step = perf_counter() - self._start
        after = probe()
        self.raw += step
        self.scaled += step * scale(self.last_probe, after)
        self.last_probe = after
        self._start = perf_counter()
        return self.scaled


if __name__ == "__main__":
    print(repr(probe_here()))
