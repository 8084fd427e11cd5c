"""Discrete-event simulation kernel.

Every device model in this repository (the local SSD in :mod:`repro.ssd`,
the elastic SSD in :mod:`repro.ebs`) runs on top of this small,
simpy-flavoured kernel.  Simulation time is a floating-point number of
**microseconds**; all latency parameters elsewhere in the code base use the
same unit.

The kernel provides:

* :class:`~repro.sim.engine.Simulator` -- the event loop, over a two-level
  schedule: a FIFO deque for the current instant and a timer wheel of
  exact-deadline slots for every later one.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Process`,
  :class:`~repro.sim.events.Join` -- the events a process can ``yield``;
  ``sim.join(events, count)`` is the one fan-in.  A process sleeps by
  yielding a number of microseconds (``yield 5.0``).
* :class:`~repro.sim.resources.Resource` -- a counted resource with a FIFO
  wait queue (e.g. a flash die, a network link slot).
* :class:`~repro.sim.resources.TokenBucket` -- a rate limiter used to model
  provider-side throughput and IOPS budgets.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Interrupt, Join, Process
from repro.sim.resources import Resource, TokenBucket
from repro.sim.trace import Tracer

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Interrupt",
    "Join",
    "Resource",
    "TokenBucket",
    "Tracer",
]
