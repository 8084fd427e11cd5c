"""Discrete-event simulation kernel.

Every device model in this repository (the local SSD in :mod:`repro.ssd`,
the elastic SSD in :mod:`repro.ebs`) runs on top of this small,
simpy-flavoured kernel.  Simulation time is a floating-point number of
**microseconds**; all latency parameters elsewhere in the code base use the
same unit.

The kernel provides:

* :class:`~repro.sim.engine.Simulator` -- the event loop.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.Process`, :class:`~repro.sim.events.AllOf`,
  :class:`~repro.sim.events.AnyOf`, :class:`~repro.sim.events.Join` -- the
  things a process can ``yield``.
* :class:`~repro.sim.resources.Resource` -- a counted resource with a FIFO
  wait queue (e.g. a flash die, a network link slot).
* :class:`~repro.sim.resources.Store` -- a FIFO buffer of items with optional
  capacity (e.g. a submission queue).
* :class:`~repro.sim.resources.TokenBucket` -- a rate limiter used to model
  provider-side throughput and IOPS budgets.
"""

from repro.sim.engine import Simulator
from repro.sim.events import (
    AllOf,
    AnyOf,
    ConditionValue,
    Event,
    Interrupt,
    Join,
    Process,
    Timeout,
)
from repro.sim.resources import Resource, Store, TokenBucket
from repro.sim.trace import Tracer

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Interrupt",
    "Join",
    "Resource",
    "Store",
    "TokenBucket",
    "Tracer",
]
