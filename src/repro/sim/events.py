"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  An
event starts *untriggered*; calling :meth:`Event.succeed` (or
:meth:`Event.fail`) schedules it with the simulator (see
:mod:`repro.sim.engine` for the two-level deque / timer-wheel schedule),
and once the simulator pops it the event becomes *processed* and all
registered callbacks run.  A :class:`Process` wraps a Python generator,
and the process resumes each time what the generator yielded comes due.

What a process may yield
------------------------
* a non-negative number of microseconds (``int`` or ``float``, not
  ``bool``) -- a sleep.  The kernel schedules the process's own wake event
  at once, at that delay, as it schedules any event, and resumes the
  process with ``None``.
  ``Resource.request()`` and ``TokenBucket.consume()`` return ``0.0``
  when they grant at once, so a free grant is a zero sleep;
* an :class:`Event` -- the process resumes with its value once it is
  processed (at once, on the next turn of the current instant, if it
  already is).

Anything else -- a negative or NaN delay, a ``bool``, any other object --
raises :class:`SimulationError` inside the process, on the next turn of
the current instant.  A free grant takes its sequence number at the
``yield``, not at the ``request()``: that is exact only because nothing
is scheduled between the call and the ``yield``, so a free grant must be
yielded inline.  A process that sleeps again while its last wake
event is still scheduled (it was interrupted during the sleep) gets a
fresh wake event; the old one fires later as a no-op.

The waiter slot
---------------
Almost every event has exactly one consumer: the process that yielded it.
The first process to yield an event while it has no listed callback
parks in the event's ``_waiter`` slot instead, and the kernel resumes it
before any listed callback; a process that yields an event someone
already waits on joins the callback list.  Consumers therefore run in the
order they registered.  The list is allocated on the first append and
dropped after dispatch, so an event nobody lists a callback on never
allocates one.  A process holds no reference to itself, and a waiting
process and the event it waits on drop their references to each other
when the event is dispatched, so a finished process that nothing else
holds is freed by reference counting, without the cyclic collector.

Object pooling
--------------
The kernel recycles the events it makes for itself (the grant of a
*contended* ``Resource.request()`` or ``TokenBucket.consume()``, process
bootstraps, relays) and the :class:`Process` objects created through
:func:`spawn_process` (every ``device.submit`` and every per-I/O fan-out
child) once dispatched, provided their only consumers were the processes
that yielded them or a :class:`Join` that counted them.  The discipline
this imposes on user code: such an event must not be inspected (``.value``,
``.processed``) after the process that yielded it has resumed past a
*different* event, or after the join it was given to has counted it.
Yielding inline -- by far the common pattern -- is always safe.  The same
rule applies to submission events: read the request object (which the
completion event returns), not the event, once the worker has moved on.
An event nobody waited on is never recycled, so one held without being
yielded keeps its value.  A failed event is never recycled.  Processes
created with ``sim.process(...)`` are never recycled -- user code may
hold them, join them, or interrupt them long after completion.  The
pools have no cap: the kernel creates an object only when its pool is
empty, so a pool never holds more objects than were in use at once.

A :class:`Join` (``sim.join(events, count=None)``) is the kernel's one
fan-in: it counts its events down without keeping a reference to any of
them, so the kernel may recycle each one the moment the join has observed
it.  It succeeds with ``None``: a caller that needs a child's result reads
it from the objects the child worked on, not from the event.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from numbers import Real as _REAL
from types import GeneratorType as _GENERATOR_TYPE
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (double trigger, etc.)."""


class Interrupt(Exception):
    """Raised inside a process that has been interrupted by another process.

    The ``cause`` attribute carries the object passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes may wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    """

    __slots__ = ("sim", "_callbacks", "_waiter", "_value", "_ok", "_triggered",
                 "_processed", "_defused", "_pool_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Listed callbacks; ``None`` until the first append, and again
        #: once the event has been dispatched.
        self._callbacks: Optional[list[Callable[[Event], None]]] = None
        #: The process that yielded this event while it had no listed
        #: callback; the kernel resumes it before any listed callback.
        self._waiter: Optional[Process] = None
        self._value: Any = None
        self._ok: bool = True
        self._triggered: bool = False
        self._processed: bool = False
        self._defused: bool = False
        #: Set only by the kernel for events it created itself (bootstrap,
        #: contended grants); such events may be recycled after processing.
        self._pool_ok: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def callbacks(self) -> list[Callable[["Event"], None]]:
        """The callbacks run, in order, after the waiter slot's process
        when the event is dispatched.  Append to this list to subscribe;
        reading it allocates the list if the event has none yet."""
        callbacks = self._callbacks
        if callbacks is None:
            callbacks = self._callbacks = []
        return callbacks

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled (succeeded or failed)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the simulator has already run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded, ``False`` if it failed."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or the exception it failed with)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        # Zero-delay success is the kernel's hottest operation (contended
        # grants, token grants, relays); schedule it inline.  Scheduling
        # comes first so a rejected delay leaves the event untouched.
        sim = self.sim
        if delay == 0.0:
            sim._sequence += 1
            sim._immediate.append(self)
        else:
            sim._schedule(self, delay)
        self._triggered = True
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception`` after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.sim._schedule(self, delay)  # first: a rejected delay changes nothing
        self._triggered = True
        self._ok = False
        self._value = exception
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator does not re-raise it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event: it triggers when the generator returns
    (successfully, carrying the return value) or raises (failed, carrying the
    exception).  Other processes can therefore ``yield`` a process to join it.
    """

    __slots__ = ("generator", "_waiting_on", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator[Any, Any, Any],
                 scheduled: bool = True):
        # Inline of Event.__init__ (one process is created per device
        # submission; the super() call is measurable on the hot path).
        self.sim = sim
        self._callbacks = None
        self._waiter = None
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._pool_ok = False
        if type(generator) is not _GENERATOR_TYPE and \
                not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        #: The event a sleep schedules; made on the first sleep and reused
        #: by every later one once it has been dispatched.
        self._wake: Optional[Event] = None
        if not scheduled:
            return  # Simulator._start_now runs the first step itself
        # Kick off the process at the current simulation time.  The
        # bootstrap is scheduled inline (pooled event + direct deque append)
        # -- process creation is the first step of every device submission,
        # so the ``succeed()`` bookkeeping is worth skipping.  The scheduling
        # order is identical to ``succeed()``.
        pool = sim._event_pool
        if pool:
            bootstrap = pool.pop()
            bootstrap._value = None
            bootstrap._triggered = True
            bootstrap._processed = False
            bootstrap._defused = False
            # _ok is still True: only successful events are pooled.
        else:
            bootstrap = Event(sim)
            bootstrap._pool_ok = True
            bootstrap._triggered = True
        bootstrap._waiter = self
        sim._sequence += 1
        sim._immediate.append(bootstrap)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event (or sleeping) detaches it from that
        event, which still fires, as a no-op for this process.  The
        interrupt is delivered on the next turn of the current instant, and
        delivery detaches the process again: a second interrupt sent before
        the first was delivered finds it waiting on what it yielded after
        the first one.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        self._detach()
        relay = Event(self.sim)
        relay._callbacks = [self._deliver_interrupt]
        relay.fail(Interrupt(cause))
        relay._defused = True

    def _detach(self) -> None:
        """Stop waiting on the event the process waits on, if any; that
        event still fires, as a no-op for this process."""
        waiting_on = self._waiting_on
        if waiting_on is not None:
            if waiting_on._waiter is self:
                waiting_on._waiter = None
            else:
                # Bound methods compare equal by receiver and function.
                waiting_on._callbacks.remove(self._resume)
            self._waiting_on = None

    def _deliver_interrupt(self, relay: Event) -> None:
        """Throw an interrupt's :class:`Interrupt` into the process,
        detached from whatever it waits on by now."""
        self._detach()
        self._resume(relay)

    def _relay(self, ok: bool, value: Any) -> Event:
        """Resume the process on the next turn of the current instant,
        sending ``value`` into it, or throwing it when not ``ok``; returns
        the relay event."""
        relay = self.sim._fresh_event()
        relay._waiter = self
        if ok:
            relay.succeed(value)
        else:
            relay.fail(value)
            relay._defused = True
        return relay

    def _resume(self, event: Event) -> None:
        """The kernel's one step of a process: send ``event``'s value into
        the generator (or throw its exception), then register what the
        generator yields -- a sleep, an event, or an error thrown back.
        Every resumption comes here: from an event's waiter slot or
        callback list, a bootstrap, a relay or an interrupt."""
        self._waiting_on = None
        if self._triggered:
            return
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                event._defused = True
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            # Inline of succeed(stop.value): fires once per process, so the
            # completion of every device submission passes through here.
            self._triggered = True
            self._value = stop.value
            sim = self.sim
            sim._sequence += 1
            sim._immediate.append(self)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate through the event
            self.fail(exc)
            return
        cls = type(target)
        if cls is not float and cls is not int:
            if isinstance(target, Event):
                if target._processed:
                    # It already ran its callbacks: resume with its
                    # outcome on the next turn of the current instant.
                    # The process waits on the relay, so an interrupt
                    # detaches it from the relay as from any event.
                    if not target._ok:
                        target._defused = True
                    self._waiting_on = self._relay(target._ok, target._value)
                    return
                self._waiting_on = target
                callbacks = target._callbacks
                if target._waiter is None and not callbacks:
                    target._waiter = self
                elif callbacks is None:
                    target._callbacks = [self._resume]
                else:
                    callbacks.append(self._resume)
                return
            if cls is bool or not isinstance(target, _REAL):
                self._relay(False, SimulationError(
                    f"process yielded {target!r}: expected an event or a "
                    "delay in microseconds"))
                return
            target = float(target)  # a numpy scalar, say
        if not target >= 0:  # also rejects NaN
            self._relay(False, SimulationError(
                f"process yielded a negative or NaN delay: {target!r}"))
            return
        # A sleep: schedule the wake event, as Simulator._schedule does.
        sim = self.sim
        wake = self._wake
        if wake is None or not wake._processed:
            # The first sleep, or the last wake is still scheduled: the
            # process was interrupted while it slept.
            wake = self._wake = Event(sim)
            wake._triggered = True
        else:
            wake._processed = False
        wake._waiter = self
        self._waiting_on = wake
        sim._sequence += 1
        now = sim._now
        time = now + target
        if time <= now:
            sim._immediate.append(wake)
            return
        buckets = sim._wheel_buckets
        slot = buckets.get(time)
        if slot is None:
            buckets[time] = wake
            _heappush(sim._wheel_times, time)
        elif slot.__class__ is list:
            slot.append(wake)
        else:
            buckets[time] = [slot, wake]


def spawn_process(sim: "Simulator", generator: Generator[Any, Any, Any]) -> Process:
    """Pooled :class:`Process` factory for the submission hot path.

    The kernel recycles completed submission processes whose only waiter
    was an inline ``yield`` or a :class:`Join` (the same discipline as
    contended grant events -- see the module docstring); this factory
    reuses them, skipping the per-submission object allocation.  It
    schedules the bootstrap exactly as ``Process(sim, generator)`` does.
    """
    pool = sim._process_pool
    if pool:
        process = pool.pop()
        process._value = None
        process._triggered = False
        process._processed = False
        process._defused = False
        process.generator = generator
        # _ok stays True, _waiting_on is None, _pool_ok stays True, the
        # waiter slot and callback list were empty when the kernel pooled
        # it, and its wake event stays its own.
        epool = sim._event_pool
        if epool:
            bootstrap = epool.pop()
            bootstrap._value = None
            bootstrap._triggered = True
            bootstrap._processed = False
            bootstrap._defused = False
        else:
            bootstrap = Event(sim)
            bootstrap._pool_ok = True
            bootstrap._triggered = True
        bootstrap._waiter = process
        sim._sequence += 1
        sim._immediate.append(bootstrap)
        return process
    process = Process(sim, generator)
    process._pool_ok = True
    return process


class Join(Event):
    """Succeeds with ``None`` once ``count`` of the given events have
    succeeded -- the kernel's one fan-in.

    Only events still pending when the join is built count: ``count``
    defaults to all of them and is capped at their number, so a join of
    nothing pending succeeds at once.  The join fails on the first failing
    event, with its exception (which it defuses).  It ignores an event that
    completes after it has triggered, so such an event's failure surfaces
    as unhandled.  Each pending event counts once, so events that complete
    at the same instant are all counted.
    The join keeps no reference to its events and builds no value.  Its
    count-down is a callback the kernel knows, so a pool-eligible event
    whose only consumer was the join is recycled once observed (see the
    module docstring).
    """

    __slots__ = ("_pending",)

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 count: Optional[int] = None):
        super().__init__(sim)
        events = list(events)
        for event in events:
            if not isinstance(event, Event):
                raise TypeError(f"join requires events, got {event!r}")
        if count is not None and count < 0:
            raise ValueError(f"join count must be >= 0, got {count}")
        # One bound method shared by every child subscription, held only by
        # the children's callback lists: no reference cycle through the join.
        count_down = self._count_down
        pending = 0
        for event in events:
            if not event._processed:
                pending += 1
                callbacks = event._callbacks
                if callbacks is None:
                    event._callbacks = [count_down]
                else:
                    callbacks.append(count_down)
        if count is not None and count < pending:
            pending = count
        self._pending = pending
        if pending == 0:
            self.succeed()

    def _count_down(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed()
