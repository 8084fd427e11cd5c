"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  An
event starts *untriggered*; calling :meth:`Event.succeed` (or
:meth:`Event.fail`) schedules it with the simulator (see
:mod:`repro.sim.engine` for the two-level deque / timer-wheel schedule),
and once the simulator pops it the event becomes *processed* and all
registered callbacks run.  A :class:`Process` wraps a Python generator: the
generator yields events, and the process resumes each time the yielded
event is processed.

The waiter slot
---------------
Almost every event has exactly one consumer: the process that yielded it.
The first process to yield an event while its callback list is empty
parks in the event's ``_waiter`` slot instead of the list, and the kernel
resumes it before any listed callback; a process that yields an event
someone already waits on joins the list.  Consumers therefore run in the
order they registered, and the common dispatch touches no list.  A
process holds no reference to itself, and a waiting process and the event
it waits on drop their references to each other when the event is
dispatched, so a finished process that nothing else holds is freed by
reference counting, without the cyclic collector.

Object pooling
--------------
The kernel recycles kernel-created :class:`Timeout` and grant
:class:`Event` objects whose only consumers were the processes that yielded
them or a :class:`Join` that counted them.  The discipline this imposes on
user code: an event obtained from ``sim.timeout(...)`` or
``resource.request()`` must not be inspected (``.value``, ``.processed``)
after the process that yielded it has resumed past a *different* event, or
after the join it was given to has counted it.  Yielding inline -- by far
the common pattern -- is always safe.  An event nobody waited on is never
recycled, so one held without being yielded keeps its value, whether
``run`` or ``step`` drives the simulator.  A failed event is never
recycled.  The pools have no cap: the kernel creates an object only when
its pool is empty, so a pool never holds more objects than were in use at
once.

:class:`Process` objects themselves are pooled too, but only the ones
created through :func:`spawn_process` (every ``device.submit`` and every
per-I/O fan-out child): those are marked pool-eligible at birth and
recycled once their completion has been consumed, either by the one
process that yielded them or by a :class:`Join`.  Processes created with
``sim.process(...)`` are never recycled -- user code may hold them, join
them, or interrupt them long after completion.  The same
inspect-after-resume rule applies to submission events: read the request
object (which the completion event returns), not the event, once the
worker has moved on.

A :class:`Join` (``sim.join(events, count=None)``) is the kernel's one
fan-in: it counts its events down without keeping a reference to any of
them, so the kernel may recycle each one the moment the join has observed
it.  It succeeds with ``None``: a caller that needs a child's result reads
it from the objects the child worked on, not from the event.
"""

from __future__ import annotations

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

    __slots__ = ("sim", "callbacks", "_waiter", "_value", "_ok", "_triggered",
                 "_processed", "_defused", "_pool_ok", "_seq")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        #: The process that yielded this event while its callback list was
        #: empty; the kernel resumes it before any listed callback.
        self._waiter: Optional[Process] = None
        self._value: Any = None
        self._ok: bool = True
        self._triggered: bool = False
        self._processed: bool = False
        self._defused: bool = False
        #: Set only by the kernel for events it created itself (bootstrap,
        #: resource grants); such events may be recycled after processing.
        self._pool_ok: bool = False
        #: Scheduling sequence number (set when queued on the immediate deque).
        self._seq: int = 0

    # -- state inspection -------------------------------------------------
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
        # Zero-delay success is the kernel's hottest operation (resource
        # grants, token grants, relays); schedule it inline.  Scheduling
        # comes first so a rejected delay leaves the event untouched.
        sim = self.sim
        if delay == 0.0:
            sim._sequence = seq = sim._sequence + 1
            self._seq = seq
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


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event: it triggers when the generator returns
    (successfully, carrying the return value) or raises (failed, carrying the
    exception).  Other processes can therefore ``yield`` a process to join it.
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any],
                 scheduled: bool = True):
        # Inline of Event.__init__ (one process is created per device
        # submission; the super() call is measurable on the hot path).
        self.sim = sim
        self.callbacks = []
        self._waiter = None
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._pool_ok = False
        self._seq = 0
        if type(generator) is not _GENERATOR_TYPE and \
                not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self.generator = generator
        self._waiting_on: Optional[Event] = None
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
        sim._sequence = seq = sim._sequence + 1
        bootstrap._seq = seq
        sim._immediate.append(bootstrap)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        waiting_on = self._waiting_on
        if waiting_on is not None:
            if waiting_on._waiter is self:
                waiting_on._waiter = None
            else:
                # Bound methods compare equal by receiver and function.
                waiting_on.callbacks.remove(self._resume)
            self._waiting_on = None
        interrupt_event = Event(self.sim)
        interrupt_event.callbacks.append(self._resume_with_interrupt(cause))
        interrupt_event.succeed()

    def _resume_with_interrupt(self, cause: Any) -> Callable[[Event], None]:
        def callback(_event: Event) -> None:
            self._step(throw=Interrupt(cause))

        return callback

    def _resume(self, event: Event) -> None:
        # The kernel's hottest callback: an inline of _step(send/throw) minus
        # two frames.  Keep the inline in sync with _step, which interrupts
        # and non-event yields still go through.
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
            sim._sequence = seq = sim._sequence + 1
            self._seq = seq
            sim._immediate.append(self)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate through the event
            self.fail(exc)
            return
        # Inline of _wait_on's hot branch (pending event): one frame less.
        if isinstance(target, Event) and not target._processed:
            self._waiting_on = target
            if target._waiter is None and not target.callbacks:
                target._waiter = self
            else:
                target.callbacks.append(self._resume)
            return
        self._wait_on(target)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        if self._triggered:
            return
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate through the event
            self.fail(exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Register the process on the event its generator just yielded: in
        the event's waiter slot while nothing else waits on it, else at the
        end of its callback list, so waiters run in the order they came."""
        if isinstance(target, Event) and not target._processed:
            self._waiting_on = target
            if target._waiter is None and not target.callbacks:
                target._waiter = self
            else:
                target.callbacks.append(self._resume)
            return
        if not isinstance(target, Event):
            self._step(throw=SimulationError(
                f"process yielded a non-event value: {target!r}"))
            return
        # The event already ran its callbacks; resume immediately with
        # its value on the next simulator step.
        relay = self.sim._fresh_event()
        relay._waiter = self
        if target.ok:
            relay.succeed(target.value)
        else:
            target.defuse()
            relay.fail(target.value)
            relay.defuse()


def spawn_process(sim: "Simulator", generator: Generator[Event, Any, Any]) -> Process:
    """Pooled :class:`Process` factory for the submission hot path.

    The kernel recycles completed submission processes whose only waiter
    was an inline ``yield`` or a :class:`Join` (the same discipline as
    pooled grant/timeout events -- see the module docstring); this factory
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
        # _ok stays True, _waiting_on is None, _pool_ok stays True, and the
        # waiter slot and callback list were empty when the kernel pooled it.
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
        sim._sequence = seq = sim._sequence + 1
        bootstrap._seq = seq
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
                event.callbacks.append(count_down)
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
