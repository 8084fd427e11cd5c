"""The discrete-event simulation loop.

:class:`Simulator` processes events in ``(time, sequence)`` order.
Simulation time is a float in **microseconds** by convention throughout the
repository.

The schedule has two levels:

1. events due at the current instant -- a FIFO deque.  Device models spend
   most of their event budget on such *immediately-succeeding* events: free
   ``Resource.request`` grants, zero-delay token-bucket grants, relays for
   already-processed events, and process bootstraps.  A positive delay
   below the clock's float resolution lands here too: it is already due;
2. every later deadline -- a **timer wheel** with one slot per *distinct*
   deadline.  A slot holds its one event itself, and a list only once a
   second event shares its deadline; later ones append in O(1) (device
   fleets synchronize on shared service times and epoch grids, so some
   slots run fat).  Only the first event at a new deadline pays a push
   onto the small heap of distinct slot times.

The run loop pops from the deque while it holds anything, and otherwise
advances the clock to the earliest slot and moves that whole slot onto the
deque.  A slot holds exactly the events due at its deadline, appended in
sequence order, and becomes current only once the deque is empty, so the
events run in exactly the order one heap keyed ``(time, sequence)`` would
give.

Dispatching an event resumes the process parked in its waiter slot (the
first process that yielded it while it had no listed callback), then
runs its callback list in order and drops the list.  A process that
yields an event someone already waits on joins the list instead, so
every consumer runs in the order it registered.  A process that yields a
number of microseconds sleeps: it schedules its own wake event at that
delay, placed as :meth:`Simulator._schedule` places any event (see
:mod:`repro.sim.events`).

The kernel pools the :class:`Event` objects it makes for itself
(contended grants, process bootstraps, relays) and the :class:`Process`
objects made by ``spawn_process``, recycling them once dispatched,
provided they had at least one consumer and every one was a process
resumption or a :class:`Join` count-down -- events nobody waited on, or
that user callbacks saw, are never recycled (see the pooling discipline
note in :mod:`repro.sim.events`).  The pools have no cap: an
object is created only when its pool is empty, so a pool plus the
objects in use never holds more than the most that were in use at once.
:meth:`Simulator.run` is one inlined loop; it inlines the dispatch of an
event with only a waiter and of one with a single listed callback, and
every other dispatch goes through :meth:`Simulator._dispatch_checked`.

The kernel relies on one invariant user code must keep (it always has):
callbacks are never appended to an event that is already being processed.
"""

from __future__ import annotations

import heapq
from collections import deque
from types import MethodType
from typing import Any, Deque, Generator, Iterable, Optional

from repro.sim.events import Event, Join, Process, SimulationError

__all__ = ["Simulator"]

_PROCESS_RESUME = Process._resume
_JOIN_COUNT_DOWN = Join._count_down


class Simulator:
    """Discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulation clock value (microseconds).

    Examples
    --------
    >>> sim = Simulator()
    >>> results = []
    >>> def producer():
    ...     yield 5
    ...     results.append(sim.now)
    >>> _ = sim.process(producer())
    >>> sim.run()
    >>> results
    [5.0]
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: Events due at the *current* time, FIFO by sequence number (the
        #: order they were appended in).  Invariant: every entry is due at
        #: ``self._now`` (time never regresses and the run loop drains this
        #: deque before advancing the clock).
        self._immediate: Deque[Event] = deque()
        self._sequence = 0
        #: Wheel slots: exact deadline -> the one event at that deadline,
        #: or a list of the events at it, appended in sequence order (so a
        #: slot is already internally sorted).  Every slot time is strictly
        #: in the future: the moment the clock reaches the minimum slot, the
        #: run loop moves the whole slot onto the deque -- the slot *is* a
        #: batch of "events at the current time, FIFO by sequence", so the
        #: deque invariant carries over.
        self._wheel_buckets: dict[float, Event | list[Event]] = {}
        #: Min-heap of the distinct slot times (one entry per live slot).
        self._wheel_times: list[float] = []
        self._event_pool: list[Event] = []
        self._process_pool: list[Process] = []

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def scheduled_events(self) -> int:
        """Total events ever scheduled."""
        return self._sequence

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator)

    def join(self, events: Iterable[Event], count: Optional[int] = None) -> Join:
        """Event that succeeds with ``None`` once ``count`` of the
        still-pending ``events`` have succeeded (all of them by default),
        or fails with the first failure.  The kernel may recycle each
        joined event once the join has observed it."""
        return Join(self, events, count)

    def _fresh_event(self) -> Event:
        """A kernel-owned (recyclable) event for contended grants,
        bootstraps and relays."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event._value = None
            event._ok = True
            event._triggered = False
            event._processed = False
            event._defused = False
            return event
        event = Event(self)
        event._pool_ok = True
        return event

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Schedule ``event`` ``delay`` microseconds from now.  A process's
        sleep (``Process._resume``) inlines this placement."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule an event at delay={delay}")
        self._sequence += 1
        now = self._now
        time = now + delay
        if time <= now:
            # Zero delay, or a positive delay below the clock's float
            # resolution: already due.  The deque keeps it in exact
            # sequence order (a slot keyed at the current time would be
            # overtaken by later zero-delay events).
            self._immediate.append(event)
            return
        buckets = self._wheel_buckets
        slot = buckets.get(time)
        if slot is None:
            buckets[time] = event
            heapq.heappush(self._wheel_times, time)
        elif slot.__class__ is list:
            slot.append(event)
        else:
            buckets[time] = [slot, event]

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if self._immediate:
            return self._now
        if self._wheel_times:
            return self._wheel_times[0]
        return float("inf")

    def _dispatch_checked(self, event: Event) -> None:
        """Resume ``event``'s waiter, run its callbacks, drop its callback
        list, re-raise an unhandled failure, and pool the event if its only
        consumers were process resumptions or join count-downs.  An event
        with no consumer is never pooled: nobody waited on it, so user code
        may still hold it.  :meth:`_run_loop` inlines the waiter-only and
        the one-callback cases of this rule."""
        event._processed = True
        waiter = event._waiter
        callbacks = event._callbacks
        recyclable = waiter is not None or bool(callbacks)
        if waiter is not None:
            event._waiter = None
            waiter._resume(event)
        if callbacks is not None:
            event._callbacks = None
            for callback in callbacks:
                if type(callback) is not MethodType or (
                        callback.__func__ is not _PROCESS_RESUME
                        and callback.__func__ is not _JOIN_COUNT_DOWN):
                    recyclable = False
                callback(event)
        if not event._ok and not event._defused:
            raise event._value
        if not recyclable or not event._ok:  # failed events are never pooled
            return
        if event._pool_ok:
            cls = event.__class__
            if cls is Event:
                self._event_pool.append(event)
            elif cls is Process:
                # A finished process's _waiting_on is already None.
                event.generator = None
                self._process_pool.append(event)

    def _succeed_now(self, event: Event, value: Any = None) -> None:
        """Succeed ``event`` and dispatch it on the spot, unscheduled.

        Called from inside the dispatch of an event ``E``, this keeps the
        event order exactly as if ``E`` had instead been a block of
        zero-delay wakeups scheduled back to back (so consecutive sequence
        numbers, run back to back) and ``event`` one of them, provided
        ``E`` dispatches the block's events here in block order, and every
        wakeup of the block it leaves out would have been a no-op -- it
        schedules nothing, draws no random number and touches no
        statistic.

        Everything the on-the-spot dispatches schedule then takes the same
        relative order as before; only :attr:`scheduled_events` is
        smaller, since this dispatch takes no sequence number.
        """
        if event._triggered:
            raise SimulationError(f"{event!r} has already been triggered")
        event._triggered = True
        event._ok = True
        event._value = value
        self._dispatch_checked(event)

    def _start_now(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start ``generator`` as a process and run its first step on the
        spot: :meth:`_succeed_now` on the process's bootstrap, under the
        same contract, where ``E``'s block holds process bootstraps (as
        ``process`` schedules them) instead of wakeups."""
        process = Process(self, generator, scheduled=False)
        bootstrap = self._fresh_event()
        bootstrap._waiter = process
        self._succeed_now(bootstrap)
        return process

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation: the one way to advance the kernel.

        Parameters
        ----------
        until:
            * ``None`` -- run until the schedule is exhausted.
            * a float -- run until simulation time reaches that value: every
              event due at or before it runs, and the clock stops there.
              ``run(until=sim.peek())`` runs the current instant, or the
              next wheel slot, and nothing after it.
            * an :class:`Event` -- run until that event has been processed and
              return its value.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})")

        return self._run_loop(stop_event, stop_time)

    def _run_loop(self, stop_event: Optional[Event],
                  stop_time: Optional[float]) -> Any:
        """Inlined run loop: deque-first pop, in-place dispatch, object
        recycling, in ``(time, sequence)`` order.

        Per-event overhead is kept minimal: the stop-event test runs *after*
        each dispatch (equivalent to a top-of-loop test, since the event
        only flips to processed inside a dispatch), and the stop-time test
        runs only when the clock would advance (slot activations) --
        events on the deque never move the clock.
        """
        immediate = self._immediate
        wheel_times = self._wheel_times
        wheel_buckets = self._wheel_buckets
        heappop = heapq.heappop
        event_pool = self._event_pool
        process_pool = self._process_pool
        dispatch_checked = self._dispatch_checked
        event_cls = Event
        process_cls = Process
        list_cls = list
        method_type = MethodType
        resume = _PROCESS_RESUME
        count_down = _JOIN_COUNT_DOWN
        if stop_event is not None and stop_event._processed:
            return stop_event._value
        while True:
            if immediate:
                event = immediate.popleft()
            elif wheel_times:
                # Activate the earliest slot: the clock advances to its
                # time and the whole batch continues on the deque.
                wheel_time = wheel_times[0]
                if stop_time is not None and wheel_time > stop_time:
                    self._now = stop_time
                    return None
                heappop(wheel_times)
                event = wheel_buckets.pop(wheel_time)
                self._now = wheel_time
                if event.__class__ is list_cls:
                    immediate.extend(event)
                    event = immediate.popleft()
            else:
                break
            waiter = event._waiter
            callbacks = event._callbacks
            if callbacks is None:
                if waiter is not None:
                    # The overwhelmingly common case: one process parked in
                    # the waiter slot.  Inline of _dispatch_checked.
                    event._processed = True
                    event._waiter = None
                    resume(waiter, event)
                    if event._ok:
                        if event._pool_ok:
                            cls = event.__class__
                            if cls is event_cls:
                                event_pool.append(event)
                            elif cls is process_cls:
                                event.generator = None
                                process_pool.append(event)
                    elif not event._defused:
                        raise event._value
                else:
                    dispatch_checked(event)
            elif waiter is None and len(callbacks) == 1:
                # One listed callback, mostly a join count-down.  Inline of
                # _dispatch_checked.
                event._processed = True
                event._callbacks = None
                callback = callbacks[0]
                callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if event._ok and event._pool_ok \
                        and type(callback) is method_type and (
                            callback.__func__ is count_down
                            or callback.__func__ is resume):
                    cls = event.__class__
                    if cls is event_cls:
                        event_pool.append(event)
                    elif cls is process_cls:
                        event.generator = None
                        process_pool.append(event)
            else:
                dispatch_checked(event)
            if stop_event is not None and stop_event._processed:
                return stop_event._value
        return self._finish(stop_event, stop_time)

    def _finish(self, stop_event: Optional[Event],
                stop_time: Optional[float]) -> Any:
        """Common run() epilogue once the schedule has drained."""
        if stop_event is not None:
            if stop_event._processed:
                return stop_event._value
            raise SimulationError(
                "run() ran out of events before the 'until' event triggered")
        if stop_time is not None:
            self._now = max(self._now, stop_time)
        return None
