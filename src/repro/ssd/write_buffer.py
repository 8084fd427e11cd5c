"""DRAM write buffer.

Host writes land in the buffer at DRAM speed and are acknowledged
immediately; background flusher workers drain dirty logical blocks to
flash.  This is the mechanism behind the paper's Observation 1 asymmetry:
buffered writes are an order of magnitude faster than random reads on the
local SSD, so the relative ESSD penalty is much larger for writes.

Space handoff
-------------
A writer that finds no room parks on :meth:`WriteBuffer.wait_for_space`
with the block it needs; a FLUSH parks with ``None``, "until empty".
:meth:`WriteBuffer.complete_flush` hands the parked list to one zero-delay
event.  When that event runs, it walks the list in FIFO order and resumes
on the spot (``Simulator._succeed_now``) each waiter whose retry would now
succeed -- ``has_room_for(lbn)``, or ``is_empty()`` for a FLUSH.  Every
other waiter stays parked and keeps its order.

This gives bit for bit the results of waking *every* parked writer at each
flush completion and letting each re-check and re-park:

* the wake-all gives its wakeups consecutive sequence numbers at one
  simulated instant, so they run back to back;
* a waiter that finds no room only re-checks and re-parks: it schedules
  nothing, draws no random number and touches no statistic, and creating
  its new ``Event`` does not advance the kernel's sequence counter;
* so dropping those no-op resumes leaves the relative order of every
  other event unchanged.  Only ``Simulator.scheduled_events`` falls, and
  that count lives only in a run's ``runtime`` section, which no digest
  or cache key reads;
* the parked list ends in the wake-all's order: waiters that parked
  between the flush completion and the walk come first, then the
  re-parked ones in their old order.

The walk runs as the scheduled event, never inside ``complete_flush``: the
flusher that completes goes straight on to ``take_batch`` in the same step,
and the wake-all's retries ran only after that.  A walk inside
``complete_flush`` would insert blocks before that ``take_batch``, changing
the batch and the order of overwrite hits.

Nothing frees space during the walk: a resumed writer only inserts, and a
flush completion is an event of its own.  So once the buffer is full, it
stays full until the walk ends; from there only an overwrite hit (a block
already dirty) can proceed, and a FLUSH cannot.  The walk then tests the
remaining waiters for a hit only and re-parks each run of the others with
one ``extend``, in order.

A write inserts its blocks with one :meth:`WriteBuffer.insert_run` call up
to the first block with no room, and parks there.  Nothing yields between
inserts that fit, so this is the per-block loop's event order exactly.

Flushers start on first need
----------------------------
A flusher started with the buffer would find it empty and park on
:meth:`WriteBuffer.wait_for_data`, so all of them would sit at the head of
the data waiters, in start order, until woken: a flusher that parks again
queues behind them.  The buffer therefore starts none.  It keeps one
placeholder per flusher at the head of the data waiters instead, and where
it would wake a placeholder's flusher it starts one.  The new flusher's
first step is the woken one's next (``take_batch``), and its bootstrap
takes the wakeup's place in the schedule, so every event keeps its place.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import islice
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


class WriteBuffer:
    """Tracks dirty logical blocks awaiting flush, with bounded capacity.

    ``flusher`` makes the generator of one flusher process, and the buffer
    starts up to ``flushers`` of them as data arrives (see the module
    docstring).
    """

    def __init__(self, sim: "Simulator", capacity_slots: int,
                 flusher: Optional[Callable[[], Generator]] = None,
                 flushers: int = 0):
        if capacity_slots <= 0:
            raise ValueError("capacity_slots must be positive")
        self.sim = sim
        self.capacity_slots = capacity_slots
        #: Dirty blocks in FIFO order; value is unused (ordered-set semantics).
        self._dirty: OrderedDict[int, None] = OrderedDict()
        #: Blocks currently being programmed by a flusher (still readable).
        #: A block two flushers program at once is held here once, so the
        #: occupancy is always counted from the containers, never kept in a
        #: separate counter that would drift from them.
        self._in_flight: set[int] = set()
        #: Parked writers in FIFO order, each with the block it needs
        #: (``None``: until the buffer is empty).
        self._space_waiters: list[tuple["Event", Optional[int]]] = []
        #: Flushers parked for data, FIFO; ``None`` holds the place of a
        #: flusher not started yet.
        self._data_waiters: deque[Optional["Event"]] = deque([None] * flushers)
        self._flusher = flusher
        self.overwrite_hits = 0

    # -- state -------------------------------------------------------------------
    @property
    def used_slots(self) -> int:
        return len(self._dirty) + len(self._in_flight)

    @property
    def free_slots(self) -> int:
        return self.capacity_slots - self.used_slots

    def misses(self, lbns: range) -> list[int]:
        """The blocks of ``lbns``, in order, that a read cannot serve from
        the buffer: neither dirty nor in flight."""
        dirty = self._dirty
        in_flight = self._in_flight
        return [lbn for lbn in lbns if lbn not in dirty and lbn not in in_flight]

    def is_empty(self) -> bool:
        return not self._dirty and not self._in_flight

    # -- host side -----------------------------------------------------------------
    def has_room_for(self, lbn: int) -> bool:
        """Whether inserting ``lbn`` needs no new space (overwrite) or fits."""
        dirty = self._dirty
        return lbn in dirty or len(dirty) + len(self._in_flight) < self.capacity_slots

    def insert(self, lbn: int) -> None:
        """Mark ``lbn`` dirty.  Caller must have checked :meth:`has_room_for`."""
        if self.insert_run(lbn, lbn + 1) == lbn:
            raise RuntimeError("write buffer overflow - caller must wait for space")

    def insert_run(self, lbn: int, end: int) -> int:
        """Mark ``lbn``, ``lbn + 1``, ... dirty up to ``end`` (exclusive),
        stopping at the first block with no room; returns that block, or
        ``end`` when all fit.

        An overwrite moves the block to the back of the flush order and
        counts a hit.  Each new block wakes one flusher waiting for data.
        """
        dirty = self._dirty
        # Waking a flusher only schedules it, so nothing else changes the
        # buffer during the loop: count the room down locally.
        room = self.capacity_slots - len(dirty) - len(self._in_flight)
        data_waiters = self._data_waiters
        for lbn in range(lbn, end):
            if lbn in dirty:
                self.overwrite_hits += 1
                dirty.move_to_end(lbn)
            elif room > 0:
                dirty[lbn] = None
                room -= 1
                if data_waiters:
                    self._notify_one(data_waiters)
            else:
                return lbn
        return end

    def wait_for_space(self, lbn: Optional[int]) -> "Event":
        """Park until a flush completion's handoff finds that inserting
        ``lbn`` now succeeds -- or, for ``None`` (a FLUSH), that the buffer
        is empty.  Call it only when that does not hold yet."""
        event = self.sim.event()
        self._space_waiters.append((event, lbn))
        return event

    def wait_for_data(self) -> "Event":
        """Event that fires the next time a dirty block is inserted."""
        event = self.sim.event()
        self._data_waiters.append(event)
        return event

    # -- flusher side -----------------------------------------------------------------
    def take_batch(self, max_slots: int) -> list[int]:
        """Move up to ``max_slots`` dirty blocks to the in-flight set."""
        if max_slots <= 0:
            raise ValueError("max_slots must be positive")
        dirty = self._dirty
        batch = list(islice(dirty, max_slots))
        for lbn in batch:
            del dirty[lbn]
        self._in_flight.update(batch)
        return batch

    def complete_flush(self, lbns: list[int]) -> None:
        """Drop flushed blocks from the buffer and schedule the handoff of
        the freed space to the writers parked now (see the module
        docstring)."""
        self._in_flight.difference_update(lbns)
        parked = self._space_waiters
        if parked:
            self._space_waiters = []
            handoff = Event(self.sim)
            handoff._callbacks = [self._hand_off]
            handoff.succeed(parked)

    # -- internals -----------------------------------------------------------------
    def _hand_off(self, handoff: "Event") -> None:
        """Resume, in FIFO order, the waiters whose retry now succeeds;
        re-park the rest behind the writers that parked since."""
        dirty = self._dirty
        in_flight = self._in_flight
        capacity = self.capacity_slots
        succeed_now = self.sim._succeed_now
        waiters = handoff.value
        count = len(waiters)
        index = 0
        # While there is room, every writer proceeds, and a FLUSH does if
        # the buffer is empty.
        while index < count and len(dirty) + len(in_flight) < capacity:
            waiter = waiters[index]
            index += 1
            if waiter[1] is not None or (not dirty and not in_flight):
                succeed_now(waiter[0])
            else:
                self._space_waiters.append(waiter)
        # Full for the rest of the walk: only an overwrite hit proceeds.
        # (``None in dirty`` is false, so a FLUSH stays parked.)
        start = index
        for index in range(index, count):
            if waiters[index][1] in dirty:
                self._space_waiters.extend(waiters[start:index])
                succeed_now(waiters[index][0])
                start = index + 1
        self._space_waiters.extend(waiters[start:])

    def _notify_one(self, waiters: deque[Optional["Event"]]) -> None:
        while waiters:
            event = waiters.popleft()
            if event is None:
                self.sim.process(self._flusher())
                return
            if not event._triggered:
                event.succeed(None)
                return
