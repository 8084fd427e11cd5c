"""Corner-case semantics of the simulation kernel.

These tests lock the exact observable behavior of the scheduler --
interleaving of same-time events, interrupt-during-wait, joins with
already-processed children, ``run(until=event)`` failure handling -- plus
golden traces of mixed workloads (resources, token buckets, pooled device
submissions).  The goldens were recorded when three kernel variants
(heap-only, deque without the timer wheel, and the wheel kernel with a
far-deadline heap) still existed and agreed on every trace; they pin the
event order the single remaining kernel must keep.
"""

import gc
import hashlib
import weakref
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Interrupt, Resource, Simulator
from repro.sim.events import SimulationError, spawn_process
from test_sim_wheel import run_slot_by_slot


# ---------------------------------------------------------------------------
# Reference: the value-mapping AllOf the kernel shipped before ``join`` was
# its only fan-in, kept verbatim.  Its callback is not one the kernel knows,
# so events it holds are never recycled.
# ---------------------------------------------------------------------------

class ConditionValue(dict):
    """The result mapping (event -> value) an :class:`AllOf`/:class:`AnyOf`
    succeeds with.

    A plain ``dict`` subclass: values are snapshotted when the condition
    triggers (so later recycling of constituent events cannot corrupt them)
    while keeping the familiar mapping protocol for callers.
    """

    __slots__ = ()


class _Condition(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if not isinstance(event, Event):
                raise TypeError(f"condition requires events, got {event!r}")
        # One bound-method object is shared by every child subscription, so a
        # wide fan-in does not allocate a callback per child.
        observe = self._observe
        pending = 0
        for event in self.events:
            if not event._processed:
                pending += 1
                event.callbacks.append(observe)
        self._pending = pending
        self._check_initial()

    def _check_initial(self) -> None:
        raise NotImplementedError

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _collect_values(self) -> ConditionValue:
        values = ConditionValue()
        for event in self.events:
            if event._processed and event._ok:
                values[event] = event._value
        return values


class AllOf(_Condition):
    """Triggers when *all* constituent events have triggered successfully."""

    __slots__ = ()

    def _check_initial(self) -> None:
        if not self._triggered and self._pending == 0:
            self.succeed(self._collect_values())

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        # Every unprocessed event was subscribed once per listing, so the
        # count reaches zero exactly when the last of them is processed.
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect_values())


# ---------------------------------------------------------------------------
# Same-time interleaving: zero-delay events vs heap events
# ---------------------------------------------------------------------------

def test_zero_delay_events_interleave_with_heap_events_in_seq_order():
    """Events scheduled earlier for time T run before zero-delay events
    scheduled *at* time T (FIFO by global sequence number)."""
    sim = Simulator()
    order = []

    def early(label):
        yield 5
        order.append(label)

    def trigger():
        yield 5
        order.append("trigger")
        gate.succeed()

    def waiter():
        yield gate
        order.append("gate")

    gate = sim.event()
    # a's timeout is scheduled before trigger's, both land at t=5; the gate
    # fires with zero delay *while* t=5 events are still pending.
    sim.process(trigger())
    sim.process(early("a"))
    sim.process(early("b"))
    sim.process(waiter())
    sim.run()
    assert order == ["trigger", "a", "b", "gate"]


def test_process_resumed_by_processed_event_keeps_fifo_position():
    """Yielding an already-processed event resumes on the next same-time
    turn, after events that were already scheduled."""
    sim = Simulator()
    order = []
    done = sim.event()
    done.succeed("early")

    def sibling():
        yield 0
        order.append("sibling")

    def late_yielder():
        yield 0
        value = yield done  # already processed by now
        order.append(("late", value))

    sim.process(late_yielder())
    sim.process(sibling())
    sim.run()
    assert order == ["sibling", ("late", "early")]


def test_immediate_resource_grants_preserve_fifo():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def user(label, hold):
        yield resource.request()
        order.append(("got", label, sim.now))
        yield hold
        resource.release()

    for label, hold in (("a", 3), ("b", 2), ("c", 1)):
        sim.process(user(label, hold))
    sim.run()
    assert order == [("got", "a", 0.0), ("got", "b", 3.0), ("got", "c", 5.0)]


# ---------------------------------------------------------------------------
# On-the-spot dispatch: a block of wakeups or bootstraps folded into one event
# ---------------------------------------------------------------------------

def _fold_trace(schedule_block):
    """The log of same-instant processes around a block that
    ``schedule_block(sim, worker)`` schedules between them: ``before``
    is scheduled ahead of the block and ``after`` behind it, and every
    worker logs each step and yields zero-delay timeouts."""
    sim = Simulator()
    log = []

    def worker(name):
        for step in range(2):
            log.append((name, step, sim.now))
            yield 0 if step == 0 else 1

    sim.process(worker("before"))
    schedule_block(sim, worker)
    sim.process(worker("after"))
    sim.run()
    return log, sim.scheduled_events


def _bootstraps(sim, worker):
    """The reference block: bootstraps back to back, one of which (``idle``)
    only parks."""
    def idle():
        yield sim.event()

    for name in ("a", "b"):
        sim.process(worker(name))
    sim.process(idle())
    sim.process(worker("c"))


def _started_now(sim, worker):
    """One event in the block's place starts the block's workers on the
    spot, leaving out the one that would only park."""
    boot = sim.event()
    boot.callbacks.append(
        lambda _boot: [sim._start_now(worker(name)) for name in ("a", "b", "c")])
    boot.succeed()


def test_start_now_keeps_the_order_of_the_bootstraps_it_stands_for():
    """``Simulator._start_now`` run from one event gives every same-instant
    event the order the block of bootstraps gave; only the three dropped
    bootstraps are missing from the event count."""
    reference, reference_events = _fold_trace(_bootstraps)
    folded, events = _fold_trace(_started_now)
    assert folded == reference
    assert [entry[0] for entry in folded[:5]] == ["before", "a", "b", "c", "after"]
    assert reference_events - events == 3


# ---------------------------------------------------------------------------
# Interrupt during a resource wait
# ---------------------------------------------------------------------------

def test_interrupt_during_resource_wait_detaches_from_grant():
    """An interrupted waiter gets the Interrupt at the current time.  Its
    orphaned grant event still receives the slot on release (the historical
    semantics this suite locks): a third requester must wait for another
    release."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []

    def holder():
        yield resource.request()
        yield 50
        resource.release()

    def waiter():
        try:
            yield resource.request()
            log.append("granted")
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    def interrupter(target):
        yield 10
        target.interrupt("cancelled")

    def third():
        yield 20
        yield resource.request()
        log.append(("third", sim.now))
        resource.release()

    sim.process(holder())
    target = sim.process(waiter())
    sim.process(interrupter(target))
    sim.process(third())
    sim.run(until=200)
    assert ("interrupted", 10.0, "cancelled") in log
    assert "granted" not in log
    # The slot released at t=50 goes to the orphaned event of the interrupted
    # waiter, so the third requester never acquires it.
    assert not any(entry[0] == "third" for entry in log)
    assert resource.users == 1


# ---------------------------------------------------------------------------
# The waiter slot: the first process to yield an event with no callbacks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("before", [False, True])
def test_event_consumers_run_in_the_order_they_registered(before):
    """A process parked in the waiter slot runs before the callbacks
    registered after it; a callback registered before the process yields
    puts the process in the list behind it."""
    sim = Simulator()
    event = sim.event()
    log = []
    if before:
        event.callbacks.append(lambda _event: log.append("before"))

    def waiter():
        log.append(("resumed", (yield event)))

    sim.process(waiter())
    sim.run()  # the process parks on the event
    assert (event._waiter is None) == before
    event.callbacks.append(lambda _event: log.append("after"))
    event.succeed("v")
    sim.run()
    expected = [("resumed", "v"), "after"]
    assert log == (["before"] + expected if before else expected)


def test_an_event_nobody_lists_a_callback_on_never_allocates_a_list():
    """The callback list is made on the first append and dropped after
    dispatch: an event a process waits on in the waiter slot, a sleep's
    wake event, a process and a contended grant never hold a list."""
    sim = Simulator()
    gate = sim.event()
    resource = Resource(sim, capacity=1)
    seen = []

    def waiter():
        seen.append((yield gate))
        yield 1.0
        yield resource.request()
        seen.append((yield resource.request()))

    process = sim.process(waiter())
    sim.run()
    assert gate._waiter is process
    gate.succeed("v")
    sim.run()  # sleeps, takes the free slot and parks on the contended one
    grant = process._waiting_on
    assert grant._waiter is process
    resource.release()
    sim.run()
    assert seen == ["v", None]
    for event in (gate, process, process._wake, grant):
        assert event._callbacks is None
    listed = sim.event()
    listed.callbacks.append(lambda _event: seen.append("listed"))
    listed.succeed()
    sim.run()
    assert seen[-1] == "listed" and listed._callbacks is None


def test_interrupt_detaches_a_process_from_the_slot_and_from_the_list():
    """Interrupting the process in the waiter slot and the one behind it in
    the callback list leaves the event with no consumer: neither resumes
    when it fires, and each gets its Interrupt instead."""
    sim = Simulator()
    event = sim.event()
    log = []

    def waiter(name):
        try:
            yield event
            log.append((name, "resumed"))
        except Interrupt as interrupt:
            log.append((name, interrupt.cause, sim.now))

    first = sim.process(waiter("slot"))
    second = sim.process(waiter("list"))
    sim.run()
    assert event._waiter is first
    assert event.callbacks == [second._resume]
    first.interrupt("a")
    second.interrupt("b")
    assert event._waiter is None and event.callbacks == []
    sim.run()
    event.succeed()
    sim.run()
    assert log == [("slot", "a", 0.0), ("list", "b", 0.0)]


def test_a_second_interrupt_before_the_first_is_delivered_cuts_the_new_sleep():
    """Two interrupts at one instant: the first is delivered, and the
    process sleeps again; delivering the second detaches it from that new
    sleep, whose wake event then fires as a no-op.  Each interrupt makes
    the process sleep 10 us longer: it wakes at 1 + 30, not at 1 + 20."""
    sim = Simulator()
    log = []

    def sleeper():
        delay = 10
        while True:
            try:
                yield delay
            except Interrupt as interrupt:
                log.append((interrupt.cause, sim.now))
                delay += 10
            else:
                log.append(("woke", sim.now))
                return

    target = sim.process(sleeper())

    def interrupter():
        yield 1
        target.interrupt("first")
        target.interrupt("second")

    sim.process(interrupter())
    sim.run()
    assert log == [("first", 1.0), ("second", 1.0), ("woke", 31.0)]


def test_a_second_interrupt_before_the_first_is_delivered_cuts_the_new_wait():
    """The same for event waits: after the first interrupt the process waits
    on a second event, and the second interrupt detaches it from that one,
    so neither earlier event resumes it."""
    sim = Simulator()
    events = [sim.event().succeed(name, delay=at)
              for name, at in (("a", 10), ("b", 20), ("c", 30))]
    log = []

    def waiter():
        for event in events:
            try:
                value = yield event
            except Interrupt as interrupt:
                log.append((interrupt.cause, sim.now))
            else:
                log.append((value, sim.now))
                return

    target = sim.process(waiter())

    def interrupter():
        yield 1
        target.interrupt("first")
        target.interrupt("second")

    sim.process(interrupter())
    sim.run()
    assert log == [("first", 1.0), ("second", 1.0), ("c", 30.0)]
    assert all(event._waiter is None and event._callbacks is None for event in events)


def test_a_second_interrupt_detaches_the_relay_of_a_processed_event():
    """After the first interrupt the process yields an event that was
    already processed, so a relay is to resume it; the second interrupt
    detaches it from that relay, and the sleep it starts then runs its
    full 20 us."""
    sim = Simulator()
    done = sim.event().succeed("done")
    log = []

    def waiter():
        try:
            yield 10
        except Interrupt:
            try:
                yield done
            except Interrupt:
                value = yield 20
                log.append((value, sim.now))

    target = sim.process(waiter())

    def interrupter():
        yield 1
        target.interrupt()
        target.interrupt()

    sim.process(interrupter())
    sim.run()
    assert log == [(None, 21.0)]


def test_a_finished_process_nobody_yields_is_freed_without_the_collector():
    """No process is a reference cycle: once a ``sim.process`` that nobody
    yields has finished, reference counting frees it.  The process holds
    the only reference to its generator, so the generator's weak
    reference dies exactly when the process is freed."""
    sim = Simulator()

    def worker():
        yield 1

    generator = worker()
    alive = weakref.ref(generator)
    gc.collect()
    gc.disable()
    try:
        sim.process(generator)
        del generator
        sim.run()
        assert alive() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Joins with already-processed children
# ---------------------------------------------------------------------------

def test_all_of_with_already_processed_children_triggers_immediately():
    """A join over children that are all processed already succeeds at
    once, whatever its count."""
    sim = Simulator()
    first = sim.event().succeed("a", delay=1)
    second = sim.event().succeed("b", delay=2)
    sim.run()
    assert first.processed and second.processed

    seen = []

    def proc():
        for count in (None, 1):
            value = yield sim.join([first, second], count)
            seen.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [(2.0, None), (2.0, None)]


def test_join_count_ignores_already_processed_children():
    """A processed child does not count toward ``count``: a
    ``join(count=1)`` over it and a pending event waits for the pending
    one."""
    sim = Simulator()
    done = sim.event().succeed("ready", delay=1)
    sim.run()
    pending = sim.event()

    seen = []

    def proc():
        value = yield sim.join([pending, done], count=1)
        seen.append((sim.now, value))

    def trigger():
        yield 4
        pending.succeed("late")

    sim.process(proc())
    sim.process(trigger())
    sim.run()
    assert seen == [(5.0, None)]


def test_all_of_mixed_processed_and_pending_children():
    """A join over a processed child and a pending one waits for the
    pending one only."""
    sim = Simulator()
    done = sim.event().succeed("first", delay=1)
    sim.run()

    seen = []

    def proc():
        late = sim.event().succeed("second", delay=10)
        value = yield sim.join([done, late])
        seen.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [(11.0, None)]


# ---------------------------------------------------------------------------
# run(until=event) failure semantics
# ---------------------------------------------------------------------------

def test_run_until_failed_event_raises_when_unhandled():
    sim = Simulator()
    event = sim.event()

    def failer():
        yield 3
        event.fail(RuntimeError("exploded"))

    sim.process(failer())
    with pytest.raises(RuntimeError, match="exploded"):
        sim.run(until=event)


def test_run_until_failed_event_returns_exception_when_defused():
    sim = Simulator()
    event = sim.event()

    def failer():
        yield 3
        event.defuse()
        event.fail(RuntimeError("handled"))

    sim.process(failer())
    value = sim.run(until=event)
    assert isinstance(value, RuntimeError)
    assert str(value) == "handled"


@pytest.mark.parametrize("bad_delay", [-1.0, float("nan")])
@pytest.mark.parametrize("outcome", ["succeed", "fail"])
def test_rejected_delay_leaves_the_event_untouched(outcome, bad_delay):
    """A delay ``_schedule`` rejects must not mark the event triggered: a
    retry with a valid delay schedules it and runs its callbacks then."""
    sim = Simulator()
    event = sim.event()
    seen = []
    event.callbacks.append(lambda ev: seen.append((sim.now, ev.ok, ev.value)))

    def trigger(delay):
        if outcome == "succeed":
            return event.succeed("x", delay=delay)
        event.defuse()
        return event.fail(ValueError("late"), delay=delay)

    with pytest.raises(SimulationError, match="cannot schedule"):
        trigger(bad_delay)
    assert not event.triggered
    assert trigger(1.0) is event
    assert event.triggered
    sim.run()
    assert [(now, ok) for now, ok, _ in seen] == \
        [(1.0, outcome == "succeed")]
    if outcome == "succeed":
        assert seen[0][2] == "x"
    else:
        assert isinstance(seen[0][2], ValueError)


def test_run_until_event_never_triggered_raises():
    sim = Simulator()
    event = sim.event()
    sim.process(sleep_for(5))
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=event)


def test_run_until_failed_process_propagates_exception():
    sim = Simulator()

    def bad():
        yield 1
        raise ValueError("process died")

    process = sim.process(bad())
    with pytest.raises(ValueError, match="process died"):
        sim.run(until=process)


def sleep_for(delay):
    yield delay


# ---------------------------------------------------------------------------
# Pooling discipline: recycled objects never corrupt retained references
# ---------------------------------------------------------------------------

def _child(sim, delay, fail=False):
    yield delay
    if fail:
        raise ValueError("child failed")


def _pooled(sim, process):
    return any(pooled is process for pooled in sim._process_pool)


_DRIVES = {"run": Simulator.run, "slot_by_slot": run_slot_by_slot}


@pytest.mark.parametrize("drive", sorted(_DRIVES))
def test_join_recycles_only_pooled_children_it_alone_observed(drive):
    """A joined ``spawn_process`` child returns to the pool (in one run,
    and in a run stopped and resumed between wheel slots); a
    ``sim.process`` child, an ``AllOf``-held child and a failed child never
    do."""
    sim = Simulator()
    pooled = spawn_process(sim, _child(sim, 1))
    plain = sim.process(_child(sim, 1))
    held = spawn_process(sim, _child(sim, 2))
    failed = spawn_process(sim, _child(sim, 3, fail=True))
    caught = []

    def parent():
        yield sim.join([pooled, plain])
        yield AllOf(sim, [held])
        try:
            yield sim.join([failed])
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    _DRIVES[drive](sim)
    assert caught == ["child failed"]
    assert _pooled(sim, pooled)
    assert not _pooled(sim, plain)
    assert not _pooled(sim, held)
    assert not _pooled(sim, failed)


@pytest.mark.parametrize("drive", sorted(_DRIVES))
def test_unyielded_timeout_keeps_its_value_however_the_sim_is_driven(drive):
    """A pool-eligible object nobody waited on is never pooled: a
    ``spawn_process`` child held without yielding it keeps its value once
    it finishes at t=5, and the next spawned process is a new object, in
    one run and in a run stopped and resumed between wheel slots."""
    sim = Simulator()

    def child():
        yield 5
        return "a"

    held = spawn_process(sim, child())
    _DRIVES[drive](sim)
    later = spawn_process(sim, child())
    assert later is not held
    assert (held.value, held.processed, sim.now) == ("a", True, 5.0)


def test_join_keeps_no_reference_to_its_events():
    sim = Simulator()
    child = spawn_process(sim, _child(sim, 1))
    join = sim.join([child])
    assert gc.get_referents(join).count(child) == 0
    sim.run()
    assert join.processed and join.value is None


def test_mixed_workload_trace_matches_golden():
    """End-to-end determinism check: a workload mixing resource grants,
    timeouts, and zero-delay events keeps its recorded trace."""
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    trace = []

    def worker(label, delay):
        for i in range(5):
            yield resource.request()
            trace.append((sim.now, label, i))
            yield delay
            resource.release()
            yield 0

    for label, delay in (("a", 3.0), ("b", 2.0), ("c", 0.0), ("d", 1.5)):
        sim.process(worker(label, delay))
    sim.run()
    assert trace == [
        (0.0, "a", 0), (0.0, "b", 0), (2.0, "c", 0), (2.0, "d", 0),
        (3.0, "b", 1), (3.5, "c", 1), (3.5, "a", 1), (5.0, "d", 1),
        (6.5, "c", 2), (6.5, "b", 2), (6.5, "a", 2), (8.5, "d", 2),
        (9.5, "c", 3), (9.5, "b", 3), (10.0, "a", 3), (11.5, "c", 4),
        (11.5, "d", 3), (13.0, "b", 4), (13.0, "a", 4), (15.0, "d", 4)]


def test_horizon_and_time_tie_trace_matches_golden():
    """Randomized workload: colliding deadlines and zero-delay events,
    including exact time ties between a far-scheduled and a near-scheduled
    timeout for the same deadline.  The trace was recorded with a 50 us
    wheel horizon, so the 49.9/50.0/50.1 delays straddled a wheel-vs-heap
    boundary that no longer exists."""
    import random

    sim = Simulator()
    out = []

    def worker(wid):
        rng = random.Random(wid)
        for i in range(40):
            delay = rng.choice(
                [0.0, 0.5, 1.0, 1.0, 7.25, 49.9, 50.0, 50.1, 200.0])
            yield delay
            out.append((sim.now, wid, i))

    for wid in range(16):
        sim.process(worker(wid))
    sim.run()
    # The trace is 640 entries long, so its golden is the sha256 of its repr.
    assert len(out) == 16 * 40
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "2f778a1047c433f3992c7073a1b268e59858356bc108e20c5ea15ef9b765f8fd"


# ---------------------------------------------------------------------------
# Hot-path flattening: inline resource grants, batched token buckets, and
# pooled submission processes keep their recorded traces
# ---------------------------------------------------------------------------

def test_resource_grants_trace_identically_contended_and_uncontended():
    """The inline uncontended grant (no event allocation, no scheduler
    bounce) and the queued contended grant keep the recorded trace:
    phases of a single worker (always uncontended) alternate with phases
    of four workers fighting over two slots."""
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    trace = []

    def solo():
        for i in range(6):
            yield resource.request()
            trace.append(("solo", sim.now, i, resource.users,
                          resource.queue_length))
            yield 1.0
            resource.release()
            yield 9.0  # drain: next acquire is uncontended

    def crowd(label):
        yield 20.0  # overlap the middle solo phases
        for i in range(4):
            yield resource.request()
            trace.append((label, sim.now, i, resource.users,
                          resource.queue_length))
            yield 2.5
            resource.release()

    sim.process(solo())
    for label in ("w0", "w1", "w2", "w3"):
        sim.process(crowd(label))
    sim.run()
    assert trace == [
        ("solo", 0.0, 0, 1, 0), ("solo", 10.0, 1, 1, 0),
        ("w0", 20.0, 0, 2, 3), ("w1", 20.0, 0, 2, 3),
        ("w2", 22.5, 0, 2, 3), ("w3", 22.5, 0, 2, 3),
        ("solo", 25.0, 2, 2, 3), ("w0", 25.0, 1, 2, 3),
        ("w1", 26.0, 1, 2, 2), ("w2", 27.5, 1, 2, 2),
        ("w3", 28.5, 1, 2, 2), ("w0", 30.0, 2, 2, 2),
        ("w1", 31.0, 2, 2, 2), ("w2", 32.5, 2, 2, 2),
        ("w3", 33.5, 2, 2, 2), ("w0", 35.0, 3, 2, 3),
        ("w1", 36.0, 3, 2, 3), ("solo", 37.5, 3, 2, 2),
        ("w2", 38.5, 3, 2, 0), ("w3", 38.5, 3, 2, 0),
        ("solo", 47.5, 4, 1, 0), ("solo", 57.5, 5, 1, 0)]


def test_token_bucket_batched_grants_trace_identically():
    """`consume_sliced` collapses a fully-covered transfer into one grant
    and `consume` grants inline when uncontended; grant times keep the
    recorded trace.  The workload mixes covered amounts (batched single
    grant), amounts above capacity (forced multi-slice), and FIFO
    contention between workers."""
    from repro.sim.resources import TokenBucket

    sim = Simulator()
    bucket = TokenBucket(sim, rate=4.0, capacity=64.0)
    trace = []

    def consumer(label, amounts, start):
        yield start
        for i, amount in enumerate(amounts):
            if amount > 16.0:
                yield from bucket.consume_sliced(amount)
            else:
                yield bucket.consume(amount)
            trace.append((label, sim.now, i, round(bucket.tokens, 9)))

    # a: uncontended covered grants; b/c: contended, straddling
    # capacity (sliced) and sub-slice amounts interleaved FIFO.
    sim.process(consumer("a", [8.0, 8.0, 8.0], 0.0))
    sim.process(consumer("b", [48.0, 96.0], 5.0))
    sim.process(consumer("c", [4.0, 4.0, 120.0], 5.0))
    sim.run()
    assert trace == [
        ("a", 0.0, 0, 56.0), ("a", 0.0, 1, 48.0), ("a", 0.0, 2, 40.0),
        ("b", 5.0, 0, 8.0), ("c", 5.0, 0, 8.0), ("c", 20.0, 1, 0.0),
        ("b", 28.0, 1, 0.0), ("c", 58.0, 2, 0.0)]


def test_interrupted_resource_waiter_traces_identically():
    """Interrupting a queued waiter (cancel-while-waiting) keeps the
    recorded grant order and timestamps, including the slot that passes
    through the interrupted waiter's orphaned event."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    trace = []

    def holder():
        yield resource.request()
        trace.append(("holder", sim.now))
        yield 30.0
        resource.release()

    def waiter(label):
        try:
            yield resource.request()
            trace.append((label, sim.now))
            yield 5.0
            resource.release()
        except Interrupt as interrupt:
            trace.append((label, "interrupted", sim.now, interrupt.cause))

    def interrupter(target):
        yield 10.0
        target.interrupt("cancelled")

    sim.process(holder())
    target = sim.process(waiter("victim"))
    sim.process(waiter("survivor"))
    sim.process(interrupter(target))
    sim.run()
    assert trace == [("holder", 0.0),
                     ("victim", "interrupted", 10.0, "cancelled")]


def test_pooled_device_submissions_trace_identically_with_zero_delay_churn():
    """Device submissions ride pooled processes (``spawn_process``); heavy
    zero-delay churn around them must not perturb the recorded completion
    order or timestamps."""
    from repro.devices.loopback import LoopbackDevice

    sim = Simulator()
    device = LoopbackDevice(sim, capacity_bytes=1 << 20,
                            service_time_us=2.0, service_slots=2)
    trace = []

    def churn():
        for _ in range(64):
            yield 0

    def issuer(label, offset):
        for i in range(8):
            request = yield device.read(offset + i * 4096, 4096)
            trace.append((label, sim.now, i,
                          request.complete_time - request.submit_time))
            yield 0

    sim.process(churn())
    sim.process(issuer("x", 0))
    sim.process(issuer("y", 1 << 19))
    sim.process(churn())
    sim.run()
    assert trace == [
        ("x", 2.0, 0, 2.0), ("y", 2.0, 0, 2.0),
        ("x", 4.0, 1, 2.0), ("y", 4.0, 1, 2.0),
        ("x", 6.0, 2, 2.0), ("y", 6.0, 2, 2.0),
        ("x", 8.0, 3, 2.0), ("y", 8.0, 3, 2.0),
        ("x", 10.0, 4, 2.0), ("y", 10.0, 4, 2.0),
        ("x", 12.0, 5, 2.0), ("y", 12.0, 5, 2.0),
        ("x", 14.0, 6, 2.0), ("y", 14.0, 6, 2.0),
        ("x", 16.0, 7, 2.0), ("y", 16.0, 7, 2.0)]
    assert (device.stats.reads_completed, device.stats.bytes_read) == \
        (16, 65536)


# ---------------------------------------------------------------------------
# Pooled fan-out behind join keeps the event order of sim.process + AllOf
# ---------------------------------------------------------------------------

def _reference_fan_out(sim, children):
    """The fan-out every per-I/O site used before ``join`` (verbatim shape
    of ``Ftl.read_slots``): fresh processes joined by ``AllOf``."""
    reads = []
    for child in children:
        reads.append(sim.process(child))
    yield AllOf(sim, reads)


def _pooled_fan_out(sim, children):
    """The fan-out the sites use now."""
    yield sim.join([spawn_process(sim, child) for child in children])


def _fan_out_trace(fan_out, parents, slots):
    """Run ``parents`` -- (start delay, child delays) each -- whose children
    contend for one shared ``Resource``; return the resumption trace and
    the events scheduled."""
    sim = Simulator()
    shared = Resource(sim, capacity=slots)
    trace = []

    def child(tag, delay):
        yield shared.request()
        try:
            yield delay
        finally:
            shared.release()
        trace.append(("child", tag, sim.now))
        return tag

    def parent(index, start, delays):
        yield start
        yield from fan_out(sim, [child((index, k), delay)
                                 for k, delay in enumerate(delays)])
        trace.append(("parent", index, sim.now))
        yield 0
        trace.append(("after", index, sim.now))

    for index, (start, delays) in enumerate(parents):
        sim.process(parent(index, start, delays))
    sim.run()
    return trace, sim.scheduled_events


_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(parents=st.lists(st.tuples(_DELAYS, st.lists(_DELAYS, max_size=5)),
                        min_size=1, max_size=6),
       slots=st.integers(min_value=1, max_value=3))
def test_pooled_join_fan_out_traces_like_process_all_of(parents, slots):
    """Random fan-outs (child counts, same-time ties, contention on a
    shared resource) resume every parent and child at the same time and in
    the same order, and schedule the same number of events, either way."""
    assert _fan_out_trace(_pooled_fan_out, parents, slots) == \
        _fan_out_trace(_reference_fan_out, parents, slots)
