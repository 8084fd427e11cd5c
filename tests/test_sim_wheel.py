"""Timer-wheel edge cases.

The kernel has two schedules: a FIFO deque for the current instant and a
timer wheel that buckets every later deadline in an exact-deadline slot,
moving a whole slot onto the deque when the clock reaches it.  These tests
pin the corners of that design: timeouts cancelled (interrupted) while
they sit on the wheel, deadlines reached from delays scheduled at
different times, interleaving with zero-delay FIFO events, ``peek`` and
``run(until=...)``, and -- as a property -- the event order of one heap
keyed ``(time, sequence)``, whether one ``run`` call drains the schedule or
``run(until=sim.peek())`` takes it one wheel slot at a time.  Expected
traces were recorded when the heap-only and pre-wheel kernels still
existed and agreed with the wheel on every one of them.
"""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Resource, Simulator


def run_slot_by_slot(sim):
    """Drain the schedule one instant (the deque, then each wheel slot) per
    ``run`` call, stopping and resuming the kernel between slots."""
    while sim.peek() != math.inf:
        sim.run(until=sim.peek())


# ---------------------------------------------------------------------------
# Cancellation while on the wheel
# ---------------------------------------------------------------------------

def test_timeout_cancelled_while_on_the_wheel_fires_harmlessly():
    """Interrupting a process detaches it from the timeout it waits on; the
    timeout stays scheduled in its wheel slot and must fire as a no-op
    without perturbing the ordering of its slot neighbours."""
    def workload(sim):
        log = []

        def sleeper(label):
            try:
                yield 10.0
                log.append((sim.now, label, "woke"))
            except Interrupt as interrupt:
                log.append((sim.now, label, f"interrupted:{interrupt.cause}"))
                yield 10.0
                log.append((sim.now, label, "woke-late"))

        victims = [sim.process(sleeper(label)) for label in "abc"]

        def canceller():
            yield 4.0
            victims[1].interrupt("cancel")

        sim.process(canceller())
        sim.run()
        return log

    # The uncancelled slot neighbours still fire at the original deadline.
    assert workload(Simulator()) == [
        (4.0, "b", "interrupted:cancel"), (10.0, "a", "woke"),
        (10.0, "c", "woke"), (14.0, "b", "woke-late")]


def test_cancelled_slot_timeout_does_not_block_run_completion():
    """A wheel slot whose only entry lost its callbacks must still drain."""
    sim = Simulator()

    def sleeper():
        yield 5.0

    process = sim.process(sleeper())
    sim.run(until=1.0)
    process.interrupt()
    with pytest.raises(Interrupt):  # uncaught interrupt surfaces from run()
        sim.run()
    # The orphaned timeout still sits in its slot; a follow-up run drains
    # it as a harmless no-op instead of wedging the schedule.
    assert sim.peek() == 5.0
    sim.run()
    assert sim.peek() == math.inf and sim.now == 5.0


def test_an_interrupted_sleeper_is_not_woken_by_its_old_wake():
    """An interrupt leaves the sleep's wake event on the wheel.  A process
    that sleeps again before that deadline gets a fresh wake event (so the
    old one does not resume it early), and one that sleeps past it is not
    resumed by it either."""
    sim = Simulator()
    log = []

    def sleeper():
        for delay in (10.0, 10.0):
            try:
                yield delay
                log.append((sim.now, "woke"))
            except Interrupt:
                log.append((sim.now, "interrupted"))
                yield 3.0  # before the old deadline: a fresh wake event
                log.append((sim.now, "short"))
                yield 20.0  # past the old deadline: the same event again
                log.append((sim.now, "long"))

    target = sim.process(sleeper())

    def interrupter():
        yield 4.0  # the first sleep was due at 10
        target.interrupt()
        yield 26.0  # the second sleep, from 27, was due at 37
        target.interrupt()

    sim.process(interrupter())
    sim.run()
    assert log == [(4.0, "interrupted"), (7.0, "short"), (27.0, "long"),
                   (30.0, "interrupted"), (33.0, "short"), (53.0, "long")]


# ---------------------------------------------------------------------------
# One deadline reached from delays scheduled at different times
# ---------------------------------------------------------------------------

def test_wheel_and_heap_entries_at_the_same_deadline_merge_by_sequence():
    """The same absolute deadline can be reached from a far delay
    scheduled early and a near one scheduled later (the trace was recorded
    when the far one sat on a separate heap); processing must follow
    scheduling order exactly."""
    def workload(sim):
        log = []

        def waiter(label, start, delay):
            yield start
            yield delay
            log.append((sim.now, label))
            yield 0
            log.append((sim.now, label + "-relay"))

        # Both reach t=200: "far" schedules 200 out at t=0, "near"
        # schedules 50 out at t=150.
        sim.process(waiter("far", 0.0, 200.0))
        sim.process(waiter("near", 150.0, 50.0))
        sim.run()
        return log

    assert workload(Simulator()) == [
        (200.0, "far"), (200.0, "near"),
        (200.0, "far-relay"), (200.0, "near-relay")]


def test_far_delay_rounded_onto_an_earlier_slot_deadline_runs_after_it():
    """At a large clock, a longer delay can round to the deadline of a
    shorter one scheduled before it.  The earlier timeout has the smaller
    sequence number, so it runs first."""
    sim = Simulator(start_time=float(2 ** 40))
    log = []
    near = sim.event().succeed("near", delay=65536.0)
    far = sim.event().succeed("far", delay=65536.0 + 1e-4)
    assert sim._wheel_times == [2 ** 40 + 65536.0]  # one shared deadline
    for event in (near, far):
        event.callbacks.append(lambda ev: log.append(ev.value))
    sim.run()
    assert log == ["near", "far"]


# ---------------------------------------------------------------------------
# Zero-delay FIFO interleaving
# ---------------------------------------------------------------------------

def test_slot_batch_preserves_fifo_against_zero_delay_events():
    """When a slot's deadline arrives, its entries must run before any
    zero-delay event scheduled *by* them, but after zero-delay events of a
    same-time heap dispatch that preceded the slot by sequence number."""
    def workload(sim):
        log = []

        def ticker(label, delay):
            yield delay
            log.append((sim.now, label))
            yield 0
            log.append((sim.now, label + "-echo"))

        for index in range(4):
            sim.process(ticker(f"t{index}", 7.0))
        sim.run()
        return log

    # All four timeouts share one slot and fire in creation order, then the
    # zero-delay echoes follow in the same order.
    assert workload(Simulator()) == [
        (7.0, "t0"), (7.0, "t1"), (7.0, "t2"), (7.0, "t3"),
        (7.0, "t0-echo"), (7.0, "t1-echo"), (7.0, "t2-echo"),
        (7.0, "t3-echo")]


def test_sub_resolution_delay_at_large_clock_keeps_sequence_order():
    """A positive delay below the clock's float resolution rounds to
    ``now``; it must still fire before later-scheduled zero-delay events
    (regression: the wheel parked it in a slot keyed at the current time,
    which the deque overtook)."""
    def workload(sim):
        order = []

        def proc():
            tiny = sim.event().succeed("tiny", delay=1e-9)  # 2**40 + 1e-9 == 2**40
            zero = sim.event().succeed("zero", delay=0.0)
            for event in (tiny, zero):
                event.callbacks.append(
                    lambda ev: order.append(ev.value))
            yield 1.0

        sim.process(proc())
        sim.run()
        return order

    assert workload(Simulator(start_time=float(2 ** 40))) == ["tiny", "zero"]


def test_run_until_time_stops_between_wheel_slots():
    sim = Simulator()
    hits = []

    def ticker():
        for _ in range(5):
            yield 3.0
            hits.append(sim.now)

    sim.process(ticker())
    sim.run(until=7.5)
    assert hits == [3.0, 6.0]
    assert sim.now == 7.5
    assert sim.peek() == 9.0
    sim.run()
    assert hits == [3.0, 6.0, 9.0, 12.0, 15.0]


def test_run_until_event_sitting_on_the_wheel():
    sim = Simulator()
    marker = sim.event().succeed("ding", delay=5.0)
    sim.event().succeed(delay=5.0)
    sim.event().succeed(delay=9.0)
    assert sim.run(until=marker) == "ding"
    assert sim.now == 5.0


def test_step_through_wheel_slots_matches_run():
    def workload(sim, by_slot):
        log = []

        def ticker(label, delay):
            for i in range(3):
                yield delay
                log.append((sim.now, label, i))

        for label, delay in (("a", 2.0), ("b", 2.0), ("c", 3.0)):
            sim.process(ticker(label, delay))
        if by_slot:
            run_slot_by_slot(sim)
        else:
            sim.run()
        return log

    assert workload(Simulator(), by_slot=True) == \
        workload(Simulator(), by_slot=False)


# ---------------------------------------------------------------------------
# Property: the deque + wheel order is the order of one heap
# ---------------------------------------------------------------------------

def _heap_reference(start_time, plans):
    """Resumption log of ``plans`` (one list of delays per process) under
    one heap keyed ``(now + delay, sequence)``, taking sequence numbers
    where the kernel does: one per process bootstrap, one per step that
    waits ``delay``, one per process completion.  Returns the log and the
    count of sequence numbers taken."""
    heap = []
    sequence = 0

    def schedule(time, pid, step):
        nonlocal sequence
        sequence += 1
        heapq.heappush(heap, (time, sequence, pid, step))

    for pid in range(len(plans)):
        schedule(start_time, pid, 0)
    log = []
    while heap:
        now, _seq, pid, step = heapq.heappop(heap)
        if step is None:  # a completion: nobody waits on it
            continue
        if step > 0:
            log.append((now, pid, step - 1))
        delays = plans[pid]
        if step < len(delays):
            schedule(now + delays[step], pid, step + 1)
        else:
            schedule(now, pid, None)
    return log, sequence


def _kernel_log(start_time, plans, drive):
    """Run ``plans`` -- one list of ``(form, delay)`` steps per process --
    on the kernel.  A step sleeps (``int`` or ``float``), takes a free or a
    contended grant of the process's own one-slot resource (delay 0), or
    waits on a delayed event; the step's resume value is checked too."""
    sim = Simulator(start_time=start_time)
    log = []

    def proc(pid, steps):
        resource = Resource(sim, capacity=1)
        for index, (form, delay) in enumerate(steps):
            if form == "int":
                value, expected = (yield int(delay)), None
            elif form == "float":
                value, expected = (yield float(delay)), None
            elif form == "delayed":
                value = yield sim.event().succeed(index, delay=delay)
                expected = index
            elif form == "free" or not resource.users:
                if resource.users:
                    resource.release()
                value, expected = (yield resource.request()), None
            else:  # contended: the process holds the slot and hands it on
                grant = resource.request()
                resource.release()
                value, expected = (yield grant), None
            assert value is expected
            log.append((sim.now, pid, index))

    for pid, steps in enumerate(plans):
        sim.process(proc(pid, steps))
    drive(sim)
    return log, sim.scheduled_events


_PROPERTY_DELAYS = [0.0, 1e-9, 0.5, 1.0, 7.25, 49.9, 50.0, 65536.0,
                    65536.0001, 1e5, 1e6]
_PROPERTY_STEPS = st.one_of(
    st.tuples(st.just("int"), st.sampled_from([0, 1, 50, 65536, 100000])),
    st.tuples(st.sampled_from(["float", "delayed"]),
              st.sampled_from(_PROPERTY_DELAYS)),
    st.tuples(st.sampled_from(["free", "contended"]), st.just(0.0)))


@settings(max_examples=200, deadline=None)
@given(plans=st.lists(st.lists(_PROPERTY_STEPS, max_size=12),
                      min_size=1, max_size=8),
       start_time=st.sampled_from([0.0, float(2 ** 40)]))
def test_schedule_order_matches_a_single_heap(plans, start_time):
    """Zero, sub-resolution, near, far and colliding deadlines, at a small
    and a large clock, reached by every yield form (int and float sleeps,
    free and contended grants, delayed events): the kernel resumes every
    process at the same time and in the same order as one heap holding
    every event, whether one ``run`` call or ``run(until=sim.peek())``
    slot by slot drives it."""
    expected = _heap_reference(
        start_time, [[delay for _form, delay in steps] for steps in plans])
    assert _kernel_log(start_time, plans, Simulator.run) == expected
    assert _kernel_log(start_time, plans, run_slot_by_slot) == expected
