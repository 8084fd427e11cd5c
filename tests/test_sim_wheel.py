"""Timer-wheel edge cases.

The wheel buckets near-future deadlines in exact-deadline slots and moves
a whole slot onto the immediate deque when the clock reaches it; far-future
deadlines cascade straight to the heap.  These tests pin the corners of
that design: timeouts cancelled (interrupted) while they sit on the wheel,
the slot-vs-heap cascade at the horizon boundary, interleaving with
zero-delay FIFO events, and the schedule-introspection helpers.  Expected
traces were recorded when the heap-only and pre-wheel kernels still
existed and agreed with the wheel on every one of them.  Tests that need a
small horizon narrow the private ``_wheel_gate`` directly.
"""

import pytest

from repro.sim import Interrupt, Simulator
from repro.sim.engine import DEFAULT_WHEEL_HORIZON_US, EmptySchedule


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
                yield sim.timeout(10.0)
                log.append((sim.now, label, "woke"))
            except Interrupt as interrupt:
                log.append((sim.now, label, f"interrupted:{interrupt.cause}"))
                yield sim.timeout(10.0)
                log.append((sim.now, label, "woke-late"))

        victims = [sim.process(sleeper(label)) for label in "abc"]

        def canceller():
            yield sim.timeout(4.0)
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
        yield sim.timeout(5.0)

    process = sim.process(sleeper())
    sim.run(until=1.0)
    process.interrupt()
    with pytest.raises(Interrupt):  # uncaught interrupt surfaces from run()
        sim.run()
    # The orphaned timeout still sits in its slot; a follow-up run drains
    # it as a harmless no-op instead of wedging the schedule.
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0 and sim.now == 5.0


# ---------------------------------------------------------------------------
# Horizon boundary: wheel slots vs heap cascade
# ---------------------------------------------------------------------------

def test_delays_beyond_the_horizon_cascade_to_the_heap():
    sim = Simulator()
    sim._wheel_gate = 100.0
    sim.timeout(100.0)   # at the horizon: wheel slot
    sim.timeout(100.0)   # same deadline: same slot, no new slot time
    sim.timeout(100.1)   # beyond: straight to the heap
    assert len(sim._wheel_times) == 1
    assert len(sim._wheel_buckets[100.0]) == 2
    assert len(sim._queue) == 1
    assert sim.pending_events == 3
    assert sim.peek() == 100.0


def test_wheel_and_heap_entries_at_the_same_deadline_merge_by_sequence():
    """The same absolute deadline can be reached from the heap (scheduled
    when it was beyond the horizon) and from a wheel slot (scheduled
    closer in); processing must follow scheduling order exactly."""
    def workload(sim):
        log = []

        def waiter(label, start, delay):
            yield sim.timeout(start)
            yield sim.timeout(delay)
            log.append((sim.now, label))
            yield sim.timeout(0)
            log.append((sim.now, label + "-relay"))

        # Both reach t=200: "far" schedules 200 out at t=0 (heap), "near"
        # schedules 50 out at t=150 (wheel slot).
        sim.process(waiter("far", 0.0, 200.0))
        sim.process(waiter("near", 150.0, 50.0))
        sim.run()
        return log

    sim = Simulator()
    sim._wheel_gate = 100.0
    assert workload(sim) == [(200.0, "far"), (200.0, "near"),
                             (200.0, "far-relay"), (200.0, "near-relay")]


def test_far_delay_rounded_onto_an_earlier_slot_deadline_runs_after_it():
    """At a large clock, a delay just past the horizon can round to the
    deadline of a wheel slot scheduled before it.  The slot entry has the
    smaller sequence number, so it runs first."""
    sim = Simulator(start_time=float(2 ** 40))
    log = []
    near = sim.timeout(DEFAULT_WHEEL_HORIZON_US, value="near")
    far = sim.timeout(DEFAULT_WHEEL_HORIZON_US + 1e-4, value="far")
    assert sim._queue[0][0] == sim._wheel_times[0]
    for event in (near, far):
        event.callbacks.append(lambda ev: log.append(ev.value))
    sim.run()
    assert log == ["near", "far"]


def test_default_horizon_is_generous_but_finite():
    sim = Simulator()
    sim.timeout(DEFAULT_WHEEL_HORIZON_US)
    sim.timeout(DEFAULT_WHEEL_HORIZON_US * 2)
    assert len(sim._wheel_times) == 1 and len(sim._queue) == 1


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
            yield sim.timeout(delay)
            log.append((sim.now, label))
            yield sim.timeout(0)
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
            tiny = sim.timeout(1e-9, value="tiny")   # 2**40 + 1e-9 == 2**40
            zero = sim.timeout(0.0, value="zero")
            for event in (tiny, zero):
                event.callbacks.append(
                    lambda ev: order.append(ev.value))
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        return order

    assert workload(Simulator(start_time=float(2 ** 40))) == ["tiny", "zero"]


def test_run_until_time_stops_between_wheel_slots():
    sim = Simulator()
    hits = []

    def ticker():
        for _ in range(5):
            yield sim.timeout(3.0)
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
    marker = sim.timeout(5.0, value="ding")
    sim.timeout(5.0)
    sim.timeout(9.0)
    assert sim.run(until=marker) == "ding"
    assert sim.now == 5.0


def test_step_through_wheel_slots_matches_run():
    def workload(sim, step):
        log = []

        def ticker(label, delay):
            for i in range(3):
                yield sim.timeout(delay)
                log.append((sim.now, label, i))

        for label, delay in (("a", 2.0), ("b", 2.0), ("c", 3.0)):
            sim.process(ticker(label, delay))
        if step:
            while True:
                try:
                    sim.step()
                except EmptySchedule:
                    break
        else:
            sim.run()
        return log

    assert workload(Simulator(), step=True) == \
        workload(Simulator(), step=False)
