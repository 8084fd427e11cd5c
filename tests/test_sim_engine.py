"""Tests for the discrete-event simulation kernel (events, processes, run loop)."""

import math

import pytest

from repro.sim import Simulator
from repro.sim.events import Interrupt, SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() == math.inf


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(12.5)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [12.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_nan_delays_rejected():
    """``delay < 0`` is false for NaN, so a NaN delay needs its own check:
    accepted, it would set the clock to NaN."""
    sim = Simulator()
    nan = float("nan")
    with pytest.raises(ValueError):
        sim.timeout(nan)
    sim.process(iter_timeout(sim, 1))
    sim.run()
    assert sim._timeout_pool  # the next timeout would be a pooled one
    with pytest.raises(ValueError):
        sim.timeout(nan)
    with pytest.raises(SimulationError):
        sim.event().succeed(delay=nan)
    assert sim.peek() == math.inf
    sim.run()
    assert sim.now == 1.0


def test_timeout_carries_value():
    sim = Simulator()
    results = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        results.append(value)

    sim.process(proc())
    sim.run()
    assert results == ["payload"]


def test_events_process_in_time_order():
    sim = Simulator()
    order = []

    def proc(delay, label):
        yield sim.timeout(delay)
        order.append(label)

    sim.process(proc(30, "c"))
    sim.process(proc(10, "a"))
    sim.process(proc(20, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(label):
        yield sim.timeout(5)
        order.append(label)

    for label in "abcd":
        sim.process(proc(label))
    sim.run()
    assert order == list("abcd")


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(3)
        return 42

    def parent(results):
        value = yield sim.process(child())
        results.append(value)

    results = []
    sim.process(parent(results))
    sim.run()
    assert results == [42]


def test_event_succeed_delivers_value():
    sim = Simulator()
    gate = sim.event()
    results = []

    def waiter():
        value = yield gate
        results.append((sim.now, value))

    def trigger():
        yield sim.timeout(7)
        gate.succeed("go")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert results == [(7.0, "go")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_failure_propagates_into_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    gate.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("broken")

    sim.process(bad())
    with pytest.raises(ValueError, match="broken"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 5

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_all_of_waits_for_every_event():
    """By default a join waits for all of its events."""
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.join([sim.timeout(5), sim.timeout(9)])
        seen.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [(9.0, None)]


def test_any_of_fires_on_first_event():
    """``join(count=1)`` succeeds on the first of its events."""
    sim = Simulator()
    times = []

    def proc():
        yield sim.join([sim.timeout(5), sim.timeout(9)], count=1)
        times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [5.0]


def test_all_of_empty_triggers_immediately():
    """A join of nothing succeeds at once, whatever count it asks for
    (the count is capped at the number of pending events)."""
    sim = Simulator()
    done = []

    def proc():
        for count in (None, 0, 1, 3):
            yield sim.join([], count)
            done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [0.0] * 4


def test_join_of_nothing_succeeds_at_once():
    sim = Simulator()
    done = []

    def proc():
        value = yield sim.join([])
        done.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert done == [(0.0, None)]


def test_join_counts_only_unprocessed_events():
    sim = Simulator()
    early = sim.event()
    early.succeed("early")
    done = []

    def proc():
        yield sim.timeout(1)
        # ``early`` is processed by now: only the timeout is waited for.
        value = yield sim.join([early, sim.timeout(4)])
        done.append((sim.now, value))
        value = yield sim.join([early])
        done.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert done == [(5.0, None), (5.0, None)]


def test_join_fails_with_a_failing_child_and_ignores_later_ones():
    sim = Simulator()
    caught = []

    def bad():
        yield sim.timeout(2)
        raise ValueError("boom")

    def good():
        yield sim.timeout(5)
        return "late"

    def proc():
        failing = sim.process(bad())
        late = sim.process(good())
        join = sim.join([failing, late])
        try:
            yield join
        except ValueError as exc:
            caught.append((sim.now, str(exc), failing._defused))
        yield late
        caught.append((sim.now, join.ok, str(join.value)))

    sim.process(proc())
    sim.run()  # the failure was defused by the join, so nothing re-raises
    assert caught == [(2.0, "boom", True), (5.0, False, "boom")]


def test_join_rejects_non_events():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.join([sim.timeout(1), 5])


def test_join_rejects_a_negative_count():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.join([sim.timeout(1)], count=-1)


def test_run_until_time_stops_early():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(10):
            yield sim.timeout(10)
            seen.append(sim.now)

    sim.process(proc())
    sim.run(until=35)
    assert seen == [10.0, 20.0, 30.0]
    assert sim.now == 35


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(4)
        return "done"

    process = sim.process(proc())
    assert sim.run(until=process) == "done"


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.process(iter_timeout(sim, 10))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=5)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_interrupt_wakes_waiting_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1000)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def interrupter(target):
        yield sim.timeout(10)
        target.interrupt("wake up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(10.0, "wake up")]


def test_interrupting_finished_process_is_an_error():
    sim = Simulator()
    process = sim.process(iter_timeout(sim, 1))
    sim.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.process(iter_timeout(sim, 42))
    # The process bootstrap event is at time 0.
    assert sim.peek() == 0.0
