"""Tests for the discrete-event simulation kernel (events, processes, run loop)."""

import math

import pytest

from repro.sim import Resource, Simulator, TokenBucket
from repro.sim.events import Interrupt, SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() == math.inf


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield 12.5
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [12.5]


def test_negative_timeout_rejected():
    """A negative sleep raises inside the process that yielded it."""
    sim = Simulator()

    def proc():
        yield -1.0

    sim.process(proc())
    with pytest.raises(SimulationError, match="negative or NaN delay"):
        sim.run()
    assert sim.now == 0.0


def test_nan_delays_rejected():
    """``delay < 0`` is false for NaN, so a NaN delay needs its own check:
    accepted, it would set the clock to NaN.  The first sleep makes the
    process's wake event and the second reuses it; both reject NaN."""
    sim = Simulator()
    nan = float("nan")
    caught = []

    def proc():
        for _ in range(2):
            try:
                yield nan
            except SimulationError:
                caught.append(sim.now)
            yield 1

    sim.process(proc())
    sim.run()
    assert caught == [0.0, 1.0]
    with pytest.raises(SimulationError):
        sim.event().succeed(delay=nan)
    assert sim.peek() == math.inf
    sim.run()
    assert sim.now == 2.0


def test_timeout_carries_value():
    """A delayed event carries its value to the process that yields it."""
    sim = Simulator()
    results = []

    def proc():
        value = yield sim.event().succeed("payload", delay=1.0)
        results.append(value)

    sim.process(proc())
    sim.run()
    assert results == ["payload"]


def test_events_process_in_time_order():
    sim = Simulator()
    order = []

    def proc(delay, label):
        yield delay
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
        yield 5
        order.append(label)

    for label in "abcd":
        sim.process(proc(label))
    sim.run()
    assert order == list("abcd")


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield 3
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
        yield 7
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
        yield 1
        raise ValueError("broken")

    sim.process(bad())
    with pytest.raises(ValueError, match="broken"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield "5"

    sim.process(bad())
    with pytest.raises(SimulationError, match="expected an event or a delay"):
        sim.run()


def test_yielding_a_number_sleeps_that_many_microseconds():
    sim = Simulator()
    seen = []

    def sleeper():
        value = yield 5
        seen.append((sim.now, value))

    sim.process(sleeper())
    sim.run()
    assert seen == [(5.0, None)]


@pytest.mark.parametrize("bad", [-1, -0.5, float("nan"), True, False, None,
                                 "5", object()])
def test_a_bad_yield_raises_inside_the_process(bad):
    """A negative, NaN or bool delay, or anything that is neither an event
    nor a number, raises SimulationError where the process yielded it, at
    the current time; the process may catch it and go on."""
    sim = Simulator()
    log = []

    def proc():
        yield 2
        try:
            yield bad
        except SimulationError as error:
            log.append((sim.now, type(error)))
        yield 3
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [(2.0, SimulationError), 5.0]


def _yield_forms(sim):
    """Each yield form, the time it resumes the process after (from t=10)
    and the value it sends."""
    resource = Resource(sim, capacity=1)
    bucket = TokenBucket(sim, rate=1.0, capacity=4.0)
    done = sim.event()
    done.succeed("early")

    def contended_grant():
        assert (yield resource.request()) is None  # free: a zero sleep
        grant = resource.request()
        release = sim.event().succeed(delay=2)
        release.callbacks.append(lambda _event: resource.release())
        return grant

    def contended_tokens():
        assert (yield bucket.consume(4.0)) is None  # the bucket is full
        return bucket.consume(4.0)  # and now empty: 4 us at 1 token/us

    return {
        "int": (lambda: 3, 13.0, None),
        "float": (lambda: 2.5, 12.5, None),
        "zero": (lambda: 0, 10.0, None),
        "free-grant": (resource.request, 10.0, None),
        "free-tokens": (lambda: bucket.consume(0), 10.0, None),
        "contended-tokens": (contended_tokens, 14.0, None),
        "delayed-event": (lambda: sim.event().succeed("v", delay=1), 11.0, "v"),
        "processed-event": (lambda: done, 10.0, "early"),
        "process": (lambda: sim.process(sleep_for(1.5)), 11.5, None),
        "contended-grant": (contended_grant, 12.0, None),
    }


@pytest.mark.parametrize("path", ["waiter-slot", "callback-list"])
@pytest.mark.parametrize("form", ["int", "float", "zero", "free-grant",
                                  "free-tokens", "contended-tokens",
                                  "delayed-event", "processed-event",
                                  "process", "contended-grant"])
def test_every_yield_form_works_after_either_resume_path(form, path):
    """The process yields each form after a resume from the event's
    waiter slot, and after one from its callback list (a callback was
    listed first, so the process joined the list behind it)."""
    sim = Simulator()
    gate = sim.event()
    if path == "callback-list":
        gate.callbacks.append(lambda _event: None)
    seen = []

    def proc():
        yield gate
        make, _at, _value = forms[form]
        target = make()
        if hasattr(target, "__next__"):  # a contended form's set-up
            target = yield from target
        value = yield target
        seen.append((sim.now, value))

    forms = _yield_forms(sim)
    sim.process(proc())
    sim.run()  # the process parks on the gate
    assert (gate._waiter is None) == (path == "callback-list")
    gate.succeed(delay=10)
    sim.run()
    _make, at, value = forms[form]
    assert seen == [(at, value)]


def test_all_of_waits_for_every_event():
    """By default a join waits for all of its events."""
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.join([sim.event().succeed(delay=5),
                                sim.event().succeed(delay=9)])
        seen.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [(9.0, None)]


def test_any_of_fires_on_first_event():
    """``join(count=1)`` succeeds on the first of its events."""
    sim = Simulator()
    times = []

    def proc():
        yield sim.join([sim.event().succeed(delay=5),
                        sim.event().succeed(delay=9)], count=1)
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
        yield 1
        # ``early`` is processed by now: only the delayed event is waited for.
        value = yield sim.join([early, sim.event().succeed(delay=4)])
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
        yield 2
        raise ValueError("boom")

    def good():
        yield 5
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
        sim.join([sim.event(), 5])


def test_join_rejects_a_negative_count():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.join([sim.event()], count=-1)


def test_run_until_time_stops_early():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(10):
            yield 10
            seen.append(sim.now)

    sim.process(proc())
    sim.run(until=35)
    assert seen == [10.0, 20.0, 30.0]
    assert sim.now == 35


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc():
        yield 4
        return "done"

    process = sim.process(proc())
    assert sim.run(until=process) == "done"


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.process(sleep_for(10))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=5)


def sleep_for(delay):
    yield delay


def test_interrupt_wakes_waiting_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 1000
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def interrupter(target):
        yield 10
        target.interrupt("wake up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(10.0, "wake up")]


def test_interrupting_finished_process_is_an_error():
    sim = Simulator()
    process = sim.process(sleep_for(1))
    sim.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.process(sleep_for(42))
    # The process bootstrap event is at time 0.
    assert sim.peek() == 0.0
