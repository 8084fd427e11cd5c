"""Tests for Resource and TokenBucket, including property-based checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, TokenBucket


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_limits_concurrency():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    active = []
    peak = []

    def user(hold):
        yield resource.request()
        active.append(1)
        peak.append(len(active))
        yield hold
        active.pop()
        resource.release()

    for _ in range(6):
        sim.process(user(10))
    sim.run()
    assert max(peak) == 2
    assert resource.users == 0


def test_resource_fifo_ordering():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def user(label):
        yield resource.request()
        order.append(label)
        yield 1
        resource.release()

    for label in "abcde":
        sim.process(user(label))
    sim.run()
    assert order == list("abcde")


def test_resource_release_without_request_fails():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        resource.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


@pytest.mark.parametrize("capacity", [2.5, 2.0, "2", None])
def test_resource_rejects_non_integer_capacity(capacity):
    """A fractional slot count used to round up silently (2.5 granted three
    concurrent users); only integers are slot counts."""
    with pytest.raises(ValueError, match="integer"):
        Resource(Simulator(), capacity=capacity)


def test_resource_queue_length_tracking():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    lengths = []

    def holder():
        yield resource.request()
        yield 10
        lengths.append(resource.queue_length)
        resource.release()

    def waiter():
        yield resource.request()
        resource.release()

    sim.process(holder())
    sim.process(waiter())
    sim.process(waiter())
    sim.run()
    assert lengths == [2]


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------

def test_token_bucket_burst_then_rate_limited():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=10.0, capacity=100, initial=100)
    times = []

    def consumer():
        for _ in range(3):
            yield bucket.consume(100)
            times.append(sim.now)

    sim.process(consumer())
    sim.run()
    # First grant is free (full bucket); each further 100 tokens takes 10 us.
    assert times[0] == 0.0
    assert times[1] == pytest.approx(10.0)
    assert times[2] == pytest.approx(20.0)


def test_token_bucket_fifo_no_starvation():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=1.0, capacity=50, initial=0)
    order = []

    def consumer(label, amount):
        yield bucket.consume(amount)
        order.append(label)

    sim.process(consumer("big", 50))
    sim.process(consumer("small", 1))
    sim.run()
    assert order == ["big", "small"]


def test_token_bucket_zero_amount_is_free():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=1.0, capacity=10, initial=0)
    done = []

    def consumer():
        yield bucket.consume(0)
        done.append(sim.now)

    sim.process(consumer())
    sim.run()
    assert done == [0.0]


def test_token_bucket_rejects_oversized_request():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=1.0, capacity=10)
    with pytest.raises(ValueError):
        bucket.consume(11)


def test_token_bucket_infinite_rate_never_blocks():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=math.inf, capacity=10)
    done = []

    def consumer():
        for _ in range(5):
            yield bucket.consume(10)
        done.append(sim.now)

    sim.process(consumer())
    sim.run()
    assert done == [0.0]


def test_token_bucket_set_rate_applies_to_future_grants():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=10.0, capacity=10, initial=0)
    times = []

    def consumer():
        yield bucket.consume(10)
        times.append(sim.now)
        bucket.set_rate(1.0)
        yield bucket.consume(10)
        times.append(sim.now)

    sim.process(consumer())
    sim.run()
    assert times[0] == pytest.approx(1.0)
    assert times[1] == pytest.approx(11.0)


def test_token_bucket_invalid_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        TokenBucket(sim, rate=0)
    with pytest.raises(ValueError):
        TokenBucket(sim, rate=1.0, capacity=0)
    bucket = TokenBucket(sim, rate=1.0, capacity=10)
    with pytest.raises(ValueError):
        bucket.consume(-1)
    with pytest.raises(ValueError):
        bucket.set_rate(0)


@settings(max_examples=40, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=100.0),
    amounts=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=15),
)
def test_token_bucket_long_run_rate_is_respected(rate, amounts):
    """Property: total grant time is at least (total - capacity) / rate."""
    sim = Simulator()
    capacity = 50
    bucket = TokenBucket(sim, rate=rate, capacity=capacity, initial=capacity)
    finish = []

    def consumer():
        for amount in amounts:
            yield bucket.consume(amount)
        finish.append(sim.now)

    sim.process(consumer())
    sim.run()
    total = sum(amounts)
    lower_bound = max(0.0, (total - capacity) / rate)
    assert finish[0] >= lower_bound - 1e-6


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    holds=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=12),
)
def test_resource_never_exceeds_capacity(capacity, holds):
    """Property: concurrent holders never exceed the configured capacity."""
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    active = {"count": 0, "peak": 0}

    def user(hold):
        yield resource.request()
        active["count"] += 1
        active["peak"] = max(active["peak"], active["count"])
        yield hold
        active["count"] -= 1
        resource.release()

    for hold in holds:
        sim.process(user(hold))
    sim.run()
    assert active["peak"] <= capacity
    assert resource.users == 0
