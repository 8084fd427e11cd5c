"""A macro group's size is a constant-cost parameter.

Every layer treats a device group as the contiguous range of global
indices it is: the partition holds ``(start, stop)`` spans, routing and
merges locate an index by bisecting the group starts, and fault handling
walks owned discrete devices only.  So a macro fleet ten times larger must
cost about the same memory and time to build and run.  The factors below
were fixed before measuring; the run at the larger size must also report
exactly ten times the I/Os, because macro totals are exact.
"""

import gc
import time
import tracemalloc
from dataclasses import replace

from repro.cluster import (
    FleetTopology,
    edge,
    fault,
    fleet,
    group,
    run_fleet,
    run_fleet_serial,
    tenant,
)
from repro.experiments.scenarios import get_scenario

#: Bounds on the 10x run relative to the 1x run.
PEAK_MEMORY_FACTOR = 1.5
MIN_WALL_FACTOR = 3.0
RUNS = 3


def scaled(topology: FleetTopology, factor: int) -> FleetTopology:
    """``topology`` with every group's device count multiplied."""
    return replace(topology, groups=tuple(
        replace(member, count=member.count * factor)
        for member in topology.groups))


def peak_bytes(topology: FleetTopology) -> int:
    """tracemalloc peak of one serial build-and-run, from a freshly
    collected heap.  A full collection also empties the interpreter's free
    lists, and the allocations that refill them are traced, so without it
    the peak depends on when the last one ran: the faulted fleet below
    peaked at about 57 KB with warm free lists and 87 KB with empty ones."""
    gc.collect()
    tracemalloc.start()
    try:
        run_fleet_serial(topology)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def min_wall_s(topology: FleetTopology) -> float:
    best = float("inf")
    for _ in range(RUNS):
        started = time.perf_counter()
        run_fleet_serial(topology)
        best = min(best, time.perf_counter() - started)
    return best


def test_macro_fleet_at_ten_times_the_size_costs_about_the_same():
    base = FleetTopology.from_json(
        get_scenario("fleet-macro-100k").cells()[0].fleet)
    large = scaled(base, 10)
    assert base.total_devices == 100_000
    assert large.total_devices == 1_000_000

    # Warm the in-process calibration memo: its key holds no device count,
    # so both sizes reuse the same calibrations.
    small_payload = run_fleet_serial(base)
    large_payload = run_fleet_serial(large)
    assert large_payload["fleet"]["ios_completed"] == \
        10 * small_payload["fleet"]["ios_completed"]
    for payload, topology in ((small_payload, base), (large_payload, large)):
        spans = [span for plan in payload["runtime"]["partition"]
                 for span in plan]
        assert len(spans) <= len(topology.groups)

    small_peak, large_peak = peak_bytes(base), peak_bytes(large)
    assert large_peak <= PEAK_MEMORY_FACTOR * small_peak, \
        (small_peak, large_peak)
    small_wall, large_wall = min_wall_s(base), min_wall_s(large)
    assert large_wall <= MIN_WALL_FACTOR * small_wall, (small_wall, large_wall)


def faulted_macro_fleet(store_count: int) -> FleetTopology:
    """A discrete writer mirrored onto a macro group that fails whole,
    then a discrete failure whose rebuild sources live in that group
    (offline, so the rebuild reads nothing from it)."""
    capacity = 1 << 24
    return fleet(
        "macro-faulted-scale",
        groups=[
            group("db", "LOOP", 2, capacity_bytes=capacity),
            group("store", "LOOP", store_count, capacity_bytes=capacity,
                  mode="macro"),
            group("spare", "LOOP", 1, capacity_bytes=capacity,
                  preload=False),
        ],
        tenants=[tenant("oltp", "db", pattern="randwrite", io_size=8192,
                        queue_depth=1, io_count=60)],
        edges=[edge("db", "store")],
        # The store's backlog only drains once it is back: repair it.
        faults=[fault("fail", "store", at_us=400.0, repair_after_us=1_000.0),
                fault("fail", "db", at_us=600.0, device=0, spare="spare")],
        epoch_us=200.0,
        seed=13,
    )


def test_faulted_macro_group_costs_nothing_per_device():
    """A whole-group macro failure, and the survivor and rebuild-source
    checks of a discrete failure next to it, cost O(1) per macro group."""
    small, large = faulted_macro_fleet(1_000), faulted_macro_fleet(1_000_000)
    serial = run_fleet_serial(large)  # also warms the calibration memo
    sharded = run_fleet(large, shards=3, transport="local")
    assert sharded["runtime"]["shards"] == 3
    strip = {key: value for key, value in serial.items() if key != "runtime"}
    assert strip == {key: value for key, value in sharded.items()
                     if key != "runtime"}
    assert serial["faults"]["rebuild_bytes"] > 0
    assert serial["groups"]["spare"]["rebuild_writes"] > 0

    small_peak, large_peak = peak_bytes(small), peak_bytes(large)
    assert large_peak <= PEAK_MEMORY_FACTOR * small_peak, \
        (small_peak, large_peak)
