"""Tests for the SSD's FTL building blocks: mapping, allocator, buffer, prefetcher."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.host.io import MiB
from repro.sim import Simulator
from repro.ssd import allocator as allocator_module
from repro.ssd.allocator import BlockAllocator, BlockState, WriteStream
from repro.ssd.config import samsung_970pro_profile
from repro.ssd.mapping import UNMAPPED, PageMapping
from repro.ssd.prefetcher import ReadCache, SequentialPrefetcher
from repro.ssd.ssd import SsdDevice
from repro.ssd.write_buffer import WriteBuffer


# ---------------------------------------------------------------------------
# PageMapping
# ---------------------------------------------------------------------------

def make_mapping(logical=64, slots=128, per_block=16):
    return PageMapping(logical_blocks=logical, total_slots=slots, slots_per_block=per_block)


def test_mapping_basic_map_and_lookup():
    mapping = make_mapping()
    assert mapping.lookup(0) == UNMAPPED
    assert not mapping.is_mapped(0)
    mapping.map(0, 5)
    assert mapping.lookup(0) == 5
    assert mapping.reverse_lookup(5) == 0
    assert mapping.valid_slots_in_block(0) == 1
    assert mapping.mapped_blocks == 1


def test_mapping_overwrite_invalidates_old_slot():
    mapping = make_mapping()
    mapping.map(3, 2)
    mapping.map(3, 20)
    assert mapping.lookup(3) == 20
    assert mapping.reverse_lookup(2) == UNMAPPED
    assert mapping.valid_slots_in_block(0) == 0
    assert mapping.valid_slots_in_block(1) == 1
    assert mapping.mapped_blocks == 1


def test_mapping_unmap_and_clear_block():
    mapping = make_mapping()
    mapping.map(1, 1)
    mapping.map(2, 2)
    assert mapping.unmap(1) == 1
    assert mapping.unmap(1) == UNMAPPED
    with pytest.raises(ValueError):
        mapping.clear_block(0)  # still one valid slot (lbn 2)
    mapping.unmap(2)
    mapping.clear_block(0)
    assert mapping.valid_slots_in_block(0) == 0


def test_mapping_rejects_double_occupancy_and_bad_indices():
    mapping = make_mapping()
    mapping.map(0, 0)
    with pytest.raises(ValueError):
        mapping.map(1, 0)
    with pytest.raises(ValueError):
        mapping.map(999, 1)
    with pytest.raises(ValueError):
        mapping.map(1, 9999)


def mapping_state(mapping):
    return (mapping._l2p.copy(), mapping._p2l.copy(),
            mapping.valid_block_counts().copy(), mapping.mapped_blocks)


def assert_mapping_state(mapping, state):
    l2p, p2l, valid, mapped = state
    assert np.array_equal(mapping._l2p, l2p)
    assert np.array_equal(mapping._p2l, p2l)
    assert np.array_equal(mapping.valid_block_counts(), valid)
    assert mapping.mapped_blocks == mapped


@pytest.mark.parametrize("start, psns", [
    (2, [40, 0, 41]),        # slot 0 is occupied by lbn 0
    (2, [40, 41, 40]),       # one slot twice in the run
    (62, [40, 41, 42]),      # runs past the last lbn
    (-1, [40]),              # negative lbn
    (2, [40, 128]),          # slot past the end
    (2, [-1, 40]),           # negative slot
])
def test_map_range_rejects_bad_runs_without_changes(start, psns):
    mapping = make_mapping()
    mapping.map(0, 0)
    mapping.map(5, 17)
    before = mapping_state(mapping)
    with pytest.raises(ValueError):
        mapping.map_range(start, np.array(psns, dtype=np.int64))
    assert_mapping_state(mapping, before)


def test_map_range_empty_run_is_a_no_op():
    mapping = make_mapping()
    mapping.map(3, 2)
    before = mapping_state(mapping)
    mapping.map_range(64, np.empty(0, dtype=np.int64))
    assert_mapping_state(mapping, before)
    with pytest.raises(ValueError):
        mapping.map_range(65, np.empty(0, dtype=np.int64))


def test_map_range_matches_map_and_invalidates_old_copies():
    bulk, single = make_mapping(), make_mapping()
    first = np.array([3, 4, 5, 16, 17, 18], dtype=np.int64)
    again = np.array([32, 33, 48, 49], dtype=np.int64)
    for mapping in (bulk, single):
        mapping.map(20, 100)
    bulk.map_range(10, first)
    bulk.map_range(12, again)  # re-preload of lbns 12-15 over blocks 0 and 1
    for start, psns in ((10, first), (12, again)):
        for offset, psn in enumerate(psns):
            single.map(start + offset, int(psn))
    assert_mapping_state(bulk, mapping_state(single))
    assert bulk.valid_slots_in_block(0) == 2  # lbns 10-11 stay in slots 3-4
    assert bulk.valid_slots_in_block(1) == 0  # lbns 13-15 moved out
    assert bulk.reverse_lookup(5) == UNMAPPED
    assert bulk.mapped_blocks == 7


def test_mapping_valid_lbns_in_block():
    mapping = make_mapping()
    for lbn, psn in [(0, 0), (1, 1), (2, 17)]:
        mapping.map(lbn, psn)
    assert sorted(mapping.valid_lbns_in_block(0)) == [0, 1]
    assert mapping.valid_lbns_in_block(1) == [2]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 127)),
                min_size=1, max_size=120))
def test_mapping_invariants_under_random_updates(operations):
    """Property: valid counters always equal the number of distinct mapped slots."""
    mapping = make_mapping()
    occupied: dict[int, int] = {}
    for lbn, psn in operations:
        if psn in occupied.values():
            continue  # slot already in use: the FTL never reuses a live slot
        mapping.map(lbn, psn)
        occupied[lbn] = psn
    assert mapping.mapped_blocks == len(occupied)
    assert int(mapping.valid_block_counts().sum()) == len(occupied)
    for lbn, psn in occupied.items():
        assert mapping.lookup(lbn) == psn
        assert mapping.reverse_lookup(psn) == lbn
    assert 0.0 <= mapping.utilization <= 1.0


# ---------------------------------------------------------------------------
# BlockAllocator
# ---------------------------------------------------------------------------

def make_allocator():
    geometry = FlashGeometry(channels=2, dies_per_channel=1, planes_per_die=2,
                             blocks_per_plane=4, pages_per_block=4, page_size=16 * 1024)
    return BlockAllocator(geometry, slots_per_page=4)


def test_allocator_initial_state():
    allocator = make_allocator()
    assert allocator.total_blocks == 8
    assert allocator.total_free_blocks() == 8
    assert allocator.min_free_blocks() == 4
    assert allocator.slots_per_block == 2 * 4 * 4
    assert allocator.state_of(0) is BlockState.FREE
    assert [list(queue) for queue in allocator._free] == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_allocator_allocates_consecutive_slots_and_marks_full():
    allocator = make_allocator()
    first = allocator.allocate_slots(0, 8, WriteStream.HOST, reserve=1)
    second = allocator.allocate_slots(0, 8, WriteStream.HOST, reserve=1)
    assert first == list(range(0, 8))
    assert second == list(range(8, 16))
    assert allocator.free_blocks(0) == 3
    # Block 0 holds 32 slots; after 32 slots it becomes FULL.
    allocator.allocate_slots(0, 16, WriteStream.HOST, reserve=1)
    assert allocator.state_of(0) is BlockState.FULL
    assert allocator.gc_candidates(0) == [0]


def test_allocator_respects_host_reserve():
    allocator = make_allocator()
    # Drain die 0 down to the reserve.
    while allocator.can_allocate(0, WriteStream.HOST, reserve=3):
        allocator.allocate_slots(0, allocator.slots_per_block, WriteStream.HOST, reserve=3)
    assert allocator.free_blocks(0) <= 3
    assert not allocator.can_allocate(0, WriteStream.HOST, reserve=3)
    # GC ignores the reserve.
    assert allocator.can_allocate(0, WriteStream.GC, reserve=3)


def test_allocator_pick_die_round_robin_and_exhaustion():
    allocator = make_allocator()
    picks = {allocator.pick_die(WriteStream.HOST, reserve=0) for _ in range(4)}
    assert picks == {0, 1}
    # Exhaust everything; pick_die must return None.
    for die in (0, 1):
        while allocator.can_allocate(die, WriteStream.HOST, reserve=0):
            allocator.allocate_slots(die, allocator.slots_per_block,
                                     WriteStream.HOST, reserve=0)
    assert allocator.pick_die(WriteStream.HOST, reserve=0) is None


def test_allocator_release_cycle():
    allocator = make_allocator()
    allocator.allocate_slots(0, allocator.slots_per_block, WriteStream.HOST, reserve=0)
    assert allocator.state_of(0) is BlockState.FULL
    allocator.release_block(0)
    assert allocator.state_of(0) is BlockState.FREE
    assert allocator.erase_count[0] == 1
    with pytest.raises(ValueError):
        allocator.release_block(0)


@pytest.mark.parametrize("grant", [
    lambda allocator: allocator.allocate_slots(0, 1, WriteStream.HOST, reserve=0),
    lambda allocator: allocator.allocate_run(1, WriteStream.HOST, reserve=0),
], ids=["allocate_slots", "allocate_run"])
def test_allocator_keeps_an_erased_full_frontier_free(grant):
    """GC may erase a frontier block once it is full.  The die's next grant
    must not mark the freed block FULL: GC would erase it again and the free
    list would hold it twice."""
    allocator = make_allocator()
    allocator.allocate_slots(0, allocator.slots_per_block, WriteStream.HOST, reserve=0)
    allocator.release_block(0)
    grant(allocator)
    assert allocator.state_of(0) is BlockState.FREE
    assert allocator.gc_candidates(0) == []


def test_allocator_die_of_block_and_bounds():
    allocator = make_allocator()
    assert allocator.die_of_block(0) == 0
    assert allocator.die_of_block(allocator.blocks_per_die) == 1
    with pytest.raises(ValueError):
        allocator.die_of_block(999)
    with pytest.raises(ValueError):
        allocator.allocate_slots(0, 0, WriteStream.HOST, reserve=0)
    with pytest.raises(ValueError):
        allocator.allocate_run(-1, WriteStream.HOST, reserve=0)


# ---------------------------------------------------------------------------
# Ftl.preload_range against the per-block loop it replaced
# ---------------------------------------------------------------------------

def reference_preload_range(ftl, start_lbn, count):
    """``Ftl.preload_range`` before bulk preconditioning, kept verbatim."""
    if start_lbn < 0 or start_lbn + count > ftl.config.logical_blocks:
        raise ValueError("preload range outside the logical address space")
    allocator = ftl.allocator
    reserve = ftl.gc_host_reserve
    remaining = count
    lbn = start_lbn
    while remaining > 0:
        die = allocator.pick_die(WriteStream.HOST, reserve)
        if die is None:
            raise RuntimeError("preload ran out of flash space")
        slots = allocator.allocate_slots(
            die, min(remaining, allocator.program_unit_slots),
            WriteStream.HOST, reserve)
        for psn in slots:
            ftl.mapping.map(lbn, psn)
            lbn += 1
            remaining -= 1


def reference_allocate(allocator, count, stream, reserve):
    """The allocation loop of ``reference_preload_range`` for any stream;
    None when it runs out of space part-way."""
    slots = []
    while len(slots) < count:
        die = allocator.pick_die(stream, reserve)
        if die is None:
            return None
        slots += allocator.allocate_slots(
            die, min(count - len(slots), allocator.program_unit_slots), stream, reserve)
    return slots


def build_ftl(capacity_mib, op_ratio):
    config = samsung_970pro_profile(capacity_bytes=capacity_mib * MiB, op_ratio=op_ratio)
    return SsdDevice(Simulator(), config).ftl


def place(ftl, stream, lbns):
    """Place ``lbns`` one program unit at a time as ``Ftl.write_slots`` does,
    without simulated time; False, with nothing mapped, when the stream runs
    out of space."""
    slots = reference_allocate(ftl.allocator, len(lbns), stream, ftl.gc_host_reserve)
    if slots is None:
        return False
    for lbn, psn in zip(lbns, slots):
        ftl.mapping.map(lbn, psn)
    return True


def churn(ftl, operations):
    """Odd-sized host and GC writes of random LBNs, and greedy reclaims of a
    die's emptiest FULL block (relocate, erase, return to the free list)."""
    allocator, mapping = ftl.allocator, ftl.mapping
    for kind, size, seed in operations:
        rng = random.Random(seed)
        if kind == "reclaim":
            victims = allocator.gc_candidates(rng.randrange(allocator.total_dies))
            if not victims:
                continue
            victim = min(victims, key=mapping.valid_slots_in_block)
            if (place(ftl, WriteStream.GC, mapping.valid_lbns_in_block(victim))
                    and mapping.valid_slots_in_block(victim) == 0):
                mapping.clear_block(victim)
                allocator.release_block(victim)
        else:
            stream = WriteStream.HOST if kind == "host" else WriteStream.GC
            place(ftl, stream, rng.sample(range(ftl.config.logical_blocks), size))


def run_slots(allocator, count, stream, reserve):
    """The slots of ``allocate_run`` as one list; every chunk but the last is full."""
    chunks = list(allocator.allocate_run(count, stream, reserve))
    assert all(len(chunk) == allocator_module._RUN_CHUNK for chunk in chunks[:-1])
    return [slot for chunk in chunks for slot in chunk.tolist()]


def allocator_state(allocator):
    """Free lists, block states, open frontiers, write cursor, erase counts."""
    return ([list(queue) for queue in allocator._free],
            list(allocator._state),
            {key: (block.block_id, block.next_slot) for key, block in allocator._open.items()},
            allocator._write_cursor,
            list(allocator.erase_count))


def ftl_state(ftl):
    return mapping_state(ftl.mapping), allocator_state(ftl.allocator)


def assert_ftl_state(ftl, state):
    assert_mapping_state(ftl.mapping, state[0])
    assert allocator_state(ftl.allocator) == state[1]


def host_space(ftl):
    """Slots the host stream can still take without GC."""
    allocator = ftl.allocator
    spb = allocator.slots_per_block
    space = 0
    for die in range(allocator.total_dies):
        frontier = allocator._open.get((die, WriteStream.HOST))
        if frontier is not None:
            space += spb - frontier.next_slot
        space += max(0, allocator.free_blocks(die) - ftl.gc_host_reserve) * spb
    return space


_CHURN = st.lists(st.tuples(st.sampled_from(("host", "gc", "reclaim")),
                            st.integers(1, 23), st.integers(0, 2**32 - 1)),
                  max_size=25)
_RANGE = st.one_of(st.just((0.0, 1.0)),
                   st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(capacity_mib=st.integers(4, 48), op_ratio=st.floats(0.0, 0.3),
       steps=st.lists(st.tuples(_CHURN, _RANGE), min_size=1, max_size=4),
       gc_slots=st.integers(0, 300), chunk=st.sampled_from((5, 13, 1 << 13)))
def test_preload_range_matches_the_per_block_loop(capacity_mib, op_ratio, steps, gc_slots,
                                                  chunk):
    """Property: bulk preconditioning of full, partial and overlapping ranges,
    each after random churn, leaves exactly the FTL state the old loop left,
    and raises without changes where the old loop ran out of space.  Small
    chunk sizes put chunk boundaries inside program units."""
    reference, bulk = build_ftl(capacity_mib, op_ratio), build_ftl(capacity_mib, op_ratio)
    logical = bulk.config.logical_blocks
    with mock.patch.object(allocator_module, "_RUN_CHUNK", chunk):
        for operations, (start_frac, length_frac) in steps:
            churn(reference, operations)
            churn(bulk, operations)
            start = int(start_frac * (logical - 1))
            count = int(length_frac * (logical - start))
            before = ftl_state(bulk)
            try:
                reference_preload_range(reference, start, count)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    bulk.preload_range(start, count)
                assert_ftl_state(bulk, before)
                return
            bulk.preload_range(start, count)
            assert_ftl_state(bulk, ftl_state(reference))
        # The GC stream ignores the host reserve.
        reserve = bulk.gc_host_reserve
        expected = reference_allocate(reference.allocator, gc_slots, WriteStream.GC, reserve)
        if expected is None:
            with pytest.raises(RuntimeError):
                bulk.allocator.allocate_run(gc_slots, WriteStream.GC, reserve)
            return
        assert run_slots(bulk.allocator, gc_slots, WriteStream.GC, reserve) == expected
    assert_ftl_state(bulk, ftl_state(reference))


def test_allocate_run_on_the_last_die_with_a_one_slot_frontier():
    """Only die 0 has space, and its frontier has one slot left: 16 slots
    take three rounds (1 + 8 + 7), one more than 16 / unit."""
    reference, bulk = make_allocator(), make_allocator()
    for allocator in (reference, bulk):
        while allocator.can_allocate(1, WriteStream.HOST, reserve=0):
            allocator.allocate_slots(1, 8, WriteStream.HOST, reserve=0)
        for size in (8, 8, 8, 7):
            allocator.allocate_slots(0, size, WriteStream.HOST, reserve=0)
    expected = reference_allocate(reference, 16, WriteStream.HOST, reserve=0)
    assert expected == [31, *range(32, 47)]
    assert run_slots(bulk, 16, WriteStream.HOST, reserve=0) == expected
    assert allocator_state(bulk) == allocator_state(reference)


def test_preload_out_of_space_raises_before_changing_anything():
    ftl = build_ftl(4, 0.0)
    logical = ftl.config.logical_blocks
    rng = random.Random(7)
    while host_space(ftl) >= logical:
        assert place(ftl, WriteStream.HOST, rng.sample(range(logical), rng.choice((3, 5, 7))))
    before = ftl_state(ftl)
    with pytest.raises(RuntimeError):
        ftl.preload_range(0, logical)
    assert_ftl_state(ftl, before)
    ftl.preload_range(0, host_space(ftl))  # what still fits goes through
    assert host_space(ftl) == 0


# ---------------------------------------------------------------------------
# WriteBuffer
# ---------------------------------------------------------------------------

def test_write_buffer_insert_flush_cycle():
    sim = Simulator()
    buffer = WriteBuffer(sim, capacity_slots=4)
    for lbn in range(4):
        assert buffer.has_room_for(lbn)
        buffer.insert(lbn)
    assert not buffer.has_room_for(99)
    assert buffer.has_room_for(2)  # overwrite needs no space
    buffer.insert(2)
    assert buffer.overwrite_hits == 1
    batch = buffer.take_batch(3)
    assert batch == [0, 1, 3]  # lbn 2 moved to the back on overwrite
    assert buffer.contains(0)  # still readable while in flight
    buffer.complete_flush(batch)
    assert not buffer.contains(0)
    assert buffer.free_slots == 3


def test_write_buffer_overflow_raises_and_waiters_fire():
    sim = Simulator()
    buffer = WriteBuffer(sim, capacity_slots=1)
    buffer.insert(0)
    with pytest.raises(RuntimeError):
        buffer.insert(1)
    woken = []

    def waiter():
        yield buffer.wait_for_space()
        woken.append(sim.now)

    sim.process(waiter())
    sim.run()
    assert woken == []  # nothing flushed yet
    buffer.complete_flush(buffer.take_batch(1))
    sim.run()
    assert woken == [0.0]


def test_write_buffer_requeue_returns_blocks_to_dirty():
    sim = Simulator()
    buffer = WriteBuffer(sim, capacity_slots=4)
    buffer.insert(1)
    batch = buffer.take_batch(4)
    buffer.requeue(batch)
    assert buffer.dirty_slots == 1
    assert buffer.take_batch(4) == [1]


# ---------------------------------------------------------------------------
# ReadCache / SequentialPrefetcher
# ---------------------------------------------------------------------------

def test_read_cache_lru_eviction_and_hit_ratio():
    cache = ReadCache(capacity_slots=2)
    cache.insert(1)
    cache.insert(2)
    assert cache.lookup(1)
    cache.insert(3)  # evicts 2 (LRU)
    assert not cache.lookup(2)
    assert cache.lookup(3)
    cache.invalidate(3)
    assert not cache.lookup(3)
    assert 0.0 < cache.hit_ratio < 1.0


def test_prefetcher_triggers_after_sequential_run():
    prefetcher = SequentialPrefetcher(trigger=2, window_slots=8, logical_blocks=1000)
    assert prefetcher.observe(0, 4) is None
    decision = prefetcher.observe(4, 4)
    assert decision is not None
    assert decision.start_lbn == 8
    assert decision.num_slots == 8
    assert list(decision.lbns) == list(range(8, 16))
    assert prefetcher.prefetches_issued == 1


def test_prefetcher_ignores_random_accesses():
    prefetcher = SequentialPrefetcher(trigger=2, window_slots=8, logical_blocks=1000)
    assert prefetcher.observe(100, 4) is None
    assert prefetcher.observe(500, 4) is None
    assert prefetcher.observe(10, 4) is None
    assert prefetcher.prefetches_issued == 0


def test_prefetcher_clamps_to_device_end():
    prefetcher = SequentialPrefetcher(trigger=1, window_slots=64, logical_blocks=20)
    decision = prefetcher.observe(10, 4)
    assert decision is not None
    assert decision.start_lbn + decision.num_slots <= 20
    prefetcher.reset()
    assert prefetcher.observe(14, 4) is not None or True  # reset clears streams
