"""Tests for the SSD's FTL building blocks: mapping, allocator, buffer, prefetcher."""

import random
from dataclasses import replace
from itertools import chain
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.host.io import IOKind, IORequest, MiB
from repro.sim import Event, Simulator
from repro.ssd import allocator as allocator_module
from repro.ssd.allocator import BlockAllocator, BlockState, OpenBlock, WriteStream
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
    assert mapping.lookup_many([0]) == [UNMAPPED]
    assert not mapping.is_mapped(0)
    mapping.map(0, 5)
    assert mapping.lookup_many([0]) == [5]
    assert mapping.reverse_lookup(5) == 0
    assert mapping.valid_slots_in_block(0) == 1
    assert mapping.mapped_blocks == 1


def test_mapping_overwrite_invalidates_old_slot():
    mapping = make_mapping()
    mapping.map(3, 2)
    mapping.map(3, 20)
    assert mapping.lookup_many([3]) == [20]
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


def reference_map(mapping, lbn, psn):
    """``PageMapping.map`` before ``map_run``, kept verbatim (numpy scalar
    access), with ``_invalidate_slot`` inlined."""
    if not 0 <= lbn < mapping.logical_blocks:
        raise ValueError(f"lbn {lbn} out of range")
    if not 0 <= psn < mapping.total_slots:
        raise ValueError(f"psn {psn} out of range")
    if mapping._p2l[psn] != UNMAPPED:
        raise ValueError(f"slot {psn} is already occupied by lbn {mapping._p2l[psn]}")
    previous = int(mapping._l2p[lbn])
    if previous != UNMAPPED:
        block_id = previous // mapping.slots_per_block
        mapping._p2l[previous] = UNMAPPED
        mapping._valid_per_block[block_id] -= 1
    else:
        mapping.mapped_blocks += 1
    mapping._l2p[lbn] = psn
    mapping._p2l[psn] = lbn
    mapping._valid_per_block[psn // mapping.slots_per_block] += 1
    return previous


def reference_map_run(mapping, batch, slots, validate):
    """``Ftl.write_slots``'s per-block mapping loop before ``map_run``, kept
    verbatim (``self.mapping.map`` is :func:`reference_map`)."""
    placed = 0
    for lbn, psn in zip(batch, slots):
        if validate is not None and not validate(lbn):
            continue
        reference_map(mapping, lbn, psn)
        placed += 1
    return placed


def outcome(call, *args):
    """``call(*args)``'s return value, or its exception's type and message."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def still_in_victim(mapping, victim):
    """GC's relocation filter before ``map_run`` took the victim's slot
    range, kept verbatim but for reading the slot through ``lookup_many``."""
    slot_lo, slot_hi = victim.start, victim.stop

    def validate(lbn: int) -> bool:
        [slot] = mapping.lookup_many([lbn])
        return slot_lo <= slot < slot_hi
    return validate


@settings(max_examples=300, deadline=None)
@given(prior=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 31)), max_size=24),
       lbns=st.lists(st.integers(-2, 17), unique=True, min_size=1, max_size=10),
       first_psn=st.integers(-4, 31),
       source=st.none() | st.builds(range, st.integers(-1, 32), st.integers(-1, 33)))
# A victim block's edges: lbns 1 and 2 sit on its first and last slot, lbns
# 0 and 3 just outside it.
@example(prior=[(0, 7), (1, 8), (2, 15), (3, 16)], lbns=[0, 1, 2, 3], first_psn=24,
         source=range(8, 16))
def test_map_run_matches_the_per_block_loop(prior, lbns, first_psn, source):
    """Property: over random prior mappings, ``map_run`` leaves the tables,
    counters and return value the per-block loop leaves, including blocks
    skipped because their current slot lies outside ``source`` (the loop's
    ``still_in_victim`` filter), and raises the same error after the same
    partial update for an out-of-range LBN or slot or an occupied slot.
    The tables are small, so runs often cross both ends and hit occupied
    slots."""
    reference, bulk = (make_mapping(logical=16, slots=32, per_block=8) for _ in range(2))
    for lbn, psn in prior:
        assert outcome(bulk.map, lbn, psn) == outcome(reference_map, reference, lbn, psn)
    assert_mapping_state(bulk, mapping_state(reference))
    validate = None if source is None else still_in_victim(reference, source)
    slots = range(first_psn, first_psn + len(lbns))
    expected = outcome(reference_map_run, reference, lbns, slots, validate)
    assert outcome(bulk.map_run, lbns, first_psn, source) == expected
    assert_mapping_state(bulk, mapping_state(reference))


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
    assert mapping.lookup_many(occupied) == list(occupied.values())
    for lbn, psn in occupied.items():
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
    assert first == (0, 8)  # slots 0-7
    assert second == (8, 8)  # slots 8-15
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


def reference_pick_die(allocator, stream, reserve):
    """``BlockAllocator.pick_die`` as a ``chain`` scan, before it became
    one wrap-around loop from the cursor, kept verbatim."""
    dies = allocator.total_dies
    cursor = allocator._write_cursor
    spb = allocator.slots_per_block
    minimum = 0 if stream is WriteStream.GC else reserve
    open_blocks = allocator._open
    free = allocator._free
    for die in chain(range(cursor, dies), range(cursor)):
        if len(free[die]) > minimum:
            break
        open_block = open_blocks.get((die, stream))
        if open_block is not None and open_block.next_slot < spb:
            break
    else:
        return None
    allocator._write_cursor = die + 1 if die + 1 < dies else 0
    return die


_FRONTIER = st.none() | st.integers(0, 32)


@settings(max_examples=300, deadline=None)
@given(free=st.lists(st.integers(0, 4), min_size=4, max_size=4),
       frontiers=st.lists(st.tuples(_FRONTIER, _FRONTIER), min_size=4, max_size=4),
       cursor=st.integers(0, 3), reserve=st.integers(0, 4),
       streams=st.lists(st.sampled_from(WriteStream), min_size=1, max_size=6))
def test_pick_die_matches_the_chain_scan(free, frontiers, cursor, reserve, streams):
    """Property: over free-block counts, open frontiers of either stream
    (``None``: no frontier; 32 slots: full) and write cursors, a sequence of
    picks gives the dies and cursors of the scan that starts at the cursor
    die."""
    geometry = FlashGeometry(channels=2, dies_per_channel=2, planes_per_die=2,
                             blocks_per_plane=4, pages_per_block=4, page_size=16 * 1024)
    fast, reference = (BlockAllocator(geometry, slots_per_page=4) for _ in range(2))
    assert fast.slots_per_block == 32
    for allocator in (fast, reference):
        for die, (count, frontier) in enumerate(zip(free, frontiers)):
            queue = allocator._free[die]
            for stream, next_slot in zip((WriteStream.HOST, WriteStream.GC), frontier):
                if next_slot is not None:
                    allocator._open[(die, stream)] = OpenBlock(queue.popleft(), next_slot)
            while len(queue) > count:
                queue.pop()
        allocator._write_cursor = cursor
    for stream in streams:
        assert fast.pick_die(stream, reserve) == reference_pick_die(reference, stream, reserve)
        assert fast._write_cursor == reference._write_cursor


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
        base, granted = allocator.allocate_slots(
            die, min(remaining, allocator.program_unit_slots),
            WriteStream.HOST, reserve)
        for psn in range(base, base + granted):
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
        base, granted = allocator.allocate_slots(
            die, min(count - len(slots), allocator.program_unit_slots), stream, reserve)
        slots += range(base, base + granted)
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
# SsdDevice.preload(like=...): a copied preload against a computed one
# ---------------------------------------------------------------------------

def preload_span(config, start_frac, length_frac):
    """A block-aligned ``(offset, size)`` from fractions of the logical space."""
    logical = config.logical_blocks
    start = int(start_frac * (logical - 1))
    count = int(length_frac * (logical - start))
    return start * config.logical_block_size, count * config.logical_block_size


@settings(max_examples=40, deadline=None)
@given(capacity_mib=st.integers(4, 48), op_ratio=st.floats(0.0, 0.3), span=_RANGE)
def test_a_copied_preload_equals_a_computed_one(capacity_mib, op_ratio, span):
    """Property: an SSD that copies its preload from one of the same recipe
    holds, field by field, the FTL state an SSD preloaded on its own
    computes, and owns it: writes to the copy leave the source alone."""
    config = samsung_970pro_profile(capacity_bytes=capacity_mib * MiB, op_ratio=op_ratio)
    offset, size = preload_span(config, *span)
    sim = Simulator()
    source, copy = SsdDevice(sim, config), SsdDevice(sim, config)
    computed = SsdDevice(Simulator(), config)
    source.preload(offset, size)
    computed.preload(offset, size)
    with mock.patch.object(copy.ftl, "preload_range", side_effect=AssertionError):
        copy.preload(offset, size, like=source)
    assert_ftl_state(copy.ftl, ftl_state(computed.ftl))
    churn(copy.ftl, [("host", 9, 0), ("gc", 9, 1)])
    assert_ftl_state(source.ftl, ftl_state(computed.ftl))


@pytest.mark.parametrize("history", [
    "read", "write", "preloaded twice", "other range", "target preloaded", "other config"])
def test_a_preload_is_copied_only_from_a_device_with_that_history_alone(history):
    """A source that served a request, had another preload or another
    configuration, or a target that was preloaded already, makes the target
    compute its preload."""
    config = samsung_970pro_profile(capacity_bytes=8 * MiB)
    half = config.capacity_bytes // 2
    sim = Simulator()
    source = SsdDevice(sim, config, name="source")
    target = SsdDevice(sim, config if history != "other config"
                       else replace(config, seed=config.seed + 1))
    computed = SsdDevice(Simulator(), config)
    source.preload(0, half if history != "other range" else 2 * half)
    if history == "preloaded twice":
        source.preload(0, half)
    elif history in ("read", "write"):
        sim.run(until=source.submit(IORequest(IOKind[history.upper()], 0, 16384)))
    elif history == "target preloaded":
        target.preload(half, half)
        computed.preload(half, half)
    computed.preload(0, half)
    with mock.patch.object(target.ftl, "copy_preload", side_effect=AssertionError):
        target.preload(0, half, like=source)
    assert_ftl_state(target.ftl, ftl_state(computed.ftl))


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
    assert buffer.misses(range(4)) == []  # 0 is still readable in flight
    buffer.complete_flush(batch)
    assert buffer.misses(range(4)) == [0, 1, 3]
    assert buffer.free_slots == 3


def test_write_buffer_overflow_raises_and_waiters_fire():
    sim = Simulator()
    buffer = WriteBuffer(sim, capacity_slots=1)
    buffer.insert(0)
    with pytest.raises(RuntimeError):
        buffer.insert(1)
    woken = []

    def waiter():
        yield buffer.wait_for_space(1)
        woken.append(sim.now)

    sim.process(waiter())
    sim.run()
    assert woken == []  # nothing flushed yet
    buffer.complete_flush(buffer.take_batch(1))
    sim.run()
    assert woken == [0.0]


def test_write_buffer_counts_a_double_flight_block_once():
    # A known model quirk, pinned so that a fix shows up as a deliberate,
    # digest-moving change: a block rewritten while a flusher programs it
    # can be taken by a second flusher, and the in-flight set holds it once.
    sim = Simulator()
    buffer = WriteBuffer(sim, capacity_slots=4)
    buffer.insert(7)
    batch_a = buffer.take_batch(4)  # flusher A programs block 7
    buffer.insert(7)
    batch_b = buffer.take_batch(4)  # flusher B programs it again
    assert batch_a == batch_b == [7]
    assert buffer.used_slots == 1
    buffer.complete_flush(batch_a)
    assert buffer.misses(range(7, 8)) == [7]  # B's program is still pending


class EagerWriteBuffer(WriteBuffer):
    """Reference: the buffer with its flushers started when it is built, as
    ``SsdDevice`` started them before they started on first need."""

    def __init__(self, sim, capacity_slots, flusher=None, flushers=0):
        super().__init__(sim, capacity_slots)
        for _ in range(flushers):
            sim.process(flusher())


class WakeAllWriteBuffer(EagerWriteBuffer):
    """Reference: the wake-all, per-block buffer that the FIFO handoff and
    the run inserts replaced, verbatim.

    Every flush completion wakes every parked writer; each re-checks its
    room in the caller's loop and re-parks if there is none.
    """

    def __init__(self, sim, capacity_slots, flusher=None, flushers=0):
        super().__init__(sim, capacity_slots, flusher, flushers)
        self._data_waiters = []

    def insert(self, lbn: int) -> None:
        """Mark ``lbn`` dirty.  Caller must have checked :meth:`has_room_for`."""
        dirty = self._dirty
        if lbn in dirty:
            self.overwrite_hits += 1
            dirty.move_to_end(lbn)
            return
        if len(dirty) + len(self._in_flight) >= self.capacity_slots:
            raise RuntimeError("write buffer overflow - caller must wait for space")
        dirty[lbn] = None
        self._notify_one(self._data_waiters)

    def wait_for_space(self, lbn=None):
        """Event that fires the next time flushing frees buffer space."""
        event = self.sim.event()
        self._space_waiters.append(event)
        return event

    def take_batch(self, max_slots: int) -> list[int]:
        """Move up to ``max_slots`` dirty blocks to the in-flight set."""
        if max_slots <= 0:
            raise ValueError("max_slots must be positive")
        batch: list[int] = []
        while self._dirty and len(batch) < max_slots:
            lbn, _ = self._dirty.popitem(last=False)
            self._in_flight.add(lbn)
            batch.append(lbn)
        return batch

    def complete_flush(self, lbns: list[int]) -> None:
        """Drop flushed blocks from the buffer and wake space waiters."""
        for lbn in lbns:
            self._in_flight.discard(lbn)
        self._notify(self._space_waiters)

    def _notify(self, waiters) -> None:
        pending, waiters[:] = waiters[:], []
        for event in pending:
            if not event.triggered:
                event.succeed(None)

    def _notify_one(self, waiters) -> None:
        while waiters:
            event = waiters.pop(0)
            if not event.triggered:
                event.succeed(None)
                return


def reference_write(write_buffer, lbns):
    """``SsdDevice._serve``'s write loop before ``insert_run``, kept verbatim."""
    for lbn in lbns:
        while not write_buffer.has_room_for(lbn):
            yield write_buffer.wait_for_space(lbn)
        write_buffer.insert(lbn)


_lbn = st.integers(0, 23)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 12), dirty=st.lists(_lbn, unique=True, max_size=12),
       in_flight=st.sets(_lbn, max_size=12), waiters=st.lists(st.booleans(), max_size=4),
       start=_lbn, length=st.integers(0, 12))
def test_insert_run_matches_the_per_block_loop(capacity, dirty, in_flight, waiters,
                                               start, length):
    """Property: from a random dirty order, in-flight set and parked data
    waiters (some already triggered), one ``insert_run`` call stops at the
    block where the per-block loop first parks, and leaves the same dirty
    order and overwrite hits, with the same data waiters woken in the same
    order."""
    dirty = dirty[:capacity]
    in_flight = set(sorted(in_flight)[:capacity - len(dirty)])
    lbns = range(start, start + length)

    def build(buffer_cls):
        sim = Simulator()
        buffer = buffer_cls(sim, capacity)
        buffer._dirty.update(dict.fromkeys(dirty))
        buffer._in_flight.update(in_flight)
        woken = []
        for index, triggered in enumerate(waiters):
            event = buffer.wait_for_data()
            event.callbacks.append(lambda _event, index=index: woken.append(index))
            if triggered:
                event.succeed("elsewhere")
        return sim, buffer, woken

    def state(sim, buffer, woken):
        sim.run()
        return list(buffer._dirty), buffer._in_flight, buffer.overwrite_hits, woken

    reference_run = build(WakeAllWriteBuffer)
    reference = reference_run[1]
    parked_at = []
    reference.wait_for_space = lambda lbn: parked_at.append(lbn) or reference.sim.event()
    if next(reference_write(reference, lbns), None) is None:
        parked_at.append(lbns.stop)
    run = build(WriteBuffer)
    assert run[1].insert_run(lbns.start, lbns.stop) == parked_at[0]
    assert state(*run) == state(*reference_run)


class BufferRun(NamedTuple):
    at_cut: tuple  # (log, dirty order, in-flight set, overwrite hits, parked writers)
    at_end: tuple
    events: int  # Simulator.scheduled_events
    reparks: int  # wakeups that found no room and parked again


def drive_write_buffer(buffer_cls, capacity, writers, flushers, cut_us) -> BufferRun:
    """Run writers through ``SsdDevice._serve``'s room loops and flushers
    through ``SsdDevice._flush_worker``'s loop on one ``buffer_cls``.

    On :class:`WakeAllWriteBuffer` a write runs the per-block loop of
    :func:`reference_write`, on any other buffer ``SsdDevice._serve``'s
    ``insert_run`` loop.  ``writers`` holds one request list per writer:
    ``(delay, lbns)`` with ``lbns=None`` for a FLUSH.  ``flushers`` holds
    ``(unit, delays)``: the batch size and the program times it cycles
    through.  The buffer starts the flushers, in index order.
    """
    sim = Simulator()
    log = []
    owner = {}  # wait event -> writer index
    reparks = 0

    def park(index, lbn):
        event = buffer.wait_for_space(lbn)
        owner[event] = index
        return event

    def writer(index, requests):
        nonlocal reparks
        for delay, lbns in requests:
            yield delay
            if lbns is None:
                while not buffer.is_empty():
                    yield park(index, None)
                    reparks += not buffer.is_empty()
            elif buffer_cls is WakeAllWriteBuffer:
                for lbn in lbns:
                    while not buffer.has_room_for(lbn):
                        yield park(index, lbn)
                        reparks += not buffer.has_room_for(lbn)
                    buffer.insert(lbn)
                    log.append(("insert", index, lbn, sim.now))
            else:
                lbn, end = lbns.start, lbns.stop
                woken_at = None
                while True:
                    inserted = buffer.insert_run(lbn, end)
                    reparks += inserted == woken_at
                    for block in range(lbn, inserted):
                        log.append(("insert", index, block, sim.now))
                    lbn = inserted
                    if lbn == end:
                        break
                    woken_at = lbn
                    yield park(index, lbn)
            log.append(("done", index, sim.now))

    def flusher(index, unit, delays):
        programs = 0
        while True:
            batch = buffer.take_batch(unit)
            if not batch:
                yield buffer.wait_for_data()
                continue
            log.append(("batch", index, batch, sim.now))
            try:
                yield delays[programs % len(delays)]
                programs += 1
            finally:
                log.append(("complete", index, len(buffer._space_waiters)))
                buffer.complete_flush(batch)

    def state():
        # The reference parks bare events, the handoff (event, lbn) pairs.
        parked = [waiter if isinstance(waiter, Event) else waiter[0]
                  for waiter in buffer._space_waiters]
        return (list(log), list(buffer._dirty), set(buffer._in_flight),
                buffer.overwrite_hits, [owner[event] for event in parked])

    numbered = enumerate(flushers)

    def next_flusher():
        index, (unit, delays) = next(numbered)
        return flusher(index, unit, delays)

    buffer = buffer_cls(sim, capacity, flusher=next_flusher, flushers=len(flushers))
    for index, requests in enumerate(writers):
        sim.process(writer(index, requests))
    sim.run(until=cut_us)
    at_cut = state()
    sim.run()
    return BufferRun(at_cut, state(), sim.scheduled_events, reparks)


_block_runs = st.builds(lambda start, length: range(start, start + length),
                        st.integers(0, 11), st.integers(1, 6))
_requests = st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0]),
                               st.none() | _block_runs), min_size=1, max_size=4)
_flushers = st.lists(st.tuples(st.integers(1, 4),
                               st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                                        min_size=1, max_size=3)),
                     min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 16), writers=st.lists(_requests, min_size=1, max_size=8),
       flushers=_flushers, cut_us=st.integers(0, 12))
def test_write_buffer_handoff_matches_the_wake_all(capacity, writers, flushers, cut_us):
    reference = drive_write_buffer(WakeAllWriteBuffer, capacity, writers, flushers, cut_us)
    handoff = drive_write_buffer(EagerWriteBuffer, capacity, writers, flushers, cut_us)
    # Same inserts, batches, completion times, dirty order, in-flight set
    # and parked order -- at the cut and at the end.
    assert handoff.at_cut == reference.at_cut
    assert handoff.at_end == reference.at_end
    # Only writers that can proceed are woken ...
    assert handoff.reparks == 0
    # ... and a completion that finds k writers parked schedules one event
    # instead of k: never more events, and fewer as soon as any completion
    # finds two or more parked.  (A lone parked writer costs one event
    # either way, whether it proceeds or re-parks.)
    log = reference.at_end[0]
    parked = [entry[2] for entry in log if entry[0] == "complete" and entry[2]]
    assert reference.events - handoff.events == sum(parked) - len(parked)
    assert handoff.events <= reference.events
    if max(parked, default=0) > 1:
        assert handoff.events < reference.events


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 16), writers=st.lists(_requests, min_size=1, max_size=8),
       flushers=_flushers, cut_us=st.integers(0, 12))
def test_flushers_started_on_first_need_match_the_eager_ones(capacity, writers, flushers,
                                                             cut_us):
    eager = drive_write_buffer(EagerWriteBuffer, capacity, writers, flushers, cut_us)
    lazy = drive_write_buffer(WriteBuffer, capacity, writers, flushers, cut_us)
    # The same flusher takes each batch, at the same time, in the same
    # order as every insert and completion -- at the cut and at the end ...
    assert lazy.at_cut == eager.at_cut
    assert lazy.at_end == eager.at_end
    # ... and a flusher's bootstrap moves to where it was first woken, so
    # only the bootstraps at build time are gone.
    assert eager.events - lazy.events == len(flushers)


def park_writers(sim, buffer, lbns, resumed):
    """One process per block running ``SsdDevice._serve``'s write loop;
    ``resumed`` collects the block of every writer woken from a wait."""
    def writer(lbn):
        while buffer.insert_run(lbn, lbn + 1) == lbn:
            yield buffer.wait_for_space(lbn)
            resumed.append(lbn)

    for lbn in lbns:
        sim.process(writer(lbn))
    sim.run()


def test_flush_completion_wakes_only_the_head_writer():
    sim = Simulator()
    buffer = WriteBuffer(sim, capacity_slots=1)
    buffer.insert(0)
    batch = buffer.take_batch(1)
    resumed = []
    park_writers(sim, buffer, [1, 2, 3, 4], resumed)
    before = sim.scheduled_events
    buffer.complete_flush(batch)  # frees the one slot
    assert sim.scheduled_events == before + 1  # one handoff event, not four
    sim.run()
    assert resumed == [1]
    assert list(buffer._dirty) == [1]
    assert [lbn for _, lbn in buffer._space_waiters] == [2, 3, 4]


def test_overwrite_hit_proceeds_from_behind_blocked_writers():
    sim = Simulator()
    buffer = WriteBuffer(sim, capacity_slots=2)
    buffer.insert(0)
    batch = buffer.take_batch(1)
    buffer.insert(1)  # full: block 1 dirty, block 0 in flight
    resumed = []
    park_writers(sim, buffer, [5, 6, 2], resumed)
    buffer.complete_flush(batch)
    buffer.insert(2)  # the freed slot goes to block 2 at the same instant
    sim.run()
    assert resumed == [2]  # an overwrite hit; writers 5 and 6 stay asleep
    assert buffer.overwrite_hits == 1
    assert [lbn for _, lbn in buffer._space_waiters] == [5, 6]


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
    cache.invalidate(range(3, 4))
    assert not cache.lookup(3)
    assert 0.0 < cache.hit_ratio < 1.0


def test_read_cache_invalidates_a_run_of_blocks_in_one_call():
    cache = ReadCache(capacity_slots=8)
    for lbn in (9, 4, 7, 5, 2):
        cache.insert(lbn)
    cache.invalidate(range(3, 8))  # 4, 5 and 7; 3 and 6 were never cached
    assert list(cache._entries) == [9, 2]
    cache.invalidate(range(0, 100))
    assert len(cache) == 0
    cache.invalidate(range(5, 6))  # an empty cache stays empty
    assert len(cache) == 0


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


# ---------------------------------------------------------------------------
# The read path against the per-block loops it replaced
# ---------------------------------------------------------------------------

def reference_read(device, lbns):
    """``SsdDevice._serve``'s read filter and ``Ftl.read_slots``'s page
    grouping before either went per request, kept verbatim but for the
    buffer's membership test and the slot lookup, inlined: the blocks read
    from flash, ``(die, bytes)`` of each page read in issue order, and the
    unmapped blocks."""
    write_buffer, read_cache, ftl = device.write_buffer, device.read_cache, device.ftl
    misses = []
    for lbn in lbns:
        if write_buffer is not None and (lbn in write_buffer._dirty
                                         or lbn in write_buffer._in_flight):
            continue
        if read_cache is not None and read_cache.lookup(lbn):
            continue
        misses.append(lbn)
    lookup = ftl.mapping._l2p_view.__getitem__
    die_of_block = ftl.allocator.die_of_block
    slots_per_block = ftl.allocator.slots_per_block
    groups = {}
    unmapped = 0
    for lbn in misses:
        psn = lookup(lbn)
        if psn == UNMAPPED:
            unmapped += 1
            continue
        key = (die_of_block(psn // slots_per_block), psn // ftl.slots_per_page)
        groups[key] = groups.get(key, 0) + 1
    page_size = ftl.config.geometry.page_size
    block = ftl.config.logical_block_size
    reads = [(die, min(page_size, count * block)) for (die, _page), count in groups.items()]
    return misses, reads, unmapped


def observed_read(device, lbns):
    """Submit a read of ``lbns`` and run it: the blocks ``Ftl.read_slots``
    got, ``(die, bytes)`` of each page read in issue order, and the
    unmapped blocks it counted."""
    ftl = device.ftl
    misses, reads = [], []
    read_slots, read_page = ftl.read_slots, ftl.flash.read_page

    def recording_read_slots(blocks, for_prefetch=False):
        misses.extend(blocks)
        return (yield from read_slots(blocks, for_prefetch))

    def recording_read_page(die, num_bytes):
        reads.append((die, num_bytes))
        return read_page(die, num_bytes)
    ftl.read_slots, ftl.flash.read_page = recording_read_slots, recording_read_page
    block = device.logical_block_size
    device.submit(IORequest(IOKind.READ, lbns.start * block, len(lbns) * block))
    device.sim.run()
    return misses, reads, ftl.stats.unmapped_reads


_NEAR = st.sets(st.integers(0, 95), max_size=40)


@settings(max_examples=80, deadline=None)
@given(placements=st.lists(st.lists(st.integers(0, 95), unique=True, min_size=1,
                                    max_size=20), max_size=4),
       trimmed=_NEAR, dirty=_NEAR, in_flight=_NEAR,
       cached=st.lists(st.integers(0, 95), unique=True, max_size=40),
       start=st.integers(0, 63), count=st.integers(1, 32))
def test_read_path_matches_the_per_block_loops(placements, trimmed, dirty, in_flight,
                                               cached, start, count):
    """Property: over mapped, moved and trimmed blocks, blocks dirty or in
    flight in the write buffer and blocks in the read cache, a host read
    reads the same blocks and the same pages from flash, counts the same
    unmapped blocks, and leaves the read cache's order and counters as the
    per-block loops did."""
    devices = []
    for _ in range(2):
        device = SsdDevice(Simulator(), samsung_970pro_profile(capacity_bytes=16 * MiB))
        device.prefetcher = None  # a prefetch reads flash too
        device.preload()
        for lbns in placements:
            assert place(device.ftl, WriteStream.HOST, lbns)
        device.ftl.trim(sorted(trimmed))
        # Filled directly, so no flusher starts and drains them.
        device.write_buffer._dirty.update(dict.fromkeys(sorted(dirty)))
        device.write_buffer._in_flight.update(in_flight)
        for lbn in cached:
            device.read_cache.insert(lbn)
        devices.append(device)
    reference, device = devices
    lbns = range(start, start + count)
    assert observed_read(device, lbns) == reference_read(reference, lbns)
    assert cache_state(device.read_cache) == cache_state(reference.read_cache)


def cache_state(cache):
    return list(cache._entries), cache.hits, cache.misses
