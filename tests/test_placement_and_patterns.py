"""Regression and property tests: chunk placement termination and the new
workload generators (zipfian, hot/cold, bursty, generalised mixed)."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebs.chunk_map import ChunkMap
from repro.host.io import IOKind, KiB, MiB
from repro.workload.patterns import (
    PATTERN_NAMES,
    BurstyPattern,
    HotColdPattern,
    MixedPattern,
    RandomPattern,
    make_pattern,
    mixed_pattern,
)

REGION = 8 * MiB
IO = 4 * KiB


# ---------------------------------------------------------------------------
# ChunkMap placement: the seed bug was an infinite loop whenever the walk
# stride shared a factor with num_nodes (e.g. stride 2, 4, or 6 on 8 nodes).
# ---------------------------------------------------------------------------

def make_map(num_nodes, replication_factor, seed=0, chunks=256):
    return ChunkMap(capacity_bytes=chunks * 64 * KiB, chunk_size=64 * KiB,
                    num_nodes=num_nodes, replication_factor=replication_factor,
                    seed=seed)


def test_placement_group_regression_every_residue_class_non_prime_nodes():
    """8 nodes / rf=3: every (chunk_index, seed) residue class terminates.

    Before the fix, any chunk whose derived stride was even looped forever
    because the walk only visited half the ring.  Covering chunk indices and
    seeds across every residue class modulo num_nodes (and modulo the stride
    generator num_nodes - 1) exercises all stride values.
    """
    for num_nodes in (6, 8, 9, 12):
        for seed in range(num_nodes):
            chunk_map = make_map(num_nodes, replication_factor=3, seed=seed)
            for chunk_index in range(num_nodes * (num_nodes - 1)):
                group = chunk_map.placement_group(chunk_index)
                assert len(group) == 3
                assert len(set(group)) == 3
                assert all(0 <= node < num_nodes for node in group)


def test_placement_group_deterministic_and_spread():
    chunk_map = make_map(8, 3, seed=5)
    groups = [chunk_map.placement_group(index) for index in range(256)]
    assert groups == [chunk_map.placement_group(index) for index in range(256)]
    # Every node serves some chunk (placement is not degenerate).
    used = {node for group in groups for node in group}
    assert used == set(range(8))


@settings(max_examples=120, deadline=None)
@given(num_nodes=st.integers(min_value=1, max_value=40),
       replication_factor=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2**16),
       chunk_index=st.integers(min_value=0, max_value=255))
def test_placement_group_always_terminates_with_distinct_nodes(
        num_nodes, replication_factor, seed, chunk_index):
    """Property: any valid (nodes, rf, seed, chunk) yields rf distinct nodes."""
    replication_factor = min(replication_factor, num_nodes)
    chunk_map = make_map(num_nodes, replication_factor, seed=seed)
    group = chunk_map.placement_group(chunk_index)
    assert len(group) == replication_factor
    assert len(set(group)) == replication_factor


@settings(max_examples=100, deadline=None)
@given(chunk_size_kib=st.integers(min_value=1, max_value=64),
       offset=st.integers(min_value=0, max_value=2**20),
       size=st.integers(min_value=1, max_value=2**18))
def test_split_partitions_the_request_exactly(chunk_size_kib, offset, size):
    """Property: split() covers [offset, offset+size) exactly, in order."""
    chunk_map = ChunkMap(capacity_bytes=4 * MiB, chunk_size=chunk_size_kib * 1024,
                         num_nodes=8, replication_factor=3)
    size = min(size, chunk_map.capacity_bytes - offset)
    if size <= 0:
        return
    subrequests = chunk_map.split(offset, size)
    assert sum(sub.size for sub in subrequests) == size
    position = offset
    for sub in subrequests:
        assert sub.offset_in_chunk < chunk_map.chunk_size
        assert sub.chunk_index * chunk_map.chunk_size + sub.offset_in_chunk == position
        assert sub.size <= chunk_map.chunk_size - sub.offset_in_chunk
        position += sub.size
    assert position == offset + size


# ---------------------------------------------------------------------------
# New workload generators
# ---------------------------------------------------------------------------

def _offsets_valid(pattern, region_bytes, io_size, count=200):
    for _ in range(count):
        _kind, offset = pattern.next()
        assert 0 <= offset <= region_bytes - io_size
        assert offset % io_size == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       hot_fraction=st.floats(min_value=0.01, max_value=0.99),
       hot_access_fraction=st.floats(min_value=0.0, max_value=1.0))
def test_hot_cold_offsets_stay_aligned_and_in_region(seed, hot_fraction,
                                                     hot_access_fraction):
    pattern = HotColdPattern(REGION, IO, seed=seed, hot_fraction=hot_fraction,
                             hot_access_fraction=hot_access_fraction)
    _offsets_valid(pattern, REGION, IO, count=100)


def test_hot_cold_concentrates_traffic():
    pattern = HotColdPattern(REGION, IO, seed=3, hot_fraction=0.1,
                             hot_access_fraction=0.9)
    hits = {}
    for _ in range(4000):
        _kind, offset = pattern.next()
        hits[offset] = hits.get(offset, 0) + 1
    # The top-10% most-hit slots should absorb ~90% of accesses.
    ranked = sorted(hits.values(), reverse=True)
    hot_slots = max(1, int(len(pattern._permutation) * 0.1))
    assert sum(ranked[:hot_slots]) / 4000 > 0.7


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       theta=st.floats(min_value=1.01, max_value=3.0))
def test_zipfian_offsets_stay_aligned_and_in_region(seed, theta):
    pattern = make_pattern("zipfread", REGION, IO, seed=seed, theta=theta)
    _offsets_valid(pattern, REGION, IO, count=100)


def test_bursty_pattern_inserts_idle_every_burst():
    base = RandomPattern(REGION, IO, seed=1)
    pattern = BurstyPattern(base, burst_ios=5, idle_us=1000.0)
    pauses = []
    for _ in range(23):
        pauses.append(pattern.next_think_time_us())
        pattern.next()
    # The first burst starts immediately; afterwards a pause precedes every
    # 5th request.
    assert pauses[:5] == [0.0] * 5
    assert pauses[5] == 1000.0
    assert pauses[10] == 1000.0
    assert sum(1 for pause in pauses if pause > 0) == 4


def test_bursty_duty_cycle_derives_idle_gap():
    base = RandomPattern(REGION, IO, seed=1)
    pattern = BurstyPattern(base, burst_ios=10, duty_cycle=0.25,
                            service_estimate_us=100.0)
    # on-time = 10 * 100us; duty 0.25 -> idle = 3x on-time.
    assert pattern.idle_us == pytest.approx(3000.0)
    full_duty = BurstyPattern(RandomPattern(REGION, IO), burst_ios=4,
                              duty_cycle=1.0)
    assert full_duty.idle_us == 0.0
    with pytest.raises(ValueError):
        BurstyPattern(base, burst_ios=0, idle_us=1.0)
    with pytest.raises(ValueError):
        BurstyPattern(base, burst_ios=1)


@settings(max_examples=30, deadline=None)
@given(write_ratio=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**16))
def test_mixed_pattern_write_fraction_tracks_ratio(write_ratio, seed):
    pattern = MixedPattern(RandomPattern(REGION, IO, seed=seed), write_ratio,
                           seed=seed)
    kinds = [pattern.next()[0] for _ in range(400)]
    writes = sum(1 for kind in kinds if kind is IOKind.WRITE)
    assert abs(writes / 400 - write_ratio) < 0.12


def test_make_pattern_mixed_families_and_bursty_prefix():
    for name in ("seqrw", "zipfrw", "hotcoldrw"):
        pattern = make_pattern(name, REGION, IO, write_ratio=0.5, seed=3)
        assert isinstance(pattern, MixedPattern)
        with pytest.raises(ValueError):
            make_pattern(name, REGION, IO)  # write_ratio required
    bursty = make_pattern("bursty-hotcoldwrite", REGION, IO, seed=3,
                          burst_ios=8, idle_us=50.0, hot_fraction=0.2)
    assert isinstance(bursty, BurstyPattern)
    assert isinstance(bursty.base, HotColdPattern)
    assert bursty.base.hot_fraction == pytest.approx(0.2)
    assert bursty.next()[0] is IOKind.WRITE
    with pytest.raises(ValueError):
        make_pattern("no-such-pattern", REGION, IO)


#: sha256 of the first 256 draws of every pattern ``make_pattern`` builds,
#: at a fixed seed, as the FIO worker takes them: the pattern's think time,
#: then its ``(kind, offset)``.  Recorded before the patterns were reduced
#: to one ``next()`` each; ``seqrw`` and the bursty mixed names have no
#: golden scenario, so only this test pins their RNG draw order.
_PATTERN_DRAW_DIGESTS = {
    "read": "eb43a6a7dbbcecfd7e6b130c5c285610581142260556422f486f1d26e8fe7c62",
    "write": "99e20894b3db28edcffd11d6ad8fe471f0c88ef4c33e91c4fe5efd5c2d343080",
    "seqrw": "c51a5b16c356a0cd82f63e62562841fb71fcb24d2f5e9b8a22fd95570c4b3a3b",
    "randread": "337646674bf663c89da3317e95e28515974d40ab4047f7150a525cb1b65b6ba6",
    "randwrite": "913175e07e7783cbf408ef9b1cc4e7a4cbf0ec86819bcf7c23448a0181a03828",
    "randrw": "199ddda7ac1a938a6b5d6af4a4e70505087b6ea79ff1cbb6816656ff518983a6",
    "zipfread": "5cbbf7ff42b719ec2272b454c458004c3949be0358129ac8fd7343acddd1ece8",
    "zipfwrite": "78b386ed2808b50197d6a6f3f22b1953cfc5f55a5d0a4b667bb4d15f1ad1b689",
    "zipfrw": "4cce83d48f8bc7d040dd684da1751ea29933d1c957707c2633f7aa0f91fa7243",
    "hotcoldread": "d8ea5ff45f082e8d580a363eb84ca121f00dcebf9c4e3978dbe987c18db24dd7",
    "hotcoldwrite": "41b968ae75436891fe8be62bc1177076ee6c6e3cb542a208cf6692daef03fc0a",
    "hotcoldrw": "6b8b27fbc6e8d30b960b5b27496bc3c1fc2f17542ed4ccb86d063f6aae268a03",
    "bursty-randwrite": "d92261849e7f6b0cf29630600b7bed066354f25612fa119e93daf90fd39dfc18",
    "bursty-zipfrw": "5c442e0e552819b104505390ba98e9a7940aa0ea1d0fd5b39637a135870e234a",
}


def test_every_pattern_keeps_its_recorded_draws():
    assert set(_PATTERN_DRAW_DIGESTS) == \
        set(PATTERN_NAMES) | {"bursty-randwrite", "bursty-zipfrw"}
    for name, expected in _PATTERN_DRAW_DIGESTS.items():
        params = {"burst_ios": 8, "idle_us": 50.0} \
            if name.startswith("bursty-") else {}
        pattern = make_pattern(
            name, REGION, IO, seed=7,
            write_ratio=0.3 if mixed_pattern(name) else None, **params)
        draws = []
        for _ in range(256):
            pause = pattern.next_think_time_us()
            kind, offset = pattern.next()
            draws.append((pause, kind.value, offset))
        digest = hashlib.sha256(repr(draws).encode()).hexdigest()
        assert digest == expected, name


def test_chunk_map_stride_is_coprime_with_node_count():
    """The documented invariant behind the termination fix."""
    for num_nodes in (4, 6, 8, 9, 10, 12, 16):
        chunk_map = make_map(num_nodes, min(3, num_nodes))
        for chunk_index in range(64):
            group = chunk_map.placement_group(chunk_index)
            if len(group) >= 2:
                stride = (group[1] - group[0]) % num_nodes
                assert math.gcd(stride, num_nodes) == 1
