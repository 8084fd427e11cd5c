"""Tests for the host I/O abstractions and the flash substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashArray, FlashGeometry, FlashTiming
from repro.host.io import IOKind, IORequest, KiB
from repro.sim import Simulator
from repro.ssd import SsdDevice, samsung_970pro_profile
from repro.host.io import MiB


# ---------------------------------------------------------------------------
# IORequest
# ---------------------------------------------------------------------------

def test_iorequest_constructors_and_properties():
    read = IORequest.read(4096, 8192)
    write = IORequest.write(0, 4096)
    flush = IORequest.flush()
    assert read.kind is IOKind.READ and read.end_offset == 4096 + 8192
    assert write.kind is IOKind.WRITE
    assert flush.size == 0
    assert read.request_id != write.request_id


def test_iorequest_rejects_invalid_sizes():
    with pytest.raises(ValueError):
        IORequest.read(0, 0)
    with pytest.raises(ValueError):
        IORequest.read(-4096, 4096)
    with pytest.raises(ValueError):
        IORequest(IOKind.WRITE, 0, -1)


def test_iorequest_latency_requires_completion():
    request = IORequest.read(0, 4096)
    with pytest.raises(ValueError):
        _ = request.latency
    request.submit_time = 10.0
    request.complete_time = 60.0
    assert request.latency == 50.0


# ---------------------------------------------------------------------------
# BlockDevice validation (via the SSD implementation)
# ---------------------------------------------------------------------------

def test_device_rejects_unaligned_and_out_of_range_io():
    sim = Simulator()
    device = SsdDevice(sim, samsung_970pro_profile(128 * MiB))
    with pytest.raises(ValueError):
        device.read(100, 4096)
    with pytest.raises(ValueError):
        device.read(0, 1000)
    with pytest.raises(ValueError):
        device.read(device.capacity_bytes, 4096)


def test_device_stats_accumulate():
    sim = Simulator()
    device = SsdDevice(sim, samsung_970pro_profile(128 * MiB))

    def proc():
        yield device.write(0, 8192)
        yield device.read(0, 4096)
        yield device.flush()

    sim.process(proc())
    sim.run()
    assert device.stats.writes_completed == 1
    assert device.stats.reads_completed == 1
    assert device.stats.flushes_completed == 1
    assert device.stats.bytes_written == 8192
    assert device.stats.bytes_read == 4096


# ---------------------------------------------------------------------------
# Flash geometry / timing
# ---------------------------------------------------------------------------

def test_geometry_derived_quantities():
    geometry = FlashGeometry(channels=2, dies_per_channel=2, planes_per_die=2,
                             blocks_per_plane=4, pages_per_block=8, page_size=16 * KiB)
    assert geometry.total_dies == 4
    assert geometry.blocks_per_die == 8
    assert geometry.block_size == 8 * 16 * KiB
    assert geometry.physical_capacity == 4 * 2 * 4 * 8 * 16 * KiB
    assert geometry.channel_of_die(3) == 1
    assert "2ch" in geometry.describe()


def test_geometry_validation():
    with pytest.raises(ValueError):
        FlashGeometry(channels=0)
    geometry = FlashGeometry()
    with pytest.raises(ValueError):
        geometry.channel_of_die(10_000)


def test_timing_latency_components():
    """An uncontended page read pays command overhead, tR and the channel
    transfer; a page program pays command overhead, the transfer and
    tPROG."""
    timing = FlashTiming(read_us=50, program_us=300, erase_us=2000,
                         channel_bytes_per_us=500, command_overhead_us=2)
    geometry = FlashGeometry(channels=1, dies_per_channel=1)
    latencies = {}
    for op in ("read_page", "program_page"):
        sim = Simulator()
        array = FlashArray(sim, geometry, timing)
        sim.process(getattr(array, op)(0, 1000))
        sim.run()
        latencies[op] = sim.now
    assert latencies == {"read_page": pytest.approx(54.0),
                         "program_page": pytest.approx(304.0)}
    with pytest.raises(ValueError):
        FlashTiming(channel_bytes_per_us=0)


def test_flash_array_die_serialisation_and_channel_sharing():
    sim = Simulator()
    geometry = FlashGeometry(channels=1, dies_per_channel=2, planes_per_die=1,
                             blocks_per_plane=2, pages_per_block=4, page_size=16 * KiB)
    timing = FlashTiming(read_us=50, program_us=300, erase_us=1000,
                         channel_bytes_per_us=1600, command_overhead_us=0)
    array = FlashArray(sim, geometry, timing)
    finish = {}

    def reads_same_die():
        yield from array.read_page(0, 16 * KiB)
        yield from array.read_page(0, 16 * KiB)
        finish["same_die"] = sim.now

    sim.process(reads_same_die())
    sim.run()
    # Two serialized reads on one die: 2 * (50 + 10.24).
    assert finish["same_die"] == pytest.approx(2 * (50 + 16 * KiB / 1600), rel=1e-3)

    sim2 = Simulator()
    array2 = FlashArray(sim2, geometry, timing)
    done = []

    def one_read(die):
        yield from array2.read_page(die, 16 * KiB)
        done.append(sim2.now)

    sim2.process(one_read(0))
    sim2.process(one_read(1))
    sim2.run()
    # Different dies overlap their tR; only the channel transfer serialises.
    assert max(done) < 2 * (50 + 16 * KiB / 1600)


def test_flash_array_counters_and_bounds():
    sim = Simulator()
    geometry = FlashGeometry(channels=1, dies_per_channel=1, planes_per_die=2,
                             blocks_per_plane=2, pages_per_block=4, page_size=16 * KiB)
    array = FlashArray(sim, geometry, FlashTiming())

    def ops():
        yield from array.program_page(0, 32 * KiB, planes=2)
        yield from array.erase_block(0)

    sim.process(ops())
    sim.run()
    assert array.stats.programs == 1
    assert array.stats.erases == 1
    assert array.stats.bytes_programmed == 32 * KiB
    with pytest.raises(ValueError):
        list(array.program_page(0, 16 * KiB, planes=3))
    with pytest.raises(ValueError):
        next(array.erase_block(5))


@settings(max_examples=25, deadline=None)
@given(offset_blocks=st.integers(min_value=0, max_value=1000),
       size_blocks=st.integers(min_value=1, max_value=64))
def test_request_roundtrip_properties(offset_blocks, size_blocks):
    """Property: end_offset - offset == size."""
    request = IORequest.write(offset_blocks * 4096, size_blocks * 4096)
    assert request.end_offset - request.offset == request.size
