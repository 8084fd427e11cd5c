"""End-to-end tests of the local SSD device model."""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.host.io import KiB, MiB
from repro.sim import Simulator
from repro.ssd import SsdDevice, samsung_970pro_profile
from repro.ssd.config import SsdConfig
from repro.workload.fio import FioJob, run_job


def make_device(capacity=128 * MiB):
    sim = Simulator()
    device = SsdDevice(sim, samsung_970pro_profile(capacity))
    return sim, device


def test_profile_scaling_preserves_overprovisioning_band():
    for capacity in (128 * MiB, 512 * MiB, 2 * 1024 * MiB):
        config = samsung_970pro_profile(capacity)
        assert config.capacity_bytes == capacity
        assert 0.05 <= config.overprovisioning_ratio <= 0.40
        assert config.geometry.physical_capacity > capacity


def test_config_validation_rejects_nonsense():
    good = samsung_970pro_profile(128 * MiB)
    with pytest.raises(ValueError):
        SsdConfig(capacity_bytes=good.geometry.physical_capacity * 2,
                  geometry=good.geometry)
    with pytest.raises(ValueError):
        SsdConfig(capacity_bytes=-1)


def test_config_rejects_2_31_or_more_physical_slots():
    """The FTL's tables hold slots as int32, so 8 TiB of raw flash at 4 KiB
    blocks is one slot too many.  (A config allocates nothing.)"""
    good = samsung_970pro_profile(128 * MiB)
    at_limit = replace(good.geometry, pages_per_block=128, blocks_per_plane=1 << 16)
    assert at_limit.physical_capacity // good.logical_block_size == 2**31
    with pytest.raises(ValueError, match=r"2\*\*31"):
        replace(good, geometry=at_limit)
    below = replace(at_limit, blocks_per_plane=(1 << 16) - 1)
    assert replace(good, geometry=below).geometry == below


def test_buffered_write_latency_is_order_of_magnitude_below_read():
    sim, device = make_device()
    device.preload()
    rng = random.Random(3)
    write_lat, read_lat = [], []

    def proc():
        for _ in range(100):
            offset = rng.randrange(device.capacity_bytes // 4096) * 4096
            request = yield device.write(offset, 4 * KiB)
            write_lat.append(request.latency)
        for _ in range(100):
            offset = rng.randrange(device.capacity_bytes // 4096) * 4096
            request = yield device.read(offset, 4 * KiB)
            read_lat.append(request.latency)

    sim.process(proc())
    sim.run()
    mean_write = sum(write_lat) / len(write_lat)
    mean_read = sum(read_lat) / len(read_lat)
    assert mean_write < 25.0          # buffered DRAM write, ~10 us
    assert 40.0 < mean_read < 110.0   # one flash read, ~60 us
    assert mean_read > 3 * mean_write


def test_sequential_reads_hit_the_prefetch_cache():
    sim, device = make_device()
    device.preload()
    latencies = []

    def proc():
        for index in range(200):
            request = yield device.read(index * 4 * KiB, 4 * KiB)
            latencies.append(request.latency)

    sim.process(proc())
    sim.run()
    warm = latencies[20:]
    assert sum(warm) / len(warm) < 30.0
    assert device.read_cache.hits > 100


def test_unmapped_reads_cost_no_flash_access():
    sim, device = make_device()
    flash_reads_before = device.flash.stats.reads

    def proc():
        yield device.read(0, 64 * KiB)

    sim.process(proc())
    sim.run()
    assert device.flash.stats.reads == flash_reads_before
    assert device.ftl.stats.unmapped_reads > 0


def test_flush_drains_the_write_buffer():
    sim, device = make_device()

    def proc():
        for index in range(64):
            yield device.write(index * 4096, 4096)
        yield device.flush()

    sim.process(proc())
    sim.run()
    assert device.write_buffer.is_empty()
    assert device.flash.stats.programs > 0


def test_trim_unmaps_blocks():
    sim, device = make_device()

    def proc():
        yield device.write(0, 64 * KiB)
        yield device.flush()
        from repro.host.io import IORequest, IOKind
        yield device.submit(IORequest(IOKind.TRIM, 0, 64 * KiB))
        yield device.read(0, 64 * KiB)

    sim.process(proc())
    sim.run()
    assert device.ftl.stats.unmapped_reads >= 16


def test_sustained_random_writes_trigger_gc_and_wa_above_one():
    sim, device = make_device(192 * MiB)
    job = FioJob(name="hammer", pattern="randwrite", io_size=64 * KiB,
                 queue_depth=16, total_bytes=int(1.6 * device.capacity_bytes), seed=5)
    result = run_job(sim, device, job)
    assert result.ios_completed == job.total_bytes // job.io_size
    assert device.ftl.gc.stats.blocks_erased > 0
    assert device.write_amplification > 1.0
    # Mapping invariant: valid slots never exceed logical capacity.
    assert device.ftl.mapping.mapped_blocks <= device.config.logical_blocks


def test_gc_throughput_cliff_appears_before_writing_full_capacity_twice():
    sim, device = make_device(256 * MiB)
    job = FioJob(name="cliff", pattern="randwrite", io_size=128 * KiB,
                 queue_depth=32, total_bytes=2 * device.capacity_bytes, seed=6)
    result = run_job(sim, device, job)
    samples = result.timeline.binned(20_000.0)
    peak = max(s.gigabytes_per_second for s in samples)
    trough = min(s.gigabytes_per_second for s in samples[2:])
    assert peak > 1.0          # starts near flash bandwidth
    assert trough < 0.7 * peak  # and collapses once GC kicks in


def gc_at_boot_device():
    """The 32 MiB profile with one spare superblock per die, preloaded twice
    over its first half: every die ends below the low watermark with four
    fully invalid blocks, so GC has work at the first dispatch."""
    config = samsung_970pro_profile(32 * MiB)
    config = replace(config, geometry=replace(config.geometry, blocks_per_plane=9))
    sim = Simulator()
    device = SsdDevice(sim, config)
    for _ in range(2):
        device.preload(0, config.capacity_bytes // 2)
    return sim, device


def test_gc_due_at_boot_runs_at_the_first_dispatch():
    sim, device = gc_at_boot_device()
    allocator = device.ftl.allocator
    assert all(allocator.free_blocks(die) < device.ftl.gc_low_watermark
               for die in range(allocator.total_dies))
    # Every die's collector has picked its first victim before an event
    # scheduled after the build runs.
    seen = []

    def observer():
        seen.append(device.ftl.gc.stats.invocations)
        yield 0

    sim.process(observer())
    sim.run(until=0.0)
    assert seen == [allocator.total_dies]
    # Recorded while every GC worker and flusher still started when the
    # SSD was built: GC, latencies and the end time of a mixed job.
    sim, device = gc_at_boot_device()
    result = run_job(sim, device, FioJob(name="gc-boot", pattern="randrw", io_size=16 * KiB,
                                         queue_depth=8, write_ratio=0.5, io_count=3000))
    stats = device.ftl.gc.stats
    assert (stats.invocations, stats.blocks_erased, stats.slots_relocated) == (490, 458, 7860)
    assert result.finished_us == 103049.32891136601
    assert hashlib.sha256(result.latency.samples.tobytes()).hexdigest()[:16] == \
        "55724b6008bf7f49"


def test_write_amplification_definition():
    sim, device = make_device()
    assert device.write_amplification == 1.0  # no writes yet

    def proc():
        yield device.write(0, 256 * KiB)
        yield device.flush()

    sim.process(proc())
    sim.run()
    assert device.write_amplification == pytest.approx(1.0, abs=0.01)


def test_describe_reports_key_statistics():
    sim, device = make_device()

    def proc():
        yield device.write(0, 4096)
        yield device.read(0, 4096)

    sim.process(proc())
    sim.run()
    info = device.describe()
    assert info["kind"] == "local-ssd"
    assert info["host_writes"] == 1
    assert info["host_reads"] == 1
    assert "write_amplification" in info


def test_preload_rejects_unaligned_ranges():
    _, device = make_device()
    with pytest.raises(ValueError):
        device.preload(offset=100, size=4096)


def test_request_jitter_is_the_expovariate_stream():
    """With hiccups off, a flush of an empty write buffer sleeps for a free
    controller grant and then for the host overhead with its jitter draw,
    and the inlined exponential draw gives bit for bit the overheads that
    ``Random.expovariate`` gave."""
    config = replace(samsung_970pro_profile(capacity_bytes=16 * MiB),
                     hiccup_probability=0.0)
    sim = Simulator()
    device = SsdDevice(sim, config)
    sleeps = record_sleeps(device)

    def flusher():
        for _ in range(200):
            yield device.flush()
    sim.process(flusher())
    sim.run()
    reference = random.Random(config.seed)
    expected = []
    for _ in range(200):
        overhead = (config.host_overhead_us + 0 / config.host_transfer_bytes_per_us
                    + 1 * config.per_block_overhead_us)
        overhead += reference.expovariate(1.0 / config.jitter_mean_us)
        expected += [0.0, overhead]
    assert sleeps == expected


def record_sleeps(device):
    """Record every sleep (a yielded number) of ``device._serve``."""
    sleeps = []
    serve = device._serve

    def recording_serve(request):
        generator = serve(request)
        target = next(generator)
        while True:
            if isinstance(target, (int, float)):
                sleeps.append(target)
            try:
                target = generator.send((yield target))
            except StopIteration as stop:
                return stop.value
    device._serve = recording_serve
    return sleeps
