"""End-to-end tests of the ESSD device model (the contract's mechanisms)."""


import random
from dataclasses import replace

import pytest

from repro.ebs import EssdDevice, alibaba_pl3_profile, aws_io2_profile
from repro.host.io import KiB, MiB
from repro.sim import Simulator
from repro.workload.fio import FioJob, run_job


def make_essd(profile_fn=aws_io2_profile, capacity=256 * MiB):
    sim = Simulator()
    device = EssdDevice(sim, profile_fn(capacity))
    return sim, device


def run_fio(sim, device, **kwargs):
    job = FioJob(**kwargs)
    return run_job(sim, device, job)


def test_profile_validation():
    profile = aws_io2_profile(256 * MiB)
    assert profile.num_chunks == 256 * MiB // profile.chunk_size
    assert profile.max_throughput_gbps == pytest.approx(3.0)
    with pytest.raises(ValueError):
        aws_io2_profile(0)


def test_small_write_latency_dominated_by_network_and_software():
    sim, device = make_essd()
    result = run_fio(sim, device, name="w", pattern="randwrite", io_size=4 * KiB,
                     queue_depth=1, io_count=200)
    mean = result.latency.mean()
    assert 200 < mean < 450  # paper: ~333 us for ESSD-1


def test_essd2_has_lower_base_latency_than_essd1():
    sim1, dev1 = make_essd(aws_io2_profile)
    sim2, dev2 = make_essd(alibaba_pl3_profile)
    r1 = run_fio(sim1, dev1, name="a", pattern="randwrite", io_size=4 * KiB,
                 queue_depth=1, io_count=150)
    r2 = run_fio(sim2, dev2, name="b", pattern="randwrite", io_size=4 * KiB,
                 queue_depth=1, io_count=150)
    assert r2.latency.mean() < r1.latency.mean()


def test_latency_per_byte_improves_with_io_size():
    sim, device = make_essd()
    small = run_fio(sim, device, name="s", pattern="randwrite", io_size=4 * KiB,
                    queue_depth=1, io_count=100)
    sim2, device2 = make_essd()
    large = run_fio(sim2, device2, name="l", pattern="randwrite", io_size=256 * KiB,
                    queue_depth=1, io_count=100)
    per_byte_small = small.latency.mean() / (4 * KiB)
    per_byte_large = large.latency.mean() / (256 * KiB)
    assert per_byte_large < per_byte_small / 5


def test_throughput_capped_at_budget_for_reads_and_writes():
    for pattern in ("randread", "randwrite"):
        sim, device = make_essd(aws_io2_profile)
        result = run_fio(sim, device, name="cap", pattern=pattern, io_size=256 * KiB,
                         queue_depth=32, io_count=1200, ramp_ios=64)
        assert result.throughput_gbps <= device.profile.max_throughput_gbps * 1.08


def test_random_writes_faster_than_sequential_writes_on_essd2():
    sim, device = make_essd(alibaba_pl3_profile)
    rand = run_fio(sim, device, name="r", pattern="randwrite", io_size=64 * KiB,
                   queue_depth=32, io_count=800, ramp_ios=32)
    sim2, device2 = make_essd(alibaba_pl3_profile)
    seq = run_fio(sim2, device2, name="s", pattern="write", io_size=64 * KiB,
                  queue_depth=32, io_count=800, ramp_ios=32)
    gain = rand.throughput_gbps / seq.throughput_gbps
    assert gain > 1.5  # paper reports up to 2.79x for ESSD-2


def test_random_write_gain_modest_on_essd1_small_ios():
    sim, device = make_essd(aws_io2_profile)
    rand = run_fio(sim, device, name="r", pattern="randwrite", io_size=4 * KiB,
                   queue_depth=32, io_count=800, ramp_ios=32)
    sim2, device2 = make_essd(aws_io2_profile)
    seq = run_fio(sim2, device2, name="s", pattern="write", io_size=4 * KiB,
                  queue_depth=32, io_count=800, ramp_ios=32)
    gain = rand.throughput_gbps / seq.throughput_gbps
    assert 1.1 < gain < 2.2  # paper reports up to 1.52x for ESSD-1


def test_flow_limiting_engages_after_threshold_writes():
    sim, device = make_essd(aws_io2_profile, capacity=96 * MiB)
    assert not device.flow_limited
    job = FioJob(name="flood", pattern="randwrite", io_size=256 * KiB, queue_depth=16,
                 total_bytes=int(2.7 * device.capacity_bytes))
    result = run_job(sim, device, job)
    assert device.flow_limited
    samples = result.timeline.binned(100_000.0)
    # Throughput after the flow limit must be far below the early throughput.
    assert samples[-1].gigabytes_per_second < 0.6 * max(
        s.gigabytes_per_second for s in samples)


def test_essd2_sustains_throughput_with_no_flow_limit():
    sim, device = make_essd(alibaba_pl3_profile, capacity=96 * MiB)
    job = FioJob(name="flood", pattern="randwrite", io_size=256 * KiB, queue_depth=16,
                 total_bytes=int(3 * device.capacity_bytes))
    result = run_job(sim, device, job)
    assert not device.flow_limited
    samples = result.timeline.binned(100_000.0)
    peak = max(s.gigabytes_per_second for s in samples)
    assert samples[-1].gigabytes_per_second > 0.7 * peak


def test_reads_and_flushes_do_not_count_towards_flow_limit():
    sim, device = make_essd(aws_io2_profile, capacity=96 * MiB)
    result = run_fio(sim, device, name="reads", pattern="randread", io_size=256 * KiB,
                     queue_depth=8, io_count=500)
    assert result.ios_completed == 500
    assert device.backend.stats.bytes_written == 0
    assert not device.flow_limited


def test_describe_and_stats():
    sim, device = make_essd()

    def proc():
        yield device.write(0, 4 * KiB)
        yield device.read(0, 4 * KiB)
        yield device.flush()

    sim.process(proc())
    sim.run()
    info = device.describe()
    assert info["kind"] == "essd"
    assert info["host_writes"] == 1
    assert info["host_reads"] == 1
    assert info["replication"].startswith("3-way")
    assert device.stats.flushes_completed == 1


def test_requests_split_across_chunks_complete_atomically():
    sim, device = make_essd(aws_io2_profile)
    chunk = device.profile.chunk_size
    offset = chunk - 64 * KiB  # straddles a chunk boundary

    def proc():
        request = yield device.write(offset, 128 * KiB)
        return request

    sim.process(proc())
    sim.run()
    assert device.stats.bytes_written == 128 * KiB
    assert device.cluster.stats.subrequest_writes == 2
    assert device.cluster.stats.replica_writes == 2 * device.profile.replication_factor


def test_unaligned_or_oversized_requests_rejected():
    _, device = make_essd()
    with pytest.raises(ValueError):
        device.read(3, 4096)
    with pytest.raises(ValueError):
        device.write(0, device.capacity_bytes + 4096)


def test_client_hiccups_are_the_expovariate_stream():
    """Every request hits a hiccup here: a flush sleeps for the client
    overhead plus the hiccup, and the inlined exponential draw gives bit
    for bit the sleeps that ``Random.expovariate`` gave."""
    from test_ssd_device import record_sleeps

    profile = replace(aws_io2_profile(64 * MiB), hiccup_probability=1.0)
    sim = Simulator()
    device = EssdDevice(sim, profile)
    sleeps = record_sleeps(device)

    def flusher():
        for _ in range(200):
            yield device.flush()
    sim.process(flusher())
    sim.run()
    reference = random.Random(profile.seed)
    expected = []
    for _ in range(200):
        overhead = profile.client_overhead_us
        assert reference.random() < 1.0
        overhead += reference.expovariate(1.0 / profile.hiccup_mean_us)
        expected.append(overhead)
    assert sleeps == expected
