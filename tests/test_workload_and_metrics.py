"""Tests for workload generation (patterns, FIO jobs, traces) and metrics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.io import IOKind, KiB, MiB
from repro.metrics import (
    LatencyRecorder,
    ThroughputTimeline,
    coefficient_of_variation,
    latency_gap,
    throughput_gain,
)
from repro.sim import Simulator
from repro.ssd import SsdDevice, samsung_970pro_profile
from repro.workload import (
    FioJob,
    MixedPattern,
    RandomPattern,
    SequentialPattern,
    Trace,
    TraceEvent,
    ZipfianPattern,
    make_pattern,
    replay_trace,
    run_job,
    synthesize_bursty_trace,
    synthesize_diurnal_trace,
    synthesize_uniform_trace,
)
from repro.workload.fio import run_streams


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def test_sequential_pattern_wraps_and_stays_aligned():
    pattern = SequentialPattern(64 * KiB, 16 * KiB, IOKind.WRITE)
    draws = [pattern.next() for _ in range(6)]
    assert [offset for _kind, offset in draws] == \
        [0, 16 * KiB, 32 * KiB, 48 * KiB, 0, 16 * KiB]
    assert all(kind is IOKind.WRITE for kind, _offset in draws)


def test_random_pattern_is_aligned_in_range_and_deterministic():
    a = RandomPattern(1 * MiB, 4 * KiB, seed=9)
    b = RandomPattern(1 * MiB, 4 * KiB, seed=9)
    offsets = [a.next()[1] for _ in range(200)]
    assert offsets == [b.next()[1] for _ in range(200)]
    assert all(offset % (4 * KiB) == 0 for offset in offsets)
    assert all(0 <= offset < 1 * MiB for offset in offsets)
    assert len(set(offsets)) > 50


def test_zipfian_pattern_is_skewed():
    pattern = ZipfianPattern(4 * MiB, 4 * KiB, seed=3)
    counts = {}
    for _ in range(2000):
        _kind, offset = pattern.next()
        counts[offset] = counts.get(offset, 0) + 1
    top = max(counts.values())
    assert top > 2000 / len(counts) * 5  # clearly hotter than uniform


def test_mixed_pattern_write_ratio_roughly_respected():
    base = RandomPattern(1 * MiB, 4 * KiB, seed=1)
    mixed = MixedPattern(base, write_ratio=0.7, seed=2)
    kinds = [mixed.next()[0] for _ in range(2000)]
    writes = sum(1 for kind in kinds if kind is IOKind.WRITE)
    assert 0.6 < writes / 2000 < 0.8


def test_make_pattern_names_and_errors():
    for name in ("read", "write", "randread", "randwrite", "zipfread", "zipfwrite"):
        assert make_pattern(name, 1 * MiB, 4 * KiB) is not None
    assert make_pattern("randrw", 1 * MiB, 4 * KiB, write_ratio=0.5) is not None
    with pytest.raises(ValueError):
        make_pattern("randrw", 1 * MiB, 4 * KiB)
    with pytest.raises(ValueError):
        make_pattern("nonsense", 1 * MiB, 4 * KiB)


@settings(max_examples=30, deadline=None)
@given(io_size_kib=st.sampled_from([4, 16, 64]),
       region_mib=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=1000))
def test_pattern_offsets_always_fit_the_region(io_size_kib, region_mib, seed):
    """Property: every generated request fits entirely inside the region."""
    io_size = io_size_kib * KiB
    region = region_mib * MiB
    for name in ("randread", "write", "zipfwrite"):
        pattern = make_pattern(name, region, io_size, seed=seed)
        for _ in range(50):
            _kind, offset = pattern.next()
            assert 0 <= offset
            assert offset + io_size <= region
            assert offset % io_size == 0


# ---------------------------------------------------------------------------
# FioJob / run_job
# ---------------------------------------------------------------------------

def test_fiojob_validation():
    with pytest.raises(ValueError):
        FioJob(io_count=None, total_bytes=None, runtime_us=None)
    with pytest.raises(ValueError):
        FioJob(io_count=0)
    with pytest.raises(ValueError):
        FioJob(io_count=10, queue_depth=0)


def test_run_job_io_count_and_latency_accounting():
    sim = Simulator()
    device = SsdDevice(sim, samsung_970pro_profile(64 * MiB))
    job = FioJob(name="j", pattern="randwrite", io_size=4 * KiB, queue_depth=4,
                 io_count=100, ramp_ios=10)
    result = run_job(sim, device, job)
    assert result.ios_completed == 90  # ramp I/Os excluded
    assert len(result.latency) == 90
    assert result.bytes_written == 90 * 4 * KiB
    assert result.throughput_gbps > 0
    assert result.iops > 0
    assert result.latency.summary().count == 90


def test_run_job_runtime_stop_condition():
    sim = Simulator()
    device = SsdDevice(sim, samsung_970pro_profile(64 * MiB))
    job = FioJob(name="t", pattern="randread", io_size=4 * KiB, queue_depth=2,
                 runtime_us=5000.0)
    device.preload()
    result = run_job(sim, device, job)
    assert result.duration_us <= 7000.0
    assert result.ios_completed > 0


def test_run_jobs_concurrent_mix():
    sim = Simulator()
    device = SsdDevice(sim, samsung_970pro_profile(64 * MiB))
    device.preload()
    jobs = [FioJob(name="r", pattern="randread", io_size=4 * KiB, queue_depth=2, io_count=50),
            FioJob(name="w", pattern="randwrite", io_size=4 * KiB, queue_depth=2, io_count=50)]
    results = run_streams(sim, [(device, job) for job in jobs])
    assert results[0].bytes_read == 50 * 4 * KiB
    assert results[1].bytes_written == 50 * 4 * KiB


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def test_uniform_trace_load_matches_target():
    trace = synthesize_uniform_trace(duration_us=100_000, load_gbps=0.5,
                                     io_size=64 * KiB, seed=1)
    assert trace.mean_load_gbps() == pytest.approx(0.5, rel=0.1)
    assert trace.write_bytes() == trace.total_bytes


def test_bursty_trace_peak_exceeds_mean():
    trace = synthesize_bursty_trace(duration_us=400_000, mean_load_gbps=0.4,
                                    burst_factor=6.0, burst_fraction=0.1, seed=2)
    assert trace.peak_load_gbps(1000.0) > 3 * trace.mean_load_gbps()
    assert trace.mean_load_gbps() == pytest.approx(0.4, rel=0.25)


def test_bursty_trace_validation():
    with pytest.raises(ValueError):
        synthesize_bursty_trace(1000, 1.0, burst_factor=20, burst_fraction=0.5)


def test_diurnal_trace_oscillates():
    trace = synthesize_diurnal_trace(duration_us=200_000, mean_load_gbps=0.3,
                                     peak_to_trough=4.0, seed=3)
    series = trace.offered_load_series(10_000.0)
    assert max(series) > 1.5 * min(s for s in series if s > 0)


def test_trace_csv_roundtrip(tmp_path):
    trace = synthesize_uniform_trace(duration_us=20_000, load_gbps=0.2, seed=4,
                                     write_ratio=0.5)
    path = tmp_path / "trace.csv"
    trace.save_csv(path)
    loaded = Trace.load_csv(path)
    assert len(loaded) == len(trace)
    assert loaded.total_bytes == trace.total_bytes
    assert loaded.events[0].kind is trace.events[0].kind


def test_trace_append_requires_time_order():
    trace = Trace()
    trace.append(TraceEvent(10.0, IOKind.WRITE, 0, 4096))
    with pytest.raises(ValueError):
        trace.append(TraceEvent(5.0, IOKind.WRITE, 0, 4096))
    with pytest.raises(ValueError):
        TraceEvent(-1.0, IOKind.WRITE, 0, 4096)


def test_replay_trace_completes_all_requests():
    sim = Simulator()
    device = SsdDevice(sim, samsung_970pro_profile(64 * MiB))
    trace = synthesize_uniform_trace(duration_us=30_000, load_gbps=0.3,
                                     io_size=64 * KiB, region_bytes=64 * MiB, seed=5)
    result = replay_trace(sim, device, trace)
    assert result.ios_completed == len(trace)
    assert result.unfinished == 0
    assert result.mean_latency_us > 0
    assert result.bytes_read + result.bytes_written == trace.total_bytes
    assert result.bytes_written == trace.write_bytes()
    assert result.started_us == 0.0
    assert result.finished_us == result.timeline.events()[-1][0]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_latency_recorder_summary_and_percentiles():
    recorder = LatencyRecorder()
    recorder.extend(float(v) for v in range(1, 1001))
    summary = recorder.summary()
    assert summary.count == 1000
    assert summary.mean_us == pytest.approx(500.5)
    assert summary.p50_us == pytest.approx(500.5, rel=0.01)
    assert recorder.p999() == pytest.approx(999, rel=0.01)
    assert summary.min_us == 1 and summary.max_us == 1000
    quartet = LatencyRecorder()
    quartet.extend([1.0, 2.0, 3.0, 4.0])
    assert quartet.percentile(50) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        recorder.record(-1.0)


def test_latency_extend_rejects_what_record_rejects_in_one_batch():
    """A batch with a negative value is rejected whole, even behind a NaN
    in first place (which would stay ``min``'s answer); a NaN alone is
    accepted, as ``record`` accepts it."""
    recorder = LatencyRecorder()
    for batch in ([math.nan, -1.0, 5.0], [5.0, math.nan, -2.0], [-0.5]):
        with pytest.raises(ValueError, match="negative latency"):
            recorder.extend(batch)
        assert len(recorder) == 0
    recorder.extend([math.nan, 3.0])
    recorder.record(math.nan)
    recorder.extend(iter([1.0, 2.0]))
    samples = recorder.samples.tolist()
    assert len(samples) == 5
    assert [value for value in samples if value == value] == [3.0, 1.0, 2.0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=400))
def test_latency_summary_percentiles_equal_one_call_per_percentile(samples):
    """The summary takes its percentiles from one ``np.percentile`` call;
    each equals, bit for bit, a call for that percentile alone."""
    recorder = LatencyRecorder()
    recorder.extend(samples)
    summary = recorder.summary()
    assert (summary.p50_us, summary.p90_us, summary.p95_us, summary.p99_us,
            summary.p999_us) == tuple(
        recorder.percentile(q) for q in (50, 90, 95, 99, 99.9))


def test_latency_recorder_empty_and_merge():
    empty = LatencyRecorder("a")
    assert empty.summary().count == 0
    assert empty.mean() == 0.0
    other = LatencyRecorder("b")
    other.record(5.0)
    merged = empty.merge(other)
    assert len(merged) == 1


def test_throughput_timeline_binning_and_average():
    timeline = ThroughputTimeline()
    for index in range(100):
        timeline.record(index * 100.0, 1000)
    assert timeline.total_bytes == 100_000
    samples = timeline.binned(1000.0)
    assert len(samples) == 10
    assert samples[0].bytes_completed == 10_000
    assert samples[0].gigabytes_per_second == pytest.approx(0.01)
    assert timeline.average_gbps() > 0
    with pytest.raises(ValueError):
        timeline.record(0.0, 10)  # out of order


def test_throughput_timeline_trailing_bins_report_sane_rates():
    # A partial trailing bin is normalised by its actual span...
    timeline = ThroughputTimeline()
    for index in range(30):
        timeline.record(index * 100.0, 1000)
    samples = timeline.binned(2000.0)
    assert samples[-1].duration_us == pytest.approx(900.0)
    assert samples[-1].gigabytes_per_second == pytest.approx(0.01, rel=0.15)
    # ...but a sliver just past a boundary folds into the previous bin
    # instead of being divided by a near-zero span.
    sliver = ThroughputTimeline()
    for index in range(20):
        sliver.record(index * 100.0, 1000)
    sliver.record(2001.0, 1000)
    samples = sliver.binned(1000.0)
    assert len(samples) == 2
    assert samples[-1].bytes_completed == 11_000
    assert all(sample.gigabytes_per_second < 0.05 for sample in samples)
    # Degenerate single-timestamp timeline: no span to derive a rate from;
    # assume the bin width instead of dividing by ~zero.
    single = ThroughputTimeline()
    single.record(5.0, 1000)
    samples = single.binned(1000.0)
    assert len(samples) == 1
    assert samples[0].gigabytes_per_second == pytest.approx(0.001)


def test_stats_helpers():
    assert latency_gap(300.0, 10.0) == 30.0
    assert latency_gap(0.0, 0.0) == 1.0
    assert math.isinf(latency_gap(10.0, 0.0))
    assert throughput_gain(2.0, 1.0) == 2.0
    assert coefficient_of_variation([1.0, 1.0, 1.0]) == 0.0
    assert coefficient_of_variation([]) == 0.0
    with pytest.raises(ValueError):
        latency_gap(-1, 1)
    with pytest.raises(ValueError):
        throughput_gain(-1, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=300))
def test_latency_recorder_percentiles_bounded_by_extremes(samples):
    """Property: every percentile lies between min and max of the samples."""
    recorder = LatencyRecorder()
    recorder.extend(samples)
    summary = recorder.summary()
    assert summary.min_us <= summary.p50_us <= summary.max_us
    assert summary.min_us <= summary.p999_us <= summary.max_us
    assert summary.min_us <= summary.mean_us <= summary.max_us
