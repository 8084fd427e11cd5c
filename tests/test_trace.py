"""Tests for the request-path tracing layer (sim/trace.py + device hooks)."""

import pytest

from repro.devices import LoopbackDevice, create_device
from repro.experiments.cli import _render_stage_breakdown
from repro.host.io import MiB
from repro.sim import Simulator, Tracer
from repro.workload.fio import FioJob, run_job


def test_tracing_is_off_by_default():
    sim = Simulator()
    device = create_device(sim, "SSD", capacity_bytes=64 * MiB)
    assert device.tracer is None
    run_job(sim, device, FioJob(pattern="randwrite", io_count=5))
    # Nothing recorded anywhere, and nothing crashed.


def test_loopback_stage_breakdown_accounts_all_time():
    sim = Simulator()
    device = LoopbackDevice(sim, capacity_bytes=4 * MiB, service_time_us=20.0,
                            service_slots=1)
    tracer = Tracer(sim)
    device.set_tracer(tracer)
    result = run_job(sim, device, FioJob(pattern="randread", io_count=4,
                                         queue_depth=4, region_bytes=MiB))
    assert tracer.completed_requests == 4
    assert tracer.open_requests == 0
    breakdown = tracer.breakdown()
    assert set(breakdown) == {"submit", "queue", "service"}
    # Every request spends exactly the service time in "service".
    assert breakdown["service"]["count"] == 4
    assert breakdown["service"]["mean_us"] == pytest.approx(20.0)
    # With one slot and QD4, queueing dominates: 0+20+40+60 us of waiting.
    assert breakdown["queue"]["total_us"] == pytest.approx(120.0)
    # Stage spans partition each request's latency exactly.
    traced_total = sum(stats["total_us"] for stats in breakdown.values())
    recorded_total = float(result.latency.samples.sum())
    assert traced_total == pytest.approx(recorded_total)
    assert sum(stats["share"] for stats in breakdown.values()) == pytest.approx(1.0)


def test_ssd_trace_covers_queue_service_media():
    sim = Simulator()
    device = create_device(sim, "SSD", capacity_bytes=64 * MiB)
    tracer = Tracer(sim)
    device.set_tracer(tracer)
    run_job(sim, device, FioJob(pattern="randwrite", io_count=20, queue_depth=4))
    breakdown = tracer.breakdown()
    assert {"submit", "queue", "service", "media"} <= set(breakdown)
    assert breakdown["media"]["count"] == 20
    assert breakdown["service"]["mean_us"] > 0


def test_essd_trace_covers_service_queue_network():
    sim = Simulator()
    device = create_device(sim, "ESSD-2", capacity_bytes=64 * MiB)
    tracer = Tracer(sim)
    device.set_tracer(tracer)
    run_job(sim, device, FioJob(pattern="randwrite", io_count=15, queue_depth=2))
    breakdown = tracer.breakdown()
    assert {"submit", "service", "queue", "network"} <= set(breakdown)
    # The storage-cluster round trip dominates an ESSD write.
    assert breakdown["network"]["share"] > 0.5


def test_one_tracer_shared_by_several_devices_splits_per_device():
    sim = Simulator()
    ssd = create_device(sim, "SSD", capacity_bytes=64 * MiB)
    essd = create_device(sim, "ESSD-1", capacity_bytes=64 * MiB)
    tracer = Tracer(sim)
    ssd.set_tracer(tracer)
    essd.set_tracer(tracer)
    from repro.workload.fio import run_streams
    run_streams(sim, [
        (ssd, FioJob(name="on-ssd", pattern="randwrite", io_count=10)),
        (essd, FioJob(name="on-essd", pattern="randwrite", io_count=10)),
    ])
    assert tracer.devices() == sorted([ssd.name, essd.name])
    ssd_only = tracer.breakdown(ssd.name)
    assert "network" not in ssd_only and "media" in ssd_only
    essd_only = tracer.breakdown(essd.name)
    assert "network" in essd_only and "media" not in essd_only
    payload = tracer.to_payload()
    assert payload["completed_requests"] == 20
    assert set(payload["devices"]) == {ssd.name, essd.name}


def test_render_produces_one_row_per_stage():
    sim = Simulator()
    device = LoopbackDevice(sim, capacity_bytes=4 * MiB, service_time_us=5.0)
    tracer = Tracer(sim)
    device.set_tracer(tracer)
    run_job(sim, device, FioJob(pattern="randread", io_count=3, region_bytes=MiB))
    stages = tracer.to_payload()["stages"]
    text = _render_stage_breakdown(stages)
    assert "service" in text and "share" in text
    # A header, a rule, then one row per stage.
    assert len(text.splitlines()) == 2 + len(stages)
    assert Tracer(sim).to_payload() == {"completed_requests": 0, "stages": {}}


def test_keep_spans_retains_recent_request_lifecycles():
    sim = Simulator()
    device = LoopbackDevice(sim, capacity_bytes=4 * MiB, service_time_us=5.0)
    tracer = Tracer(sim, keep_spans=2)
    device.set_tracer(tracer)
    run_job(sim, device, FioJob(pattern="randread", io_count=5, region_bytes=MiB))
    assert len(tracer.spans) == 2  # only the most recent two retained
    span = tracer.spans[-1]
    assert span["device"] == "loopback"
    assert span["complete_us"] - span["submit_us"] == pytest.approx(5.0)
    stages = [stage for stage, _start, _end in span["spans"]]
    assert stages[0] == "submit" and "service" in stages


def test_detaching_tracer_stops_recording():
    sim = Simulator()
    device = LoopbackDevice(sim, capacity_bytes=4 * MiB, service_time_us=5.0)
    tracer = Tracer(sim)
    device.set_tracer(tracer)
    run_job(sim, device, FioJob(pattern="randread", io_count=2, region_bytes=MiB))
    device.set_tracer(None)
    run_job(sim, device, FioJob(pattern="randread", io_count=4, region_bytes=MiB))
    assert tracer.completed_requests == 2
