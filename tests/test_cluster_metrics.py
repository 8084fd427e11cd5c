"""Edge-case tests for fleet metric merging (repro.cluster.metrics).

The merge layer has to stay total over degenerate measurement payloads:
tenants that never overlap a fault window, devices with a single latency
sample, zero-duration runs that would divide throughput by zero, and
empty recorders.  Every merged payload must serialize with
``json.dumps(..., allow_nan=False)`` -- NaN/inf leaking into reports is a
bug.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FaultPolicy, fault, fleet, group, tenant
from repro.cluster.metrics import (
    _SplitAggregate,
    _WindowClassifier,
    fleet_headline,
    merge_shard_payloads,
)

CAPACITY = 1 << 24


def metrics_topology(faults=()):
    return fleet(
        "metrics-under-test",
        groups=[
            group("a", "LOOP", 2, capacity_bytes=CAPACITY),
            group("b", "LOOP", 1, capacity_bytes=CAPACITY),
        ],
        tenants=[tenant("t", "a", pattern="randread", io_size=4096,
                        queue_depth=1, io_count=2)],
        faults=list(faults),
        fault_policy=FaultPolicy(),
        epoch_us=100.0,
        seed=1,
    )


def device_payload(*, ios=0, latency=(), timeline=(), started=0.0,
                   finished=0.0, bytes_read=0, bytes_written=0,
                   completion_times=None):
    payload = {
        "ios_completed": ios,
        "bytes_read": bytes_read,
        "bytes_written": bytes_written,
        "started_us": started,
        "finished_us": finished,
        "latency": list(latency),
        "timeline": [list(event) for event in timeline],
    }
    if completion_times is not None:
        payload["completion_times"] = list(completion_times)
    return payload


def shard_payload(tenants, fault_windows=None, **extra):
    payload = {"shard_id": 0, "scheduled_events": 0, "tenants": tenants,
               "replicas": {}}
    if fault_windows is not None:
        payload.update({"rebuilds": {}, "rebuild_reads": {}, "shed": {},
                        "fault_windows": fault_windows})
    payload.update(extra)
    return payload


def window(start, end, index=0, **extra):
    return {"kind": "fail", "group": "a", "device": 0, "index": index,
            "start_us": start, "end_us": end, "repair_us": None,
            "spare": None, "rebuild_chunks": 0, "rebuild_bytes": 0, **extra}


# ---------------------------------------------------------------------------
# _WindowClassifier
# ---------------------------------------------------------------------------

def test_classifier_merges_overlapping_windows():
    classifier = _WindowClassifier(
        [window(100.0, 300.0), window(200.0, 400.0), window(600.0, 700.0)])
    assert classifier.intervals == [(100.0, 400.0), (600.0, 700.0)]
    assert classifier.degraded(100.0)
    assert classifier.degraded(399.0)
    assert not classifier.degraded(400.0)  # half-open on the right
    assert not classifier.degraded(500.0)
    # Clipped to the observation span: only [150, 400) and [600, 650).
    assert classifier.degraded_us(150.0, 650.0) == 300.0


def test_classifier_open_window_stays_degraded_forever():
    classifier = _WindowClassifier([window(100.0, None)])
    assert classifier.degraded(1e12)
    assert classifier.degraded_us(0.0, 500.0) == 400.0


def test_classifier_without_windows_never_degrades():
    classifier = _WindowClassifier([])
    assert not classifier.degraded(0.0)
    assert classifier.degraded_us(0.0, 1000.0) == 0.0


_TIMES = st.sampled_from([0.0, 50.0, 99.5, 100.0, 150.0, 200.0, 250.0,
                          300.0, 1e12, math.nan])


@settings(max_examples=200, deadline=None)
@given(spans=st.lists(st.tuples(_TIMES.filter(lambda t: t == t),
                                st.one_of(st.none(), _TIMES)), max_size=6),
       times=st.lists(_TIMES, max_size=12))
def test_classifier_bisect_agrees_with_a_scan_of_every_interval(spans, times):
    """``degraded`` bisects the merged intervals; it answers as a scan of
    every interval would, at boundaries, in gaps, for zero-length and open
    windows, and for NaN."""
    classifier = _WindowClassifier(
        [window(start, end if end is None else max(start, end))
         for start, end in spans])
    for time_us in times:
        assert classifier.degraded(time_us) == any(
            start <= time_us < end for start, end in classifier.intervals)


# ---------------------------------------------------------------------------
# _SplitAggregate
# ---------------------------------------------------------------------------

def test_split_aggregate_of_empty_payload_is_all_zero():
    split = _SplitAggregate(_WindowClassifier([window(0.0, None)]))
    split.add(device_payload())
    payload = split.to_payload(0.0, 0.0)
    for half in (payload["during_rebuild"], payload["steady"]):
        assert half["ios"] == 0 and half["bytes"] == 0
        assert half["throughput_gbps"] == 0.0
        assert half["p99_us"] == 0.0
    json.dumps(payload, allow_nan=False)


def test_split_aggregate_routes_samples_by_completion_time():
    split = _SplitAggregate(_WindowClassifier([window(100.0, 200.0)]))
    split.add(device_payload(
        ios=3, latency=[10.0, 20.0, 30.0], completion_times=[50.0, 150.0, 250.0],
        timeline=[(50.0, 4096), (150.0, 4096), (250.0, 4096)]))
    payload = split.to_payload(100.0, 200.0)
    assert payload["during_rebuild"]["ios"] == 1
    assert payload["during_rebuild"]["p50_us"] == 20.0
    assert payload["during_rebuild"]["bytes"] == 4096
    assert payload["steady"]["ios"] == 2
    assert payload["steady"]["bytes"] == 2 * 4096


# ---------------------------------------------------------------------------
# merge_shard_payloads edge cases
# ---------------------------------------------------------------------------

def test_merge_with_fault_after_tenant_completed_keeps_windows_empty():
    """A fault landing after the workload drained: the during-rebuild
    population is empty but every metric stays finite and serializable."""
    topology = metrics_topology([fault("fail", "a", at_us=100.0, device=0)])
    tenants = {"t": {
        "0": device_payload(ios=1, latency=[10.0], timeline=[(50.0, 4096)],
                            started=40.0, finished=50.0, bytes_read=4096,
                            completion_times=[50.0]),
        "1": device_payload(ios=1, latency=[12.0], timeline=[(52.0, 4096)],
                            started=40.0, finished=52.0, bytes_read=4096,
                            completion_times=[52.0]),
    }}
    merged = merge_shard_payloads(
        topology, [shard_payload(tenants,
                                 fault_windows=[window(100.0, None, index=0)])])
    faults = merged["faults"]
    assert faults["during_rebuild"]["ios"] == 0
    assert faults["during_rebuild"]["throughput_gbps"] == 0.0
    assert faults["steady"]["ios"] == 2
    assert merged["tenants"]["t"]["faults"]["during_rebuild"]["ios"] == 0
    assert faults["degraded_us"] == 0.0  # window starts after the last finish
    assert faults["rebuild_gbps"] == 0.0
    json.dumps(merged, allow_nan=False)


def test_merge_single_sample_recorders_report_degenerate_percentiles():
    topology = metrics_topology([fault("fail", "a", at_us=10.0, device=0)])
    tenants = {"t": {
        "0": device_payload(ios=1, latency=[37.0], timeline=[(20.0, 4096)],
                            started=10.0, finished=20.0, bytes_read=4096,
                            completion_times=[20.0]),
    }}
    merged = merge_shard_payloads(
        topology, [shard_payload(tenants,
                                 fault_windows=[window(10.0, 30.0, index=0)])])
    tenant_payload = merged["tenants"]["t"]
    assert tenant_payload["mean_us"] == tenant_payload["p50_us"] == \
        tenant_payload["p99_us"] == tenant_payload["max_us"] == 37.0
    during = merged["faults"]["during_rebuild"]
    assert during["ios"] == 1 and during["p999_us"] == 37.0
    json.dumps(merged, allow_nan=False)


def test_merge_zero_duration_devices_yield_zero_throughput_not_nan():
    """started == finished must not divide by zero anywhere (device
    throughput, iops, series binning, fault-window throughput)."""
    topology = metrics_topology([fault("fail", "a", at_us=10.0, device=0)])
    tenants = {"t": {
        "0": device_payload(),  # never started: all zeros
        "1": device_payload(),
    }}
    merged = merge_shard_payloads(
        topology, [shard_payload(tenants,
                                 fault_windows=[window(10.0, None, index=0)])])
    assert merged["fleet"]["duration_us"] == 0.0
    assert merged["fleet"]["throughput_gbps"] == 0.0
    assert merged["fleet"]["iops"] == 0.0
    assert "series" not in merged["fleet"]  # no events -> no binned series
    assert merged["faults"]["steady"]["throughput_gbps"] == 0.0
    json.dumps(merged, allow_nan=False)
    headline = fleet_headline(merged)
    assert headline["throughput_gbps"] == 0.0


def test_merge_is_invariant_to_shard_payload_order():
    """Pooling happens in global-index order, so shuffling which shard
    reports which device cannot change the merged payload."""
    topology = metrics_topology([fault("fail", "a", at_us=10.0, device=0)])
    payload_0 = device_payload(ios=1, latency=[10.0], timeline=[(20.0, 4096)],
                               started=10.0, finished=20.0, bytes_read=4096,
                               completion_times=[20.0])
    payload_1 = device_payload(ios=1, latency=[30.0], timeline=[(25.0, 8192)],
                               started=10.0, finished=25.0, bytes_read=8192,
                               completion_times=[25.0])
    windows = [window(10.0, 40.0, index=0)]
    together = merge_shard_payloads(topology, [
        shard_payload({"t": {"0": payload_0, "1": payload_1}},
                      fault_windows=windows)])
    split = merge_shard_payloads(topology, [
        shard_payload({"t": {"1": payload_1}}, fault_windows=[]),
        shard_payload({"t": {"0": payload_0}}, fault_windows=windows),
    ])
    assert json.dumps(together, sort_keys=True) == \
        json.dumps(split, sort_keys=True)


def test_fault_free_merge_has_no_fault_keys():
    topology = metrics_topology()
    tenants = {"t": {"0": device_payload(), "1": device_payload()}}
    merged = merge_shard_payloads(topology, [shard_payload(tenants)])
    assert "faults" not in merged
    assert "faults" not in merged["tenants"]["t"]
    assert "shed_ios" not in merged["groups"]["a"]
    json.dumps(merged, allow_nan=False)
