"""Fleet-level metric aggregation across shard payloads.

:func:`merge_shard_payloads` takes the per-shard measurement payloads
(:meth:`repro.cluster.shard.ShardWorker.collect`) and folds them into one
fleet report with three levels of aggregation:

* **per tenant** -- the tenant's traffic merged across every device it ran
  on (latency percentiles over the pooled samples, fleet-wide IOPS and
  throughput over the tenant's active window);
* **per group** -- tenant traffic landing on the group's devices plus the
  replica writes the group absorbed through replication edges;
* **fleet-wide** -- everything, plus a binned throughput series.

Merging is deterministic: device payloads are combined in global-index
order and tenants/groups in name order, so a serial run and any sharded
layout produce byte-identical fleet payloads (wall-clock "runtime" data is
kept in a separate section precisely so the physics payload stays
comparable).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Mapping, Optional, Sequence

from repro.cluster.topology import FleetTopology
from repro.metrics.latency import LatencyRecorder
from repro.metrics.throughput import ThroughputTimeline

__all__ = ["merge_shard_payloads", "fleet_headline"]

#: Number of bins in the fleet throughput-over-time series.
SERIES_BINS = 24


def _summary_dict(recorder: LatencyRecorder) -> dict[str, float]:
    summary = recorder.summary()
    return {
        "mean_us": summary.mean_us,
        "p50_us": summary.p50_us,
        "p95_us": summary.p95_us,
        "p99_us": summary.p99_us,
        "p999_us": summary.p999_us,
        "max_us": summary.max_us,
    }


class _Aggregate:
    """Accumulates device payloads in a fixed, layout-independent order."""

    def __init__(self) -> None:
        self.devices = 0
        self.ios = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.recorder = LatencyRecorder()
        self.events: list[tuple[float, int, int]] = []  # (t, gidx, bytes)
        #: True when any contributing payload is a macro approximation.
        self.approximate = False

    def add(self, index: int, payload: Mapping[str, Any]) -> None:
        # A macro aggregate reports a whole group through one payload; its
        # ``devices`` field carries the represented count.
        self.devices += payload.get("devices", 1)
        if payload.get("approximate"):
            self.approximate = True
        self.ios += payload["ios_completed"]
        self.bytes_read += payload["bytes_read"]
        self.bytes_written += payload["bytes_written"]
        started = payload["started_us"]
        finished = payload["finished_us"]
        self.started = started if self.started is None \
            else min(self.started, started)
        self.finished = finished if self.finished is None \
            else max(self.finished, finished)
        self.recorder.extend(payload["latency"])
        self.events.extend((time_us, index, num_bytes)
                           for time_us, num_bytes in payload["timeline"])

    @property
    def duration_us(self) -> float:
        if self.started is None or self.finished is None:
            return 0.0
        return self.finished - self.started

    def timeline(self) -> ThroughputTimeline:
        timeline = ThroughputTimeline()
        # Stable sort on (time, global index): cross-device completions at
        # one timestamp merge in the same order under every shard layout.
        timeline.record_many((time_us, num_bytes) for time_us, _, num_bytes
                             in sorted(self.events, key=lambda e: (e[0], e[1])))
        return timeline

    def to_payload(self) -> dict[str, Any]:
        duration = self.duration_us
        total = self.bytes_read + self.bytes_written
        payload: dict[str, Any] = {
            "devices": self.devices,
            "ios_completed": self.ios,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "duration_us": duration,
            "throughput_gbps": total / duration / 1000.0 if duration > 0 else 0.0,
            "iops": self.ios / duration * 1e6 if duration > 0 else 0.0,
        }
        payload.update(_summary_dict(self.recorder))
        if self.approximate:
            # Only ever present as True: exact payloads stay unchanged, so
            # the flag can never diff an exact run against itself.
            payload["approximate"] = True
        return payload


class _WindowClassifier:
    """Splits completions into during-rebuild vs steady populations.

    The degraded intervals come from the per-shard fault-window records
    (failure barrier through rebuild/repair completion); an interval with
    ``end_us=None`` stays degraded until the end of the run.
    """

    def __init__(self, windows: Sequence[Mapping[str, Any]]):
        spans = sorted(
            (window["start_us"],
             math.inf if window["end_us"] is None else window["end_us"])
            for window in windows)
        merged: list[list[float]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        self.intervals = [(start, end) for start, end in merged]
        self._starts = [start for start, _ in merged]
        self._ends = [end for _, end in merged]

    def degraded(self, time_us: float) -> bool:
        # The merged intervals are sorted and disjoint, so only the last
        # one starting at or before ``time_us`` can hold it.
        index = bisect_right(self._starts, time_us) - 1
        return index >= 0 and time_us < self._ends[index]

    def degraded_us(self, start_us: float, finish_us: float) -> float:
        """Total degraded time clipped to the observation span."""
        total = 0.0
        for start, end in self.intervals:
            lo = max(start, start_us)
            hi = min(end, finish_us)
            if hi > lo:
                total += hi - lo
        return total


class _SplitAggregate:
    """During-rebuild / steady halves of one latency+bytes population."""

    def __init__(self, classifier: _WindowClassifier):
        self.classifier = classifier
        self.during = LatencyRecorder()
        self.steady = LatencyRecorder()
        self.during_bytes = 0
        self.steady_bytes = 0

    def add(self, payload: Mapping[str, Any]) -> None:
        degraded = self.classifier.degraded
        times = payload.get("completion_times", ())
        during: list[float] = []
        steady: list[float] = []
        for time_us, latency in zip(times, payload["latency"]):
            (during if degraded(time_us) else steady).append(latency)
        self.during.extend(during)
        self.steady.extend(steady)
        for time_us, num_bytes in payload["timeline"]:
            if degraded(time_us):
                self.during_bytes += num_bytes
            else:
                self.steady_bytes += num_bytes

    def to_payload(self, degraded_us: float,
                   steady_us: float) -> dict[str, Any]:
        during = _summary_dict(self.during)
        during["ios"] = len(self.during)
        during["bytes"] = self.during_bytes
        during["throughput_gbps"] = (
            self.during_bytes / degraded_us / 1000.0 if degraded_us > 0
            else 0.0)
        steady = _summary_dict(self.steady)
        steady["ios"] = len(self.steady)
        steady["bytes"] = self.steady_bytes
        steady["throughput_gbps"] = (
            self.steady_bytes / steady_us / 1000.0 if steady_us > 0 else 0.0)
        return {"during_rebuild": during, "steady": steady}


def merge_shard_payloads(topology: FleetTopology,
                         shard_payloads: Sequence[Mapping[str, Any]],
                         ) -> dict[str, Any]:
    """Merge per-shard measurement payloads into the fleet report."""
    faulted = bool(topology.faults)

    # tenant -> {global index -> device payload}, merged across shards.
    per_tenant: dict[str, dict[int, Mapping[str, Any]]] = {}
    for shard in shard_payloads:
        for tenant_name, devices in shard["tenants"].items():
            bucket = per_tenant.setdefault(tenant_name, {})
            for index_str, payload in devices.items():
                bucket[int(index_str)] = payload

    # Fault windows are reported by the shard owning the failed device;
    # sorting on (start, global index) keeps the merged list (and every
    # classification derived from it) layout-independent.
    windows: list[Mapping[str, Any]] = []
    for shard in shard_payloads:
        windows.extend(shard.get("fault_windows", ()))
    windows.sort(key=lambda window: (window["start_us"], window["index"]))
    classifier = _WindowClassifier(windows)

    tenants: dict[str, Any] = {}
    groups: dict[str, _Aggregate] = {}
    fleet = _Aggregate()
    fleet_split = _SplitAggregate(classifier)
    for tenant_name in sorted(per_tenant):
        aggregate = _Aggregate()
        split = _SplitAggregate(classifier)
        for index in sorted(per_tenant[tenant_name]):
            payload = per_tenant[tenant_name][index]
            aggregate.add(index, payload)
            fleet.add(index, payload)
            group_name = topology.locate(index)[0].name
            groups.setdefault(group_name, _Aggregate()).add(index, payload)
            if faulted:
                split.add(payload)
                fleet_split.add(payload)
        tenants[tenant_name] = aggregate.to_payload()
        tenants[tenant_name]["group"] = next(
            tenant.group for tenant in topology.tenants
            if tenant.name == tenant_name)
        if faulted:
            start = aggregate.started if aggregate.started is not None else 0.0
            finish = aggregate.finished if aggregate.finished is not None \
                else 0.0
            degraded = classifier.degraded_us(start, finish)
            tenants[tenant_name]["faults"] = split.to_payload(
                degraded, max(0.0, (finish - start) - degraded))

    # Replica traffic absorbed per target device, then pooled per group in
    # global-index order -- a split target group merged in shard order
    # would pool the same samples differently and break the bit-identical
    # serial-vs-sharded invariant.  Rebuild-storm traffic pools the same
    # way under its own keys.
    replicas = _pool_by_group(topology, shard_payloads, "replicas")
    rebuilds = _pool_by_group(topology, shard_payloads, "rebuilds") \
        if faulted else {}
    rebuild_reads = _pool_by_group(topology, shard_payloads, "rebuild_reads") \
        if faulted else {}
    shed_by_group: dict[str, dict[str, int]] = {}
    if faulted:
        per_device_shed: dict[int, Mapping[str, Any]] = {}
        for shard in shard_payloads:
            for index_str, stats in shard.get("shed", {}).items():
                per_device_shed[int(index_str)] = stats
        for index in sorted(per_device_shed):
            stats = per_device_shed[index]
            bucket = shed_by_group.setdefault(
                topology.locate(index)[0].name, {"ios": 0, "bytes": 0})
            bucket["ios"] += stats["ios"]
            bucket["bytes"] += stats["bytes"]

    group_payloads: dict[str, Any] = {}
    for group in topology.groups:
        aggregate = groups.get(group.name, _Aggregate())
        payload = aggregate.to_payload()
        payload["device_type"] = group.device
        payload["devices"] = group.count
        if group.mode == "macro":
            payload["approximate"] = True
        replica = replicas.get(group.name)
        payload["replica_writes"] = replica["count"] if replica else 0
        payload["replica_bytes"] = replica["bytes"] if replica else 0
        if replica and replica["latency"]:
            recorder = LatencyRecorder()
            recorder.extend(replica["latency"])
            payload["replica_mean_us"] = recorder.mean()
            payload["replica_p99_us"] = recorder.percentile(99)
        if faulted:
            rebuild = rebuilds.get(group.name)
            payload["rebuild_writes"] = rebuild["count"] if rebuild else 0
            payload["rebuild_bytes"] = rebuild["bytes"] if rebuild else 0
            if rebuild and rebuild["latency"]:
                recorder = LatencyRecorder()
                recorder.extend(rebuild["latency"])
                payload["rebuild_mean_us"] = recorder.mean()
                payload["rebuild_p99_us"] = recorder.percentile(99)
            source = rebuild_reads.get(group.name)
            payload["rebuild_reads"] = source["count"] if source else 0
            payload["rebuild_read_bytes"] = source["bytes"] if source else 0
            shed = shed_by_group.get(group.name, {"ios": 0, "bytes": 0})
            payload["shed_ios"] = shed["ios"]
            payload["shed_bytes"] = shed["bytes"]
        group_payloads[group.name] = payload

    fleet_payload = fleet.to_payload()
    fleet_payload["devices"] = topology.total_devices
    if topology.has_macro:
        fleet_payload["approximate"] = True
    fleet_payload["replica_writes"] = sum(
        payload["replica_writes"] for payload in group_payloads.values())
    fleet_payload["replica_bytes"] = sum(
        payload["replica_bytes"] for payload in group_payloads.values())
    duration = fleet.duration_us
    if duration > 0 and fleet.events:
        bin_us = max(1000.0, duration / SERIES_BINS)
        samples = fleet.timeline().binned(bin_us)
        fleet_payload["series_bin_us"] = bin_us
        fleet_payload["series"] = [
            [sample.bytes_completed, sample.gigabytes_per_second]
            for sample in samples
        ]

    faults_payload: Optional[dict[str, Any]] = None
    if faulted:
        start = fleet.started if fleet.started is not None else 0.0
        finish = fleet.finished if fleet.finished is not None else 0.0
        degraded_us = classifier.degraded_us(start, finish)
        steady_us = max(0.0, (finish - start) - degraded_us)
        rebuild_bytes = sum(payload.get("rebuild_bytes", 0)
                            for payload in group_payloads.values())
        faults_payload = {
            "events": [dict(window) for window in windows],
            "degraded_us": degraded_us,
            "rebuild_writes": sum(payload.get("rebuild_writes", 0)
                                  for payload in group_payloads.values()),
            "rebuild_bytes": rebuild_bytes,
            # Rebuild bandwidth over the degraded window vs what the
            # foreground tenants pushed through the same window -- the
            # storm-vs-tenant competition headline.
            "rebuild_gbps": (rebuild_bytes / degraded_us / 1000.0
                             if degraded_us > 0 else 0.0),
            "rebuild_reads": sum(payload.get("rebuild_reads", 0)
                                 for payload in group_payloads.values()),
            "rebuild_read_bytes": sum(
                payload.get("rebuild_read_bytes", 0)
                for payload in group_payloads.values()),
            "shed_ios": sum(payload.get("shed_ios", 0)
                            for payload in group_payloads.values()),
            "shed_bytes": sum(payload.get("shed_bytes", 0)
                              for payload in group_payloads.values()),
        }
        faults_payload.update(fleet_split.to_payload(degraded_us, steady_us))

    result = {
        "topology": {
            "name": topology.name,
            "devices": topology.total_devices,
            "groups": len(topology.groups),
            "tenants": len(topology.tenants),
            "edges": len(topology.edges),
            "epoch_us": topology.epoch_us,
            "seed": topology.seed,
        },
        "fleet": fleet_payload,
        "tenants": tenants,
        "groups": group_payloads,
    }
    if faults_payload is not None:
        result["faults"] = faults_payload
    return result


def _pool_by_group(topology: FleetTopology,
                   shard_payloads: Sequence[Mapping[str, Any]],
                   key: str) -> dict[str, dict[str, Any]]:
    """Pool per-device count/bytes/latency stats per group, in
    global-index order (the layout-independent pooling order)."""
    per_device: dict[int, Mapping[str, Any]] = {}
    for shard in shard_payloads:
        for index_str, stats in shard.get(key, {}).items():
            per_device[int(index_str)] = stats
    pooled: dict[str, dict[str, Any]] = {}
    for index in sorted(per_device):
        stats = per_device[index]
        bucket = pooled.setdefault(
            topology.locate(index)[0].name,
            {"count": 0, "bytes": 0, "latency": []})
        bucket["count"] += stats["count"]
        bucket["bytes"] += stats["bytes"]
        bucket["latency"].extend(stats["latency"])
    return pooled


def fleet_headline(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Flat headline metrics (the keys the sweep CLI tables expect)."""
    fleet = payload["fleet"]
    headline = {key: fleet[key] for key in (
        "ios_completed", "bytes_read", "bytes_written", "duration_us",
        "throughput_gbps", "iops", "mean_us", "p50_us", "p95_us", "p99_us",
        "p999_us", "max_us")}
    if fleet.get("approximate"):
        # Macro (mean-field) fleets flag every derived metric; exact
        # results carry no key at all, so cached diffs stay clean.
        headline["approximate"] = True
    return headline
