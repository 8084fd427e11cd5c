"""Mean-field macro model: whole device groups as one aggregate process.

The discrete fleet path gives every device its own event-loop citizenship,
which tops out at hundreds of devices.  A :class:`MacroGroup` replaces an
entire *untraced* device group with a vectorized queueing approximation
(numpy over per-epoch arrays) whose cost per epoch is independent of the
group's ``count`` -- fleet size becomes a constant-cost parameter, so one
topology can hold 100k+ simulated devices next to a handful of discrete
"microscope" groups under one clock.

The model is **calibrated, not invented**: for every (device profile,
workload shape) pair, :func:`calibrate_workload` runs the real discrete
:class:`~repro.devices.Device` once -- the tenant's exact FIO job at its
exact queue depth (I/O count capped), plus a queue-depth-1 probe -- and
records the observed completion rate, the latency quantile sketch, and an
effective parallelism ``c_eff = rate * s1`` (the M/G/k-style service
knob).  An in-process memo keyed on the probe's inputs (device, params,
capacity, preload, workload and seed) computes each calibration once per
process; a fleet cell's whole result is cached by the sweep cache, so a
cached cell never calibrates at all.

Runtime semantics (all **epoch-barrier quantized**, exactly like replica
deliveries and fault flips in the discrete path):

* closed-loop tenants drain their per-device I/O budget at the calibrated
  rate; latency samples are the calibrated quantiles scaled by the
  window's contention slowdown;
* open-loop trace tenants bucket one representative synthesized trace
  into per-epoch arrivals (times ``count`` -- the mean-field step) and
  serve them through a backlog queue at the calibrated saturation rate,
  charging a queueing wait on top of the base quantiles;
* replica/rebuild bytes arriving over replication edges join a per-group
  backlog served from the headroom the tenants leave; sustained inflow
  slows the tenants down (closed-loop coupling);
* faults flip an *offline device count* at their barriers: offline
  devices shed at the policy's ``shed_penalty_us`` pace, failures emit
  paced rebuild traffic onto the spare or the surviving peers, under the
  discrete path's own schedule rules (:mod:`repro.cluster.faults`).

Every metric a macro group reports is flagged ``approximate: True`` --
the validation harness (``tests/test_macro_validation.py``,
``benchmarks/test_bench_macro.py``) holds the approximation inside
declared tolerance bands against the discrete model on matched small
fleets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.cluster.faults import (
    FaultEvent,
    fault_epoch,
    fault_window,
    offline_spans,
    rebuild_chunks,
    repair_epoch,
)
from repro.cluster.topology import DeviceGroup, FleetTopology
from repro.determinism import derive_seed, spec_hash

__all__ = [
    "MacroCalibration",
    "MacroGroup",
    "calibrate_workload",
    "clear_calibration_memo",
]

#: Calibration-run cap: a tenant's stop condition is honoured exactly up
#: to this many I/Os, beyond it the observed rate is extrapolated.
CAL_MAX_IOS = 2048
#: Queue-depth-1 probe length (service-time floor for the M/G/k knob).
CAL_QD1_IOS = 256
#: Probe depth used when a tenant has no natural queue depth (traces).
CAL_TRACE_DEPTH = 8
#: Points in the calibrated latency quantile sketch.
CAL_QUANTILES = 65
#: Cap on latency samples emitted per (tenant, macro group) payload --
#: evenly spaced quantile draws, weighted per epoch, so merged
#: percentiles stay meaningful without shipping 100k-device sample sets.
LATENCY_SAMPLE_CAP = 512
#: Cap on replica-latency samples kept per message kind.
REPLICA_SAMPLE_CAP = 256
#: Cap on timeline entries per payload (byte totals stay exact).
TIMELINE_CAP = 512
#: Safety bound on macro windows stepped in one ``advance_to`` call.
MAX_MACRO_EPOCHS = 10_000_000

#: Utilisation ceiling for the contention coupling (keeps the slowdown
#: factor finite when replica inflow saturates a group).
_RHO_CAP = 0.8


@dataclass(frozen=True)
class MacroCalibration:
    """What one discrete calibration run measured."""

    io_size: int
    #: Recorded (post-ramp) I/Os and the read share of them.
    ios_recorded: int
    read_ios: int
    #: Recorded I/Os completed per microsecond per device at the tenant's
    #: queue depth (ramp time included in the denominator, exactly like
    #: the discrete job's duration).
    rate_per_us: float
    #: Queue-depth-1 mean response (the service-time floor).
    s1_us: float
    #: Effective parallelism ``rate * s1`` clamped to [1, queue_depth]:
    #: the ``k`` of the M/G/k-style response curve.
    c_eff: float
    #: Latency quantiles at the calibrated depth (CAL_QUANTILES points,
    #: evenly spaced in probability).
    quantiles: tuple
    #: Latency quantiles of the queue-depth-1 probe (open-loop base).
    base_quantiles: tuple

    @property
    def read_fraction(self) -> float:
        return self.read_ios / self.ios_recorded if self.ios_recorded else 0.0

    @property
    def bytes_per_us(self) -> float:
        """Saturation byte bandwidth per device (the replica-service rate)."""
        if self.s1_us <= 0:
            return float("inf")
        return self.c_eff * self.io_size / self.s1_us

    def response_us(self, depth: float) -> float:
        """M/G/k-style closed-loop response at queue depth ``depth``:
        exact at the calibrated anchors, linear beyond ``c_eff``."""
        return self.s1_us * max(1.0, depth / self.c_eff)

    def sample_quantiles(self, count: int, scale: float = 1.0,
                         base: bool = False) -> np.ndarray:
        """``count`` evenly spaced draws from the calibrated distribution."""
        table = np.asarray(self.base_quantiles if base else self.quantiles)
        probs = (np.arange(count) + 0.5) / count * 100.0
        grid = np.linspace(0.0, 100.0, len(table))
        return np.interp(probs, grid, table) * scale


# ---------------------------------------------------------------------------
# Calibration (memoized in-process)
# ---------------------------------------------------------------------------

_CAL_MEMO: dict[str, MacroCalibration] = {}


def clear_calibration_memo() -> None:
    """Drop the in-process calibration memo (tests)."""
    _CAL_MEMO.clear()


def _calibration_key(group: DeviceGroup, workload: Mapping[str, Any],
                     seed: int) -> str:
    # The probe's inputs only: the memo lives for one process, and the
    # model source cannot change inside one.
    return spec_hash({
        "device": group.device,
        "device_params": [list(pair) for pair in group.device_params],
        "capacity_bytes": group.device_capacity,
        "preload": group.preload,
        "workload": dict(workload),
        "seed": seed,
    })


def _proxy_job_fields(workload: Mapping[str, Any]) -> dict[str, Any]:
    """The closed-loop FIO shape used to calibrate a workload.

    Closed-loop tenants calibrate as themselves (stop condition capped);
    trace tenants calibrate through a random-access proxy job matching
    their I/O size and read/write mix at :data:`CAL_TRACE_DEPTH`.
    """
    fields = dict(workload)
    if "trace" not in fields:
        ramp = int(fields.get("ramp_ios", 0) or 0)
        if fields.get("io_count") is not None:
            issued = int(fields["io_count"])
        elif fields.get("total_bytes") is not None:
            issued = int(fields["total_bytes"]) // int(
                fields.get("io_size", 4096))
        else:  # runtime-bounded: probe a bounded window
            issued = CAL_MAX_IOS
        cal_ios = min(max(issued, 1), max(CAL_MAX_IOS, ramp + 64))
        fields.pop("total_bytes", None)
        fields.pop("runtime_us", None)
        fields["io_count"] = cal_ios
        return fields
    write_ratio = float(fields.get("write_ratio", 1.0))
    if write_ratio >= 1.0:
        pattern, ratio = "randwrite", None
    elif write_ratio <= 0.0:
        pattern, ratio = "randread", None
    else:
        pattern, ratio = "randrw", write_ratio
    return {
        "pattern": pattern,
        "io_size": int(fields.get("io_size", 64 * 1024)),
        "write_ratio": ratio,
        "queue_depth": CAL_TRACE_DEPTH,
        "io_count": CAL_MAX_IOS // 2,
    }


def _run_probe(group: DeviceGroup, job_fields: Mapping[str, Any], seed: int):
    from repro.sim import Simulator
    from repro.workload.fio import FioJob, run_job

    sim = Simulator()
    device = group.build(sim, f"macro-cal-{group.device}")
    return run_job(sim, device, FioJob(name="macro-cal", seed=seed,
                                       **job_fields))


def calibrate_workload(group: DeviceGroup, workload: Mapping[str, Any],
                       seed: int) -> MacroCalibration:
    """Measure the discrete device once and return the macro parameters.

    The calibration seed derives from logical identities only (never the
    shard layout), so every shard -- and every layout -- computes the
    identical calibration; the memo is purely an optimisation.
    """
    key = _calibration_key(group, workload, seed)
    cached = _CAL_MEMO.get(key)
    if cached is not None:
        return cached

    fields = _proxy_job_fields(workload)
    qd1_fields = {**fields, "queue_depth": 1,
                  "io_count": min(CAL_QD1_IOS, int(fields["io_count"]))}
    result = _run_probe(group, fields, seed)
    probe = _run_probe(group, qd1_fields, seed)
    samples = result.latency.samples
    base_samples = probe.latency.samples
    rate = result.ios_completed / max(result.duration_us, 1e-9)
    s1 = float(base_samples.mean()) if len(base_samples) else 1.0
    depth = int(fields.get("queue_depth", 1))
    c_eff = min(float(depth), max(1.0, rate * s1))
    grid = np.linspace(0.0, 100.0, CAL_QUANTILES)
    cal = MacroCalibration(
        io_size=int(fields.get("io_size", 4096)),
        ios_recorded=result.ios_completed,
        read_ios=result.bytes_read // int(fields.get("io_size", 4096)),
        rate_per_us=rate,
        s1_us=max(s1, 1e-9),
        c_eff=c_eff,
        quantiles=tuple(float(q) for q in np.percentile(samples, grid))
        if len(samples) else (0.0,) * CAL_QUANTILES,
        base_quantiles=tuple(float(q)
                             for q in np.percentile(base_samples, grid))
        if len(base_samples) else (0.0,) * CAL_QUANTILES,
    )
    _CAL_MEMO[key] = cal
    return cal


# ---------------------------------------------------------------------------
# Per-tenant mean-field state
# ---------------------------------------------------------------------------

class _WindowRecord:
    """One epoch window's completions for a tenant (latency bookkeeping)."""

    __slots__ = ("end_us", "served", "scale", "shed", "base_wait")

    def __init__(self, end_us: float, served: float, scale: float,
                 shed: float = 0.0, base_wait: Optional[float] = None):
        self.end_us = end_us
        self.served = served      # mean-field I/O count served normally
        self.scale = scale        # latency multiplier on the quantile sketch
        self.shed = shed          # I/Os shed by offline devices
        self.base_wait = base_wait  # additive wait (open-loop), else None


class _ClosedLoopTenant:
    """A closed-loop FIO tenant across every device of a macro group."""

    is_trace = False

    def __init__(self, name: str, cal: MacroCalibration, count: int,
                 workload: Mapping[str, Any], shed_penalty_us: float):
        self.name = name
        self.cal = cal
        self.count = count
        self.io_size = int(workload.get("io_size", 4096))
        self.queue_depth = int(workload.get("queue_depth", 1))
        self.think_us = float(workload.get("think_time_us", 0.0) or 0.0)
        ramp = int(workload.get("ramp_ios", 0) or 0)
        if workload.get("io_count") is not None:
            issued = int(workload["io_count"])
        elif workload.get("total_bytes") is not None:
            issued = int(workload["total_bytes"]) // self.io_size
        else:
            issued = int(round(cal.rate_per_us
                               * float(workload["runtime_us"])))
        per_device = max(0, issued - ramp)
        #: Mean-field budget: recorded I/Os still to complete, pooled over
        #: the whole group (offline devices consume it by shedding).
        self.remaining = float(per_device * count)
        self.total_target = per_device * count
        self.shed_penalty_us = shed_penalty_us
        self.records: list[_WindowRecord] = []
        self.finished_us = 0.0
        self.shed_total = 0.0

    @property
    def active(self) -> bool:
        return self.remaining > 1e-9

    def demand_utilisation(self) -> float:
        """Fraction of a device's effective parallelism this tenant uses."""
        if not self.active:
            return 0.0
        return min(1.0, self.cal.rate_per_us * self.cal.s1_us
                   / self.cal.c_eff)

    def step(self, start_us: float, dt: float, online: int, offline: int,
             slowdown: float) -> tuple[float, float]:
        """Advance one window; return (served ios, shed ios)."""
        if not self.active:
            return 0.0, 0.0
        rate_online = self.cal.rate_per_us / slowdown * online
        shed_each = self.queue_depth / (self.shed_penalty_us + self.think_us) \
            if self.shed_penalty_us + self.think_us > 0 else 0.0
        rate_shed = shed_each * offline
        total_rate = rate_online + rate_shed
        if total_rate <= 0:
            return 0.0, 0.0
        budget = total_rate * dt
        if budget >= self.remaining:
            # Sub-epoch finish: the exact instant the budget drains.
            dt = self.remaining / total_rate
            budget = self.remaining
        served = budget * (rate_online / total_rate)
        shed = budget - served
        self.remaining -= budget
        self.shed_total += shed
        self.records.append(_WindowRecord(start_us + dt, served,
                                          slowdown, shed))
        if not self.active:
            self.finished_us = start_us + dt
        return served, shed

    def write_fraction(self) -> float:
        return 1.0 - self.cal.read_fraction


class _TraceTenant:
    """An open-loop trace tenant: per-epoch arrivals through a backlog."""

    is_trace = True

    def __init__(self, name: str, cal: MacroCalibration, count: int,
                 workload: Mapping[str, Any], epoch_us: float, seed: int,
                 shed_penalty_us: float):
        from repro.workload.trace import synthesize_trace

        self.name = name
        self.cal = cal
        self.count = count
        fields = dict(workload)
        family = fields.pop("trace")
        self.io_size = int(fields.get("io_size", 64 * 1024))
        self._write_ratio = float(fields.get("write_ratio", 1.0))
        trace = synthesize_trace(family, seed=seed, name=name, **fields)
        # Mean-field: one representative arrival process, scaled by count.
        times = np.asarray([event.timestamp_us for event in trace])
        windows = np.floor(times / epoch_us).astype(int) + 1
        self.arrivals = np.bincount(windows) * count \
            if len(windows) else np.zeros(1, dtype=int)
        self.total_target = len(trace) * count
        self.queue = 0.0
        self.injected = 0
        self.shed_penalty_us = shed_penalty_us
        self.records: list[_WindowRecord] = []
        self.finished_us = 0.0
        self.shed_total = 0.0

    @property
    def active(self) -> bool:
        return self.queue > 1e-9 or self.injected < len(self.arrivals)

    def next_arrival_window(self) -> Optional[int]:
        for window in range(self.injected, len(self.arrivals)):
            if self.arrivals[window]:
                return window
        return None

    def demand_utilisation(self) -> float:
        return 1.0 if self.queue > 0 else 0.0

    def step(self, window: int, start_us: float, dt: float, online: int,
             offline: int, slowdown: float) -> tuple[float, float]:
        arrivals = float(self.arrivals[window]) \
            if window < len(self.arrivals) else 0.0
        self.injected = max(self.injected, min(window + 1,
                                               len(self.arrivals)))
        shed = 0.0
        if offline and self.count:
            shed = arrivals * offline / self.count
            arrivals -= shed
            self.shed_total += shed
        waiting = self.queue
        self.queue += arrivals
        service_rate = online * self.cal.c_eff / self.cal.s1_us / slowdown
        served = min(self.queue, service_rate * dt)
        self.queue -= served
        wait = waiting / service_rate if service_rate > 0 else 0.0
        if served > 0 or shed > 0:
            self.records.append(_WindowRecord(start_us + dt, served,
                                              slowdown, shed, wait))
        if not self.active:
            self.finished_us = start_us + dt
        return served, shed

    def write_fraction(self) -> float:
        return self._write_ratio


# ---------------------------------------------------------------------------
# The macro group aggregate
# ---------------------------------------------------------------------------

class _Route:
    """One replication edge leaving the macro group (pre-resolved)."""

    __slots__ = ("target_indices", "factor", "to_macro", "carry", "cursor")

    def __init__(self, target_indices: range, factor: int, to_macro: bool):
        self.target_indices = target_indices
        self.factor = factor
        self.to_macro = to_macro  # one aggregate message per window
        self.carry = 0.0          # fractional bytes awaiting emission
        self.cursor = 0           # rotating write offset (bytes)


#: The shard's emitter: ``(origin_index, target_index, offset, size, kind,
#: delivery_epoch)``.  A macro group emits as its first global index, so
#: its messages share one per-origin sequence counter.
EmitFn = Callable[[int, int, int, int, str, int], None]


class MacroGroup:
    """One ``mode="macro"`` device group inside a :class:`ShardWorker`.

    The shard owns the whole group (partitioning keeps macro groups
    atomic); the group advances window-by-window at epoch barriers and
    never schedules simulator events, so its cost is independent of
    ``count``.
    """

    def __init__(self, topology: FleetTopology, group: DeviceGroup):
        self.topology = topology
        self.group = group
        self.count = group.count
        self.epoch_us = topology.epoch_us
        self.indices = topology.group_indices(group.name)
        self.first_index = self.indices.start
        self.epoch = 0
        policy = topology.fault_policy
        self._policy = policy

        base_seed = topology.seed
        self.tenants: list[Any] = []
        for tenant in topology.tenants:
            if tenant.group != group.name:
                continue
            fields = tenant.workload_dict()
            seed = derive_seed(fields.pop("seed", base_seed),
                               {"tenant": tenant.name, "group": group.name,
                                "device": 0})
            cal = calibrate_workload(group, fields, seed)
            if "trace" in fields:
                run = _TraceTenant(tenant.name, cal, group.count, fields,
                                   self.epoch_us, seed,
                                   policy.shed_penalty_us)
            else:
                run = _ClosedLoopTenant(tenant.name, cal, group.count,
                                        fields, policy.shed_penalty_us)
            self.tenants.append(run)

        self.routes = [
            _Route(topology.group_indices(edge.target),
                   edge.policy().replication_factor,
                   topology.group(edge.target).mode == "macro")
            for edge in topology.edges_from(group.name)
        ]

        # Fault schedule projected onto this group, at barrier granularity.
        self._flip_epochs: list[int] = []
        self._down_triggers: list[tuple[int, int, FaultEvent]] = []
        for event in topology.faults:
            if event.group != group.name:
                continue
            down = fault_epoch(event.at_us, self.epoch_us)
            back = repair_epoch(event, self.epoch_us)
            self._flip_epochs.append(down)
            if back is not None:
                self._flip_epochs.append(back)
            local = 0 if event.device is None else event.device
            self._down_triggers.append((down, local, event))
        self._flip_epochs.sort()
        self._down_triggers.sort(key=lambda item: (item[0], item[1]))
        self._triggered = 0

        #: Replica/rebuild inflow waiting for a window: epoch -> per-kind
        #: (count, bytes) aggregates.
        self._pending: dict[int, dict[str, list]] = {}
        self.backlog_bytes = 0.0
        self._backlog_counts: dict[str, float] = {}
        #: Served-inflow stats (what ``collect`` reports per kind).
        self._inflow_stats: dict[str, dict[str, Any]] = {}
        self._fault_windows: list[dict[str, Any]] = []
        self._written_bytes = 0.0  # cumulative tenant write bytes (group)

    # -- fault schedule helpers -------------------------------------------
    def _offline_count(self, epoch: int) -> int:
        """Devices of this group offline at barrier ``epoch`` (declared
        schedule only -- layout-independent by construction).  A span is
        either the whole group or one device, so this never walks the
        group's devices."""
        offline: set[int] = set()
        for span in offline_spans(self.topology, epoch):
            if span == self.indices:
                return self.count
            if span.start in self.indices:
                offline.add(span.start)
        return len(offline)

    # -- inflow ------------------------------------------------------------
    def absorb(self, message) -> None:
        """Fold an inbound :class:`ReplicaMessage` into the next window."""
        self._pend(message.delivery_epoch + 1, message.kind, message.size)

    def _pend(self, window: int, kind: str, size: int) -> None:
        """Queue one inbound message of ``kind`` for ``window`` and count
        it in the inflow stats ``collect_inflow`` reports."""
        entry = self._pending.setdefault(window, {}).setdefault(kind, [0, 0])
        entry[0] += 1
        entry[1] += size
        stats = self._inflow_stats.setdefault(
            kind, {"count": 0, "bytes": 0, "latency": []})
        stats["count"] += 1
        stats["bytes"] += size

    # -- activity scan -----------------------------------------------------
    def next_activity_epoch(self) -> Optional[int]:
        """The earliest barrier index > ``self.epoch`` with work to do."""
        candidates: list[int] = []
        if any(tenant.active for tenant in self.tenants):
            candidates.append(self.epoch + 1)
        if self.backlog_bytes > 1e-9:
            candidates.append(self.epoch + 1)
        pending = [window for window in self._pending if window > self.epoch]
        if pending:
            candidates.append(min(pending))
        for trace in self.tenants:
            if trace.is_trace and trace.active:
                window = trace.next_arrival_window()
                if window is not None:
                    candidates.append(max(self.epoch + 1, window))
        for flip in self._flip_epochs:
            if flip > self.epoch:
                candidates.append(flip + 1)
                break
        return min(candidates) if candidates else None

    # -- advancing ---------------------------------------------------------
    def advance_to(self, target_epoch: int, emit: EmitFn) -> None:
        """Step windows up to barrier ``target_epoch`` (idle ones skipped)."""
        guard = 0
        while self.epoch < target_epoch:
            nxt = self.next_activity_epoch()
            if nxt is None or nxt > target_epoch:
                break
            self._step_window(nxt, emit)
            self.epoch = nxt
            guard += 1
            if guard > MAX_MACRO_EPOCHS:  # pragma: no cover - safety bound
                raise RuntimeError(
                    f"macro group {self.group.name!r} exceeded "
                    f"{MAX_MACRO_EPOCHS} windows")
        self.epoch = max(self.epoch, target_epoch)

    def _step_window(self, window: int, emit: EmitFn) -> None:
        """Advance the whole group across window ``(window-1, window]``."""
        dt = self.epoch_us
        start_us = (window - 1) * self.epoch_us
        offline = min(self.count, self._offline_count(window - 1))
        online = self.count - offline

        # Devices gone down at barriers inside the skipped gap: each opens
        # a degraded window, and a failure also starts its rebuild storm.
        while self._triggered < len(self._down_triggers) and \
                self._down_triggers[self._triggered][0] <= window - 1:
            down_epoch, local, event = self._down_triggers[self._triggered]
            chunks = self._emit_rebuild(down_epoch, local, event, emit) \
                if event.kind == "fail" else []
            record = fault_window(event, self.epoch_us, self.group.name,
                                  local, self.indices[local], down_epoch,
                                  chunks)
            record["approximate"] = True
            self._fault_windows.append(record)
            self._triggered += 1

        # Replica/rebuild inflow joining this window.
        arrivals = self._pending.pop(window, None)
        arrived_bytes = 0
        if arrivals:
            for kind, (count, size) in sorted(arrivals.items()):
                arrived_bytes += size
                self._backlog_counts[kind] = \
                    self._backlog_counts.get(kind, 0.0) + count
        waiting_before = self.backlog_bytes
        inflow = waiting_before + arrived_bytes

        # Contention: tenants consume their calibrated share of the
        # effective parallelism; inflow is served from the headroom, and
        # sustained inflow slows the tenants down in return.
        util = min(0.95, sum(t.demand_utilisation() for t in self.tenants))
        base_bw = max(cal.bytes_per_us for cal in
                      [t.cal for t in self.tenants]) \
            if self.tenants else self._fallback_bw()
        capacity = online * base_bw * max(0.05, 1.0 - util) * dt
        served_bytes = min(inflow, capacity)
        self.backlog_bytes = inflow - served_bytes
        rho = served_bytes / (online * base_bw * dt) \
            if online and base_bw > 0 and dt > 0 else 0.0
        slowdown = 1.0 / (1.0 - min(_RHO_CAP, rho))

        if served_bytes > 0:
            self._record_inflow_latency(window, served_bytes,
                                        waiting_before, capacity / dt
                                        if dt > 0 else 0.0)

        # Tenants.
        for tenant in self.tenants:
            if tenant.is_trace:
                served, _shed = tenant.step(window, start_us, dt, online,
                                            offline, slowdown)
            else:
                served, _shed = tenant.step(start_us, dt, online, offline,
                                            slowdown)
            if served > 0:
                write_bytes = served * tenant.io_size \
                    * tenant.write_fraction()
                self._written_bytes += write_bytes
                if write_bytes > 0 and self.routes:
                    self._emit_replicas(window, write_bytes, emit)

    def _fallback_bw(self) -> float:
        """Byte bandwidth for a tenant-less macro group (pure replica
        sink): calibrate a generic sequential-write probe once."""
        cal = calibrate_workload(
            self.group, {"pattern": "write", "io_size": 64 * 1024,
                         "queue_depth": 8, "io_count": 512},
            derive_seed(self.topology.seed,
                        {"group": self.group.name, "probe": "sink"}))
        return cal.bytes_per_us

    def _record_inflow_latency(self, window: int, served_bytes: float,
                               waiting_before: float,
                               service_rate: float) -> None:
        """Charge this window's served inflow a queueing-wait estimate."""
        base = self.tenants[0].cal if self.tenants else None
        s_byte = (base.s1_us / base.io_size) if base else 0.001
        wait = waiting_before / service_rate if service_rate > 0 else 0.0
        served_share = served_bytes / max(1.0, served_bytes
                                          + self.backlog_bytes)
        for kind in sorted(self._backlog_counts):
            count = self._backlog_counts[kind]
            served_count = count * served_share
            if served_count < 0.5 and self.backlog_bytes > 1e-9:
                continue
            self._backlog_counts[kind] = count - served_count
            stats = self._inflow_stats.setdefault(
                kind, {"count": 0, "bytes": 0, "latency": []})
            if len(stats["latency"]) < REPLICA_SAMPLE_CAP:
                avg = served_bytes / max(served_count, 1.0)
                stats["latency"].append(float(wait + s_byte * avg))
        if self.backlog_bytes <= 1e-9:
            self._backlog_counts.clear()

    # -- emissions ---------------------------------------------------------
    def _emit_replicas(self, window: int, write_bytes: float,
                       emit: EmitFn) -> None:
        """Mirror this window's tenant writes along the out-edges.

        Macro targets receive one aggregate message per edge; discrete
        targets receive one message per device (its even share), sizes
        rounded to 4 KiB with the remainder carried to the next window.
        """
        for route in self.routes:
            route.carry += write_bytes * route.factor
            if route.to_macro:
                size = int(route.carry) - int(route.carry) % 4096
                if size >= 4096:
                    route.carry -= size
                    emit(self.first_index, route.target_indices[0],
                         route.cursor, size, "replica", window)
                    route.cursor += size
                continue
            share = route.carry / len(route.target_indices)
            size = int(share) - int(share) % 4096
            if size < 4096:
                continue
            for target in route.target_indices:
                emit(self.first_index, target, route.cursor, size,
                     "replica", window)
            route.carry -= size * len(route.target_indices)
            route.cursor += size

    def _emit_rebuild(self, down_epoch: int, local: int, event: FaultEvent,
                      emit: EmitFn) -> list[tuple[int, int, int]]:
        """Paced re-replication of a failed macro device's absorbed bytes.
        Returns the chunks."""
        policy = self._policy
        written_per_device = self._written_bytes / self.count \
            if self.count else 0.0
        rebuilt = min(written_per_device, float(self.group.device_capacity))
        rebuilt = int(rebuilt) - int(rebuilt) % 4096
        chunks = []
        if rebuilt > 0:
            chunks = rebuild_chunks(
                rebuilt, min(policy.rebuild_chunk_bytes, rebuilt), policy,
                down_epoch)
            # A spare group is never the failed group itself, so only a
            # spare-less rebuild stays internal: it re-writes onto this
            # group's surviving peers and joins its own backlog.
            target = None
            if event.spare is not None:
                spare_indices = self.topology.group_indices(event.spare)
                target = spare_indices[local % len(spare_indices)]
            for offset, size, delivery in chunks:
                if target is None:
                    self._pend(delivery + 1, "rebuild", size)
                else:
                    emit(self.first_index, target, offset, size, "rebuild",
                         delivery)
        return chunks

    # -- collection --------------------------------------------------------
    def collect_tenants(self) -> dict[str, dict[str, Any]]:
        """Per-tenant payloads in the discrete per-device schema, plus
        ``approximate: True`` and the aggregated ``devices`` count."""
        payloads: dict[str, dict[str, Any]] = {}
        faulted = bool(self.topology.faults)
        for tenant in self.tenants:
            payloads[tenant.name] = _tenant_payload(tenant, faulted)
        return payloads

    def collect_inflow(self) -> dict[str, dict[str, Any]]:
        """Served replica/rebuild stats keyed by message kind."""
        return {kind: {"count": stats["count"], "bytes": stats["bytes"],
                       "latency": list(stats["latency"])}
                for kind, stats in sorted(self._inflow_stats.items())}

    def collect_fault_windows(self) -> list[dict[str, Any]]:
        return list(self._fault_windows)

    def collect_shed(self) -> dict[str, int]:
        ios = int(round(sum(t.shed_total for t in self.tenants)))
        sizes = sum(t.shed_total * t.io_size for t in self.tenants)
        return {"ios": ios, "bytes": int(round(sizes))}


def _integerize(values: np.ndarray, total: int) -> np.ndarray:
    """Round a nonnegative float series to ints preserving the exact sum."""
    if len(values) == 0:
        return values.astype(int)
    scale = total / values.sum() if values.sum() > 0 else 0.0
    cumulative = np.round(np.cumsum(values * scale)).astype(np.int64)
    out = np.diff(np.concatenate(([0], cumulative)))
    out[-1] += total - out.sum()
    return np.maximum(out, 0)


def _tenant_payload(tenant, faulted: bool) -> dict[str, Any]:
    """Build the per-(tenant, macro group) payload from window records."""
    records = tenant.records
    served = np.asarray([record.served for record in records])
    shed = np.asarray([record.shed for record in records])
    ends = [record.end_us for record in records]
    total = int(round(served.sum() + shed.sum()))
    total = min(total, tenant.total_target) if tenant.total_target else total
    served_total = int(round(served.sum()))
    shed_total = total - served_total
    served_int = _integerize(served, served_total)
    shed_int = _integerize(shed, shed_total)
    ios = int(served_int.sum() + shed_int.sum())

    read_fraction = 1.0 - tenant.write_fraction()
    total_bytes = ios * tenant.io_size
    bytes_read = int(round(total_bytes * read_fraction))
    bytes_written = total_bytes - bytes_read

    # Latency samples: per-window quantile draws weighted by completions.
    sample_budget = min(LATENCY_SAMPLE_CAP, max(ios, 0))
    counts = served_int + shed_int
    alloc = _integerize(counts.astype(float), sample_budget) \
        if counts.sum() else np.zeros(0, dtype=int)
    latency: list[float] = []
    completion_times: list[float] = []
    for idx, record in enumerate(records):
        take = int(alloc[idx]) if idx < len(alloc) else 0
        if take <= 0:
            continue
        window_total = counts[idx]
        shed_take = int(round(take * (shed_int[idx] / window_total))) \
            if window_total else 0
        scaled_take = take - shed_take
        if scaled_take > 0:
            draws = tenant.cal.sample_quantiles(
                scaled_take, scale=record.scale,
                base=record.base_wait is not None)
            if record.base_wait is not None:
                draws = draws + record.base_wait
            latency.extend(float(value) for value in draws)
            completion_times.extend([record.end_us] * scaled_take)
        if shed_take > 0:
            latency.extend([float(tenant.shed_penalty_us)] * shed_take)
            completion_times.extend([record.end_us] * shed_take)

    # Timeline: per-window byte totals (exact), capped via re-binning.
    window_bytes = counts.astype(float) * tenant.io_size
    byte_ints = _integerize(window_bytes, total_bytes)
    timeline = [[end, int(num)] for end, num in zip(ends, byte_ints) if num]
    if len(timeline) > TIMELINE_CAP:
        stride = math.ceil(len(timeline) / TIMELINE_CAP)
        rebinned = []
        for i in range(0, len(timeline), stride):
            chunk = timeline[i:i + stride]
            rebinned.append([chunk[-1][0], sum(entry[1] for entry in chunk)])
        timeline = rebinned

    payload = {
        "ios_completed": ios,
        "bytes_read": bytes_read,
        "bytes_written": bytes_written,
        "started_us": 0.0,
        "finished_us": tenant.finished_us if tenant.finished_us
        else (ends[-1] if ends else 0.0),
        "latency": latency,
        "timeline": timeline,
        "approximate": True,
        "devices": tenant.count,
    }
    if faulted:
        payload["completion_times"] = completion_times
    return payload
