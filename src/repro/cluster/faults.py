"""Declarative fault injection: failures, repairs, drains, overload shedding.

A :class:`FaultEvent` names a device (or a whole group) and a time; the
fleet applies the resulting state flips **at epoch barriers** so that fault
timing -- like replica-delivery timing -- is quantized onto the exact same
``index * epoch_us`` float grid the shard runner synchronizes on.  That is
what keeps a faulted ``shards=N`` run bit-identical to the serial path:
every shard sees the flip with its clock sitting exactly on the barrier,
never mid-epoch at a layout-dependent instant.

Three failure semantics are provided:

* ``kind="fail"`` -- the device drops offline at the fault barrier and
  (optionally) returns after ``repair_after_us``.  A failure triggers a
  **re-replication storm**: the data the device had absorbed is rebuilt
  onto a promoted hot spare (``spare=<group>``) or round-robin across the
  surviving peers of its own group, as paced rebuild writes competing with
  foreground tenants through the ordinary :class:`repro.devices.Device`
  submission path.
* ``kind="drain"`` -- the device stops serving (planned maintenance) with
  no rebuild traffic; with ``repair_after_us`` it returns to service.
* Overload shedding -- while a device is offline, requests are not queued
  forever: the :class:`FaultInjector` proxy *sheds* them after a fixed
  ``shed_penalty_us`` (an immediate EIO-with-backoff model).  The optional
  ``max_inflight`` knob extends the same admission control to healthy
  devices, bounding the rebuild-vs-foreground overload.

:class:`FaultInjector` wraps any object satisfying the
:class:`repro.devices.Device` protocol, so failures compose with every
device family (SSD, ESSD, loopback) and with single-device sweep cells as
well as fleets.  The fleet's schedule rules -- :func:`offline_spans`,
:func:`rebuild_chunks` and :func:`fault_window` -- are shared by discrete
shards and macro groups, so both modes read one schedule the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.determinism import canonical_json
from repro.host.io import IORequest, KiB
from repro.sim.events import spawn_process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import FleetTopology
    from repro.sim import Simulator

__all__ = [
    "FaultEvent",
    "FaultPolicy",
    "FaultInjector",
    "fault",
    "fault_epoch",
    "fault_window",
    "offline_spans",
    "parse_fault_spec",
    "rebuild_chunks",
    "schedule_cell_faults",
]

_KINDS = ("fail", "drain")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: a device (or group) leaving service at a time.

    ``at_us`` is quantized *up* to the next epoch barrier by the fleet
    runner (:func:`fault_epoch`); ``repair_after_us`` measures from the
    requested ``at_us``, and the repair barrier is likewise rounded up (and
    always lands strictly after the fault barrier, so no fault is a no-op).
    ``device=None`` fails every device of the group -- a node failure in
    the paper's sense, since a group models one machine's device fleet.
    """

    kind: str
    group: str
    at_us: float
    device: Optional[int] = None
    repair_after_us: Optional[float] = None
    #: Hot-spare group: rebuild traffic targets this group instead of the
    #: surviving peers (``kind="fail"`` only).
    spare: Optional[str] = None

    def __post_init__(self) -> None:
        # Times are floats whatever number they were given as, so a
        # topology's canonical document reads back to the same JSON.
        object.__setattr__(self, "at_us", float(self.at_us))
        if self.repair_after_us is not None:
            object.__setattr__(self, "repair_after_us",
                               float(self.repair_after_us))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {_KINDS})")
        if self.at_us < 0:
            raise ValueError(f"fault at_us must be >= 0, got {self.at_us}")
        if self.repair_after_us is not None and self.repair_after_us <= 0:
            raise ValueError("repair_after_us must be positive when given")
        if self.device is not None and self.device < 0:
            raise ValueError(f"negative device index: {self.device}")
        if self.spare is not None and self.kind != "fail":
            raise ValueError("spare promotion only applies to kind='fail'")


@dataclass(frozen=True)
class FaultPolicy:
    """How the fleet reacts to failures and overload.

    The rebuild pacing knobs double as the QoS control the paper's
    recovery discussion calls for: fewer/larger chunks per epoch trade
    rebuild time against foreground interference.
    """

    #: Size of one rebuild write (must stay a multiple of the 4 KiB
    #: logical block size every registered device family uses).
    rebuild_chunk_bytes: int = 256 * KiB
    #: Rebuild chunks released per epoch barrier (per failed device) --
    #: the storm's admission rate.
    rebuild_chunks_per_epoch: int = 8
    #: Latency charged to a request shed by an offline device (the
    #: timeout-and-fail-fast path a real initiator would take).
    shed_penalty_us: float = 200.0
    #: Optional admission cap: a device with this many requests already in
    #: flight sheds new arrivals instead of queueing them (``None``
    #: disables the cap).
    max_inflight: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "shed_penalty_us", float(self.shed_penalty_us))
        if self.rebuild_chunk_bytes < 4096 or self.rebuild_chunk_bytes % 4096:
            raise ValueError("rebuild_chunk_bytes must be a positive "
                             "multiple of 4096")
        if self.rebuild_chunks_per_epoch < 1:
            raise ValueError("rebuild_chunks_per_epoch must be >= 1")
        if self.shed_penalty_us < 0:
            raise ValueError("shed_penalty_us must be non-negative")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 when given")


def fault_epoch(at_us: float, epoch_us: float) -> int:
    """The epoch-barrier index a fault lands on (rounded up)."""
    return max(0, math.ceil(at_us / epoch_us))


def repair_epoch(event: FaultEvent, epoch_us: float) -> Optional[int]:
    """The barrier index the device returns to service (``None`` = never).

    Always strictly after the fault barrier so every fault has effect.
    """
    if event.repair_after_us is None:
        return None
    down = fault_epoch(event.at_us, epoch_us)
    back = fault_epoch(event.at_us + event.repair_after_us, epoch_us)
    return max(down + 1, back)


# ---------------------------------------------------------------------------
# Fleet schedule rules (shared by discrete shards and macro groups)
# ---------------------------------------------------------------------------

def offline_spans(topology: "FleetTopology", epoch: int) -> list[range]:
    """Global index spans down at barrier ``epoch`` under ``topology``'s
    *declared* schedule -- computed from the topology alone, so every shard
    layout and both group modes see the same answer.  Devices failing at
    the same barrier conservatively see each other as offline."""
    epoch_us = topology.epoch_us
    spans: list[range] = []
    for event in topology.faults:
        down = fault_epoch(event.at_us, epoch_us)
        back = repair_epoch(event, epoch_us)
        if down <= epoch and (back is None or back > epoch):
            spans.append(topology.fault_span(event))
    return spans


def rebuild_chunks(rebuilt: int, chunk: int, policy: FaultPolicy,
                   down_epoch: int) -> list[tuple[int, int, int]]:
    """The paced storm re-replicating ``rebuilt`` bytes: ``(offset, size,
    delivery_epoch)`` per ``chunk``-byte chunk (the last padded up to 4 KiB),
    ``policy.rebuild_chunks_per_epoch`` per barrier from ``down_epoch + 1``.
    """
    chunks = []
    for j in range(math.ceil(rebuilt / chunk)):
        size = min(chunk, rebuilt - j * chunk)
        size += (-size) % 4096
        chunks.append((j * chunk, size,
                       down_epoch + 1 + j // policy.rebuild_chunks_per_epoch))
    return chunks


def fault_window(event: FaultEvent, epoch_us: float, group: str, device: int,
                 index: int, down_epoch: int,
                 chunks: list[tuple[int, int, int]]) -> dict[str, Any]:
    """The degraded-window record of one device going offline.  It ends at
    the later of the repair and the storm's end (chunks delivered at barrier
    ``e`` land within ``(e, e+1]``), whichever exists; ``end_us=None`` means
    degraded until the end of the run."""
    back = repair_epoch(event, epoch_us)
    repair_us = back * epoch_us if back is not None else None
    ends = [] if repair_us is None else [repair_us]
    if chunks:
        ends.append((chunks[-1][2] + 1) * epoch_us)
    return {
        "kind": event.kind,
        "group": group,
        "device": device,
        "index": index,
        "start_us": down_epoch * epoch_us,
        "end_us": max(ends, default=None),
        "repair_us": repair_us,
        "spare": event.spare,
        "rebuild_chunks": len(chunks),
        "rebuild_bytes": sum(size for _, size, _ in chunks),
    }


# ---------------------------------------------------------------------------
# Device proxy
# ---------------------------------------------------------------------------

class FaultInjector:
    """A :class:`repro.devices.Device` proxy adding failure + admission.

    While ``offline`` the proxy sheds every request after
    ``shed_penalty_us`` and marks it ``request.shed = True`` so workload
    hooks (replication, metrics) can tell a refused write from a served
    one.  Shed requests still complete with a latency, which is exactly
    how the closed-loop workload experiences an outage: a burst of fast
    failures rather than an infinite stall.
    """

    def __init__(self, sim: "Simulator", inner: Any, policy: FaultPolicy):
        self.sim = sim
        self.inner = inner
        self.policy = policy
        self.offline = False
        self.shed_ios = 0
        self.shed_bytes = 0
        self._inflight = 0

    # -- protocol delegation ------------------------------------------------
    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def capacity_bytes(self) -> int:
        return self.inner.capacity_bytes

    @property
    def logical_block_size(self) -> int:
        return self.inner.logical_block_size

    @property
    def stats(self):
        return self.inner.stats

    def describe(self) -> dict:
        payload = self.inner.describe()
        payload["offline"] = self.offline
        payload["shed_ios"] = self.shed_ios
        return payload

    def preload(self, offset: int = 0, size: Optional[int] = None) -> None:
        self.inner.preload(offset, size)

    def set_tracer(self, tracer) -> None:
        self.inner.set_tracer(tracer)

    # -- submission path ----------------------------------------------------
    def submit(self, request: IORequest):
        # Like ``device.submit``, the returned event is yielded inline by
        # its one caller, so the wrapping processes come from the pool.
        cap = self.policy.max_inflight
        if self.offline or (cap is not None and self._inflight >= cap):
            return spawn_process(self.sim, self._shed(request))
        if cap is None:
            return self.inner.submit(request)
        self._inflight += 1
        return spawn_process(self.sim, self._tracked(request))

    def read(self, offset: int, size: int, **kwargs):
        return self.submit(IORequest.read(offset, size, **kwargs))

    def write(self, offset: int, size: int, **kwargs):
        return self.submit(IORequest.write(offset, size, **kwargs))

    def flush(self, **kwargs):
        return self.submit(IORequest.flush(**kwargs))

    def _shed(self, request: IORequest):
        request.shed = True
        self.shed_ios += 1
        self.shed_bytes += request.size
        request.submit_time = self.sim.now
        yield self.policy.shed_penalty_us
        request.complete_time = self.sim.now
        return request

    def _tracked(self, request: IORequest):
        # A request the inner device rejects still leaves flight.
        try:
            result = yield self.inner.submit(request)
        finally:
            self._inflight -= 1
        return result


# ---------------------------------------------------------------------------
# Spec parsing (CLI / CellSpec plumbing)
# ---------------------------------------------------------------------------

def parse_fault_spec(spec: Any) -> tuple[tuple[FaultEvent, ...], FaultPolicy]:
    """Parse a fault schedule from JSON text or an already-decoded document.

    Accepts either a bare list of fault events or ``{"events": [...],
    "policy": {...}}``, read by :func:`repro.config.fault_spec_from_document`
    exactly like a topology document's ``faults`` and ``fault_policy``: an
    unknown or mistyped key raises a :class:`repro.config.ConfigError` (a
    ``ValueError``) naming its path, e.g. ``faults[0].devcie``.
    """
    from repro.config import fault_spec_from_document

    if isinstance(spec, str):
        spec = json.loads(spec)
    return fault_spec_from_document(spec)


def canonical_fault_spec(events: Iterable[FaultEvent],
                         policy: FaultPolicy) -> str:
    """Canonical JSON of a fault schedule's document form (what
    ``CellSpec.faults`` stores and the sweep cache hashes)."""
    from repro.config import fault_spec_to_document

    return canonical_json(fault_spec_to_document(events, policy))


def schedule_cell_faults(sim: "Simulator", device: Any,
                         events: Iterable[FaultEvent],
                         policy: FaultPolicy) -> FaultInjector:
    """Wrap a sweep cell's device in a :class:`FaultInjector` proxy and
    schedule the offline/online flips at their exact requested times.

    A device cell runs on one simulator, so there is no epoch grid to
    quantize onto -- flips are ordinary timed processes.  Fleet runs never
    use this path (the shard runner applies flips at barriers).
    """
    proxy = FaultInjector(sim, device, policy)

    def flip(event: FaultEvent):
        if event.at_us > 0:
            yield event.at_us
        proxy.offline = True
        if event.repair_after_us is not None:
            yield event.repair_after_us
            proxy.offline = False

    for event in events:
        sim.process(flip(event))
    return proxy
