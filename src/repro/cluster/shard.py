"""One shard of a fleet simulation: a Simulator owning a device slice.

A :class:`ShardWorker` instantiates the devices named by its
:class:`ShardPlan`, binds every tenant workload that targets those devices
(closed-loop FIO jobs or open-loop trace replays, each with a seed derived
from the tenant/device identity so the shard layout cannot change any RNG
stream), and then advances in **bounded time epochs**:

* :meth:`ShardWorker.advance` takes a grant -- a barrier index and the
  replica messages other shards sent it -- and steps its simulator from
  epoch barrier to epoch barrier up to that index, skipping idle epochs.
  It returns the messages its devices emitted for other shards and the
  index of its earliest pending barrier.
* Replica deliveries are quantized to the *next* ``epoch_us`` boundary
  after the originating write completes (``delivery_epoch`` carries the
  boundary as an exact integer index), so a message emitted inside epoch
  ``k`` is always deliverable at or after the barrier ``(k+1) * epoch_us``
  where the coordinator collects it -- the conservative-synchronization
  invariant that lets shards run an epoch in parallel without ever sending
  a message into another shard's past.
* Every message, from this shard or another, is held until the shard's
  clock sits on its delivery barrier and then *injected* sorted by the
  layout-independent :func:`inbox_order` key, after that barrier's fault
  flips.  A grant stops as soon as the shard steps onto the granted
  barrier and leaves that barrier's work to the next grant, whose batch
  may hold other shards' messages due there.  Injection order therefore
  never depends on the shard layout or on the windows the coordinator
  granted.

The module-level ``_worker_*`` functions are the process-pool entry points:
the coordinator gives each shard a dedicated single-worker
``ProcessPoolExecutor``, so the worker process keeps the ``ShardWorker``
(simulator, devices, half-run generators) resident in a module global
between epoch tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Iterator, NamedTuple, Optional, Sequence

from repro.cluster.faults import (
    FaultEvent,
    FaultInjector,
    fault_epoch,
    fault_window,
    offline_spans,
    rebuild_chunks,
    repair_epoch,
)
from repro.cluster.topology import DeviceGroup, FleetTopology, Tenant
from repro.determinism import derive_seed
from repro.host.io import IOKind, IORequest

__all__ = ["ReplicaMessage", "ShardPlan", "ShardWorker", "inbox_order"]


class ReplicaMessage(NamedTuple):
    """One cross-group replica write travelling between (or within) shards.

    ``(origin_index, origin_seq)`` is a layout-independent identity: the
    per-origin-device emission counter advances identically no matter which
    shard the device lands on, so sorting inbound messages by
    ``(delivery_epoch, origin_index, origin_seq)`` yields the same
    submission order in every layout -- the key to bit-identical sharded
    runs.

    ``delivery_epoch`` is the delivery barrier as an exact integer epoch
    index (the barrier time is ``delivery_epoch * epoch_us``): barrier
    comparisons stay integral instead of trusting float equality.
    """

    target_index: int
    offset: int
    size: int
    origin_index: int
    origin_seq: int
    delivery_epoch: int
    #: ``"replica"`` for tenant-write mirroring, ``"rebuild"`` for the
    #: re-replication storm after a device failure and ``"rebuild-read"``
    #: for the storm's source reads.  Rebuild messages ride the exact same
    #: barrier machinery (and the same per-origin sequence counter), so
    #: faulted runs inherit the layout-independence proof.
    kind: str = "replica"


def inbox_order(message: ReplicaMessage) -> tuple:
    """Injection order for same-barrier messages: the documented
    layout-independent identity key (see :class:`ReplicaMessage`)."""
    return (message.delivery_epoch, message.origin_index, message.origin_seq)


@dataclass(frozen=True)
class ShardPlan:
    """The device slice one shard owns: ascending ``(start, stop)`` spans
    of global indices, so a plan's size grows with the number of groups it
    holds, never with their device counts.  Spans are non-empty and
    separated (touching spans are merged), so every plan has one form."""

    shard_id: int
    spans: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous_stop = None
        for start, stop in self.spans:
            if start >= stop or (previous_stop is not None
                                 and start <= previous_stop):
                raise ValueError(
                    f"shard {self.shard_id} span ({start}, {stop}) is empty "
                    "or not separated from the span before it")
            previous_stop = stop


class _FaultFlip(NamedTuple):
    """One scheduled device-state flip, pinned to an epoch barrier."""

    epoch: int
    order: int   # declaration order of the originating FaultEvent
    index: int   # global device index
    action: str  # "offline" | "online"
    event: FaultEvent


class ShardWorker:
    """Owns one :class:`~repro.sim.Simulator` plus its fleet slice."""

    def __init__(self, topology: FleetTopology, plan: ShardPlan):
        from repro.sim import Simulator

        self.topology = topology
        self.plan = plan
        self.sim = Simulator()
        #: Macro (mean-field) groups resident on this shard, in global-index
        #: order.  A macro group is a zero-device aggregate: it owns its
        #: index range for partitioning/routing but schedules no simulator
        #: events (see :mod:`repro.cluster.macro`).
        self._macro: list[Any] = []
        #: global index -> device instance (construction in index order keeps
        #: the shard deterministic).
        self.devices: dict[int, Any] = {}
        #: global index -> (group name, local index)
        self._placement: dict[int, tuple[str, int]] = {}
        self._outbound: list[ReplicaMessage] = []
        self._origin_seq: dict[int, int] = {}
        #: Replica messages for this shard's devices, its own and other
        #: shards', waiting for their delivery barrier; persists across
        #: advance() calls.
        self._held: list[ReplicaMessage] = []
        #: The epoch barrier index this shard's clock sits on (the shard
        #: runs its simulator barrier to barrier, so ``sim.now ==
        #: _position * epoch_us`` between grants).
        self._position = 0
        #: Inbound traffic ledger: message kind -> target device global
        #: index (as str) -> ``{"count", "bytes", "latency"}``.  Keyed per
        #: *device*, not per group: a split target group would otherwise
        #: pool samples in shard order and break the bit-identical merge
        #: (the fleet merge re-pools in global-index order).
        self._inflow: dict[str, dict[str, dict[str, Any]]] = {}
        #: (tenant name, global index, JobResult or ReplayResult)
        self._runs: list[tuple[str, int, Any]] = []
        #: Fault flips for *owned* devices, sorted by barrier then
        #: declaration order; ``_flip_index`` is the applied prefix.
        self._flips: list[_FaultFlip] = []
        self._flip_index = 0
        self._fault_proxies: dict[int, FaultInjector] = {}
        self._fault_windows: list[dict[str, Any]] = []

        fault_spans = [topology.fault_span(event) for event in topology.faults]
        wrap_all = topology.fault_policy.max_inflight is not None
        #: recipe -> the first device this shard built by it; the later
        #: ones copy its preload where that is exact.
        first_built: dict[tuple, Any] = {}

        for group, first, stop in self._owned_pieces():
            if group.mode == "macro":
                if first != 0 or stop != group.count:
                    raise ValueError(
                        f"macro group {group.name!r} split across shards: "
                        "partition_topology must keep macro groups atomic")
                from repro.cluster.macro import MacroGroup
                self._macro.append(MacroGroup(topology, group))
                continue
            offset = topology.group_indices(group.name).start
            for local_index in range(first, stop):
                index = offset + local_index
                device = group.build(self.sim, f"{group.name}[{local_index}]",
                                     like=first_built.get(group.recipe))
                first_built.setdefault(group.recipe, device)
                if topology.faults and (wrap_all or any(
                        index in span for span in fault_spans)):
                    device = FaultInjector(self.sim, device,
                                           topology.fault_policy)
                    self._fault_proxies[index] = device
                self.devices[index] = device
                self._placement[index] = (group.name, local_index)

        # A macro group models its own faults and runs its own tenants, so
        # both loops visit owned discrete devices only (ascending order).
        for order, event in enumerate(topology.faults):
            down = fault_epoch(event.at_us, topology.epoch_us)
            back = repair_epoch(event, topology.epoch_us)
            span = fault_spans[order]
            for index in self.devices:
                if index not in span:
                    continue
                self._flips.append(_FaultFlip(down, order, index,
                                              "offline", event))
                if back is not None:
                    self._flips.append(_FaultFlip(back, order, index,
                                                  "online", event))
        self._flips.sort(key=lambda flip: (flip.epoch, flip.order, flip.index))

        for tenant in topology.tenants:
            span = topology.group_indices(tenant.group)
            for index in self.devices:
                if index in span:
                    self._bind_tenant(tenant, index)

    def _owned_pieces(self) -> Iterator[tuple[DeviceGroup, int, int]]:
        """The plan's spans cut at group boundaries, in ascending index
        order, as ``(group, first local index, stop local index)``."""
        total = self.topology.total_devices
        for start, stop in self.plan.spans:
            if start < 0 or stop > total:
                raise IndexError(
                    f"shard {self.plan.shard_id} span ({start}, {stop}) lies "
                    f"outside the fleet's {total} devices")
            index = start
            while index < stop:
                group, local_index = self.topology.locate(index)
                last = min(group.count, local_index + stop - index)
                yield group, local_index, last
                index += last - local_index

    def _macro_at(self, index: int):
        """The resident macro group whose index range holds ``index``."""
        for aggregate in self._macro:
            if index in aggregate.indices:
                return aggregate
        return None

    def _emit(self, origin: int, target: int, offset: int, size: int,
              kind: str, delivery_epoch: int) -> None:
        """Send one message: the only place that takes an origin's next
        sequence number.  The replication hook, the rebuild storm and the
        macro groups all emit here, so every origin has one counter."""
        seq = self._origin_seq.get(origin, 0)
        self._origin_seq[origin] = seq + 1
        self._outbound.append(ReplicaMessage(
            target_index=target, offset=offset, size=size,
            origin_index=origin, origin_seq=seq,
            delivery_epoch=delivery_epoch, kind=kind))

    def _advance_macro(self, target_epoch: int) -> None:
        """Step every resident macro group to ``target_epoch``, in
        group-declaration order."""
        for aggregate in self._macro:
            aggregate.advance_to(target_epoch, self._emit)

    # -- workload binding --------------------------------------------------
    def _bind_tenant(self, tenant: Tenant, index: int) -> None:
        from repro.workload.fio import FioJob, run_job
        from repro.workload.trace import replay_trace, synthesize_trace

        device = self.devices[index]
        group_name, local_index = self._placement[index]
        fields = tenant.workload_dict()
        base_seed = fields.pop("seed", self.topology.seed)
        seed = derive_seed(base_seed, {"tenant": tenant.name,
                                       "group": group_name,
                                       "device": local_index})
        replicate = self._replication_hook(group_name, local_index, index)
        if tenant.is_trace:
            family = fields.pop("trace")
            fields.setdefault("region_bytes", device.capacity_bytes)
            trace = synthesize_trace(family, seed=seed,
                                     name=f"{tenant.name}@{device.name}",
                                     **fields)
            result = replay_trace(self.sim, device, trace, run=False,
                                  on_complete=replicate)
        else:
            job = FioJob(name=tenant.name, seed=seed, **fields)
            result = run_job(self.sim, device, job, run=False,
                             on_complete=replicate)
        self._runs.append((tenant.name, index, result))

    def _replication_hook(self, group_name: str, local_index: int,
                          origin_index: int):
        """Per-(device) hook mirroring completed writes along out-edges."""
        routes = []
        for edge in self.topology.edges_from(group_name):
            indices = self.topology.group_indices(edge.target)
            routes.append((indices, edge.policy().replication_factor))
        if not routes:
            return None
        epoch_us = self.topology.epoch_us
        emit = self._emit

        def hook(request, now):
            if request.kind is not IOKind.WRITE or request.shed:
                return  # shed writes never landed, so they never mirror
            epoch = math.floor(now / epoch_us) + 1
            for indices, factor in routes:
                for replica in range(factor):
                    emit(origin_index,
                         indices[(local_index + replica) % len(indices)],
                         request.offset, request.size, "replica", epoch)
        return hook

    # -- epoch stepping ----------------------------------------------------
    def deliver(self, messages: list[ReplicaMessage]) -> None:
        """Submit the replica writes due at the barrier the clock sits on
        to their devices, in the order given (:meth:`advance` sorts them
        by :func:`inbox_order`); each completion records its write in the
        inflow ledger.

        A shard delivers only right after running its simulator to the
        barrier, so nothing else is due there and the submissions run
        ahead of all later work.  With events still due, the submissions
        would overtake them, so delivery raises instead.

        Messages targeting a macro-group index never touch the simulator:
        the aggregate absorbs them into the window after their delivery
        barrier, which is exactly when a discrete device would start
        serving a write applied *at* the barrier.
        """
        sim = self.sim
        if sim.peek() <= sim.now:
            raise RuntimeError(
                f"shard {self.plan.shard_id} delivers at t={sim.now} with "
                "simulator events still due there")
        for message in messages:
            device = self.devices.get(message.target_index)
            if device is None:
                self._macro_at(message.target_index).absorb(message)
                continue
            block = device.logical_block_size
            offset = message.offset % max(block,
                                          device.capacity_bytes - message.size)
            offset -= offset % block
            kind = IOKind.READ if message.kind == "rebuild-read" else IOKind.WRITE
            done = device.submit(IORequest(kind, offset, message.size))
            done.callbacks.append(partial(self._record_inflow, message.kind,
                                          str(message.target_index)))

    def _record_inflow(self, kind: str, target: str, done) -> None:
        """Ledger one delivered message from its completion event."""
        request = done.value
        stats = self._inflow.setdefault(kind, {}).setdefault(
            target, {"count": 0, "bytes": 0, "latency": []})
        stats["count"] += 1
        stats["bytes"] += request.size
        stats["latency"].append(float(request.latency))

    def advance(self, until_epoch: int,
                inbound: Sequence[ReplicaMessage] = (),
                ) -> tuple[list[ReplicaMessage], Optional[int], int]:
        """Hold ``inbound``, step barrier to barrier up to barrier index
        ``until_epoch``; return ``(outbound, earliest, epochs)``.

        At each barrier the shard applies the fault flips due there,
        routes what they emit, and injects the held messages due there,
        sorted by :func:`inbox_order`; then it runs its simulator to the
        next barrier with work, skipping idle epochs.  Once it steps onto
        ``until_epoch`` it returns: that barrier's flips and injections
        wait for the next grant, whose batch may hold other shards'
        messages due at the same barrier.

        ``outbound`` holds the emitted messages for other shards' devices;
        messages for this shard's own devices stay held.  ``earliest`` is
        the integer index of the earliest barrier with pending work
        (:meth:`_earliest`; ``None`` when the shard is idle) -- the
        coordinator uses it to skip empty epochs.  ``epochs`` counts the
        barriers the shard stepped onto.
        """
        self._held.extend(inbound)
        epoch_us = self.topology.epoch_us
        executed = 0
        foreign: list[ReplicaMessage] = []
        # The granted barrier's own work waits for the next grant: its
        # batch may hold other shards' messages due at that barrier.
        while self._position < until_epoch:
            if self._flips and self._apply_due_faults():
                # A failure flip emits its rebuild storm synchronously;
                # route the chunks before computing this barrier's
                # deliveries so none strand in the outbound buffer.
                self._route_outbound(foreign)
            due = [message for message in self._held
                   if message.delivery_epoch == self._position]
            if due:
                self._held = [message for message in self._held
                              if message.delivery_epoch != self._position]
                due.sort(key=inbox_order)
                self.deliver(due)
            # Delivered messages need no target of their own: the peek and
            # the macro windows below cover their submissions and backlogs.
            targets = []
            if self._held:
                targets.append(min(message.delivery_epoch
                                   for message in self._held))
            peek = self.sim.peek()
            if peek != math.inf:
                # Jump straight past idle epochs, but never span more than
                # one epoch of activity (emissions must stay deliverable at
                # a future barrier).
                targets.append(max(self._position + 1,
                                   math.floor(peek / epoch_us) + 1))
            for aggregate in self._macro:
                # A macro group's next busy window bounds the jump the same
                # way a pending simulator event does: stepping straight to
                # it keeps every macro emission deliverable at the barrier
                # the shard lands on.
                nxt = aggregate.next_activity_epoch()
                if nxt is not None:
                    targets.append(max(self._position + 1, nxt))
            if self._flip_index < len(self._flips):
                # Stop exactly on the next fault barrier: flips apply with
                # the clock sitting on it, never mid-window.
                targets.append(self._flips[self._flip_index].epoch)
            next_index = min(targets, default=math.inf)
            if next_index > until_epoch:
                break  # idle, or no work before the granted barrier
            self.sim.run(until=next_index * epoch_us)
            self._position = next_index
            executed += 1
            self._advance_macro(next_index)
            self._route_outbound(foreign)
        return foreign, self._earliest(), executed

    def _route_outbound(self, foreign: list[ReplicaMessage]) -> None:
        """Move emitted messages to the hold queue (own devices) or the
        coordinator-bound list (other shards' devices)."""
        for message in self._outbound:
            if message.target_index in self.devices or \
                    self._macro_at(message.target_index) is not None:
                self._held.append(message)
            else:
                foreign.append(message)
        self._outbound.clear()

    def _earliest(self) -> Optional[int]:
        """The earliest barrier index with pending work, or ``None`` when
        idle: the epoch of the next simulator event, held deliveries, the
        next fault barrier (a fault must wake an otherwise idle fleet) and
        the barrier opening every resident macro group's next busy window
        (its work happens inside that window, so the coordinator must not
        grant a window past it)."""
        candidates = [message.delivery_epoch for message in self._held]
        peek = self.sim.peek()
        if peek != math.inf:
            candidates.append(math.floor(peek / self.topology.epoch_us))
        if self._flip_index < len(self._flips):
            candidates.append(self._flips[self._flip_index].epoch)
        for aggregate in self._macro:
            nxt = aggregate.next_activity_epoch()
            if nxt is not None:
                candidates.append(nxt - 1)
        return min(candidates, default=None)

    # -- fault application -------------------------------------------------
    def _apply_due_faults(self) -> bool:
        """Apply every scheduled flip whose barrier has been reached (the
        clock sits on ``_position * epoch_us`` between steps).

        Flips are synchronous state changes, never simulator events: event
        identity (heap sequence numbers) depends on the shard layout, so
        scheduling flips as events would perturb same-timestamp ordering
        and break the bit-identical guarantee.
        """
        applied = False
        while self._flip_index < len(self._flips):
            flip = self._flips[self._flip_index]
            if flip.epoch > self._position:
                break
            self._flip_index += 1
            applied = True
            proxy = self._fault_proxies[flip.index]
            if flip.action == "online":
                proxy.offline = False
                continue
            proxy.offline = True
            chunks = self._emit_rebuild(flip) \
                if flip.event.kind == "fail" else []
            group_name, local_index = self._placement[flip.index]
            self._fault_windows.append(fault_window(
                flip.event, self.topology.epoch_us, group_name, local_index,
                flip.index, flip.epoch, chunks))
        return applied

    def _emit_rebuild(self, flip: _FaultFlip) -> list[tuple[int, int, int]]:
        """Queue the re-replication storm for a failed device.

        The data to rebuild is what the device had absorbed (host-visible
        bytes written, capped at its capacity); it is re-written in paced
        chunks onto the promoted hot spare, or round-robin across the
        surviving peers of the failed group.  Every chunk additionally
        issues a paced *source read* against a surviving replica holder
        (the targets of the failed group's replication edges, using the
        same local-index mapping the mirroring hook uses) -- a
        re-replication storm loads both ends of the copy.  Chunks ride the
        ordinary :class:`ReplicaMessage` barrier machinery, so rebuild
        traffic contends with foreground tenants through the normal device
        submission path.  Returns the chunks.
        """
        topology = self.topology
        event = flip.event
        origin = flip.index
        device = self.devices[origin]
        rebuilt = min(device.stats.bytes_written, device.capacity_bytes)
        if rebuilt <= 0:
            return []
        offline = offline_spans(topology, flip.epoch)

        def survives(index: int) -> bool:
            return not any(index in span for span in offline)

        local_index = self._placement[origin][1]
        if event.spare is not None:
            spare_indices = topology.group_indices(event.spare)
            targets = [spare_indices[local_index % len(spare_indices)]]
            target_group = topology.group(event.spare)
        else:
            targets = [index
                       for index in topology.group_indices(event.group)
                       if index != origin and survives(index)]
            target_group = topology.group(event.group)
        if not targets:
            return []
        # Surviving holders of the lost data: the replica devices the
        # mirroring hook would have written (edge targets, same mapping).
        sources = []
        for edge in topology.edges_from(event.group):
            indices = topology.group_indices(edge.target)
            for replica in range(edge.policy().replication_factor):
                source = indices[(local_index + replica) % len(indices)]
                if survives(source) and source not in sources:
                    sources.append(source)
        # A chunk never exceeds half the target device.
        capacity = target_group.device_capacity
        half = (capacity // 2) - (capacity // 2) % 4096
        policy = topology.fault_policy
        chunks = rebuild_chunks(
            rebuilt, min(policy.rebuild_chunk_bytes, max(4096, half)),
            policy, flip.epoch)
        for j, (offset, size, delivery_epoch) in enumerate(chunks):
            if sources:
                self._emit(origin, sources[j % len(sources)], offset, size,
                           "rebuild-read", delivery_epoch)
            self._emit(origin, targets[j % len(targets)], offset, size,
                       "rebuild", delivery_epoch)
        return chunks

    # -- collection --------------------------------------------------------
    def collect(self) -> dict[str, Any]:
        """Serialize the shard's measurements (JSON/pickle-safe payload)."""
        faulted = bool(self.topology.faults)
        tenants: dict[str, dict[str, Any]] = {}
        for tenant_name, index, result in self._runs:
            tenants.setdefault(tenant_name, {})[str(index)] = \
                _result_payload(result, faulted)
        inflow = {kind: dict(stats) for kind, stats in self._inflow.items()}
        fault_windows = list(self._fault_windows)
        shed: dict[str, dict[str, int]] = {
            str(index): {"ios": proxy.shed_ios, "bytes": proxy.shed_bytes}
            for index, proxy in sorted(self._fault_proxies.items())
            if proxy.shed_ios
        }
        # A macro group reports through the exact same schema at its first
        # global index: one aggregate per-tenant payload (carrying its own
        # ``devices`` count and ``approximate: True``), pooled inflow stats
        # filed under their own message kind, and shed stats.
        for aggregate in self._macro:
            anchor = str(aggregate.first_index)
            for tenant_name, payload in aggregate.collect_tenants().items():
                tenants.setdefault(tenant_name, {})[anchor] = payload
            for kind, stats in aggregate.collect_inflow().items():
                inflow.setdefault(kind, {})[anchor] = stats
            fault_windows.extend(aggregate.collect_fault_windows())
            macro_shed = aggregate.collect_shed()
            if macro_shed["ios"]:
                shed[anchor] = macro_shed
        payload = {
            "shard_id": self.plan.shard_id,
            "scheduled_events": self.sim.scheduled_events,
            "tenants": tenants,
            "replicas": inflow.get("replica", {}),
        }
        if faulted:
            payload["rebuilds"] = inflow.get("rebuild", {})
            payload["rebuild_reads"] = inflow.get("rebuild-read", {})
            payload["fault_windows"] = fault_windows
            payload["shed"] = shed
        return payload


def _result_payload(result, faulted: bool) -> dict[str, Any]:
    """Uniform per-(tenant, device) payload for Job- and Replay-results."""
    events = result.timeline.events()
    started = result.started_us
    finished = result.finished_us
    if finished <= started:
        # Defensive: a run that recorded nothing keeps duration 0; never
        # fall back to sim.now, which depends on the shard layout.
        finished = events[-1][0] if events else started
    payload = {
        "ios_completed": result.ios_completed,
        "bytes_read": result.bytes_read,
        "bytes_written": result.bytes_written,
        "started_us": started,
        "finished_us": finished,
        "latency": result.latency.samples.tolist(),
        "timeline": [[time_us, num_bytes] for time_us, num_bytes in events],
    }
    if faulted:
        # The timeline holds one entry per recorded (post-ramp) completion,
        # aligned 1:1 with the latency samples, so its times let the merge
        # split tail latency into during-rebuild vs steady windows.
        payload["completion_times"] = [time_us for time_us, _ in events]
    return payload


# ---------------------------------------------------------------------------
# Process-pool entry points (one dedicated worker process per shard)
# ---------------------------------------------------------------------------

_WORKER: Optional[ShardWorker] = None


def _worker_init(topology_json: str, plan: ShardPlan) -> int:
    """Build the resident ShardWorker inside the dedicated worker process
    (the pool pickles ``plan`` on its way there)."""
    global _WORKER
    _WORKER = ShardWorker(FleetTopology.from_json(topology_json), plan)
    return _WORKER.plan.shard_id


def _worker_advance(until_epoch: int, inbound: list[ReplicaMessage],
                    ) -> tuple[list[ReplicaMessage], Optional[int], int]:
    assert _WORKER is not None, "shard worker not initialised"
    return _WORKER.advance(until_epoch, inbound)


def _worker_collect() -> dict[str, Any]:
    assert _WORKER is not None, "shard worker not initialised"
    return _WORKER.collect()
