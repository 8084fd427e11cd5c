"""One shard of a fleet simulation: a Simulator owning a device slice.

A :class:`ShardWorker` instantiates the devices named by its
:class:`ShardPlan`, binds every tenant workload that targets those devices
(closed-loop FIO jobs or open-loop trace replays, each with a seed derived
from the tenant/device identity so the shard layout cannot change any RNG
stream), and then advances in **bounded time epochs**:

* :meth:`ShardWorker.advance` takes a grant -- a barrier index and the
  replica messages other shards sent it -- and steps its simulator from
  epoch barrier to epoch barrier up to that index, skipping idle epochs.
  It returns the messages its devices emitted for other shards.
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
from typing import Any, Iterator, NamedTuple, Optional, Sequence

from repro.cluster.faults import (
    FaultEvent,
    FaultInjector,
    fault_epoch,
    repair_epoch,
)
from repro.cluster.topology import (
    DEFAULT_FLEET_ESSD_CAPACITY,
    DEFAULT_FLEET_SSD_CAPACITY,
    DeviceGroup,
    FleetTopology,
    Tenant,
)
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
    #: re-replication storm after a device failure.  Rebuild messages ride
    #: the exact same barrier machinery (and the same per-origin sequence
    #: counter), so faulted runs inherit the layout-independence proof.
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

    def to_payload(self) -> dict[str, Any]:
        return {"shard_id": self.shard_id,
                "spans": [list(span) for span in self.spans]}

    @classmethod
    def from_payload(cls, payload) -> "ShardPlan":
        return cls(shard_id=payload["shard_id"],
                   spans=tuple(tuple(span) for span in payload["spans"]))


def _default_capacity(device_name: str) -> int:
    return DEFAULT_FLEET_SSD_CAPACITY if device_name == "SSD" \
        else DEFAULT_FLEET_ESSD_CAPACITY


def _group_capacity(group: DeviceGroup) -> int:
    return group.capacity_bytes or _default_capacity(group.device)


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
        from repro.devices import create_device
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
        #: target device global index (as str) -> inbound replica stats.
        #: Keyed per *device*, not per group: a split target group would
        #: otherwise pool samples in shard order and break the bit-identical
        #: merge (the fleet merge re-pools in global-index order).
        self._replica_stats: dict[str, dict[str, Any]] = {}
        #: Same shape as ``_replica_stats`` but for rebuild-storm writes.
        self._rebuild_stats: dict[str, dict[str, Any]] = {}
        #: ... and for the rebuild's source reads on surviving replicas.
        self._rebuild_read_stats: dict[str, dict[str, Any]] = {}
        #: (tenant name, global index, result, byte accumulator,
        #:  completion-time record used for during-rebuild classification)
        self._runs: list[tuple[str, int, Any, Optional[dict],
                               Optional[list]]] = []
        #: Fault flips for *owned* devices, sorted by barrier then
        #: declaration order; ``_flip_index`` is the applied prefix.
        self._flips: list[_FaultFlip] = []
        self._flip_index = 0
        self._fault_proxies: dict[int, FaultInjector] = {}
        self._fault_windows: list[dict[str, Any]] = []

        fault_spans = [self._fault_span(event) for event in topology.faults]
        wrap_all = topology.fault_policy.max_inflight is not None

        for group, first, stop in self._owned_pieces():
            if group.mode == "macro":
                if first != 0 or stop != group.count:
                    raise ValueError(
                        f"macro group {group.name!r} split across shards: "
                        "partition_topology must keep macro groups atomic")
                from repro.cluster.macro import MacroGroup
                self._macro.append(
                    MacroGroup(topology, group, _group_capacity(group)))
                continue
            offset = topology.group_indices(group.name).start
            for local_index in range(first, stop):
                index = offset + local_index
                device = create_device(self.sim, group.device,
                                       capacity_bytes=_group_capacity(group),
                                       name=f"{group.name}[{local_index}]",
                                       **dict(group.device_params))
                if group.preload:
                    device.preload()
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

    def _fault_span(self, event: FaultEvent) -> range:
        """Global indices the event takes offline (layout-independent)."""
        indices = self.topology.group_indices(event.group)
        return indices if event.device is None else \
            indices[event.device:event.device + 1]

    def _macro_at(self, index: int):
        """The resident macro group whose index range holds ``index``."""
        for aggregate in self._macro:
            if index in aggregate.indices:
                return aggregate
        return None

    def _macro_emit(self, origin_index: int):
        """Emission callback a macro group uses to send replica/rebuild
        messages: the same per-origin sequence counter and barrier framing
        the discrete replication hook uses."""

        def emit(target: int, offset: int, size: int, kind: str,
                 delivery_epoch: int) -> None:
            seq = self._origin_seq.get(origin_index, 0)
            self._origin_seq[origin_index] = seq + 1
            self._outbound.append(ReplicaMessage(
                target_index=target, offset=offset, size=size,
                origin_index=origin_index, origin_seq=seq,
                delivery_epoch=delivery_epoch, kind=kind))
        return emit

    def _advance_macro(self, target_epoch: int) -> None:
        """Step every resident macro group to ``target_epoch``, in
        group-declaration order."""
        for aggregate in self._macro:
            aggregate.advance_to(target_epoch,
                                 self._macro_emit(aggregate.first_index))

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
        #: With faults active every post-ramp completion time is recorded,
        #: aligned 1:1 with the result's latency samples, so the merge can
        #: split tail latency into during-rebuild vs steady windows.
        record: Optional[list] = [] if self.topology.faults else None

        if tenant.is_trace:
            family = fields.pop("trace")
            fields.setdefault("region_bytes", device.capacity_bytes)
            trace = synthesize_trace(family, seed=seed,
                                     name=f"{tenant.name}@{device.name}",
                                     **fields)
            accumulator = {"bytes_read": 0, "bytes_written": 0}

            def hook(request, now, _acc=accumulator, _rep=replicate,
                     _rec=record):
                if request.kind is IOKind.READ:
                    _acc["bytes_read"] += request.size
                else:
                    _acc["bytes_written"] += request.size
                if _rep is not None:
                    _rep(request, now)
                if _rec is not None:
                    _rec.append(now)

            result = replay_trace(self.sim, device, trace, run=False,
                                  on_complete=hook)
            self._runs.append((tenant.name, index, result, accumulator,
                               record))
        else:
            job = FioJob(name=tenant.name, seed=seed, **fields)
            if record is None:
                hook = replicate
            else:
                # run_job fires on_complete before its ramp check, so
                # skipping the first ramp_ios completions keeps the record
                # aligned with the recorded latency samples.
                state = {"ramp": job.ramp_ios}

                def hook(request, now, _rep=replicate, _state=state,
                         _rec=record):
                    if _rep is not None:
                        _rep(request, now)
                    if _state["ramp"] > 0:
                        _state["ramp"] -= 1
                    else:
                        _rec.append(now)

            result = run_job(self.sim, device, job, run=False,
                             on_complete=hook)
            self._runs.append((tenant.name, index, result, None, record))

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

        def hook(request, _now):
            if request.kind is not IOKind.WRITE or request.shed:
                return  # shed writes never landed, so they never mirror
            epoch = math.floor(self.sim.now / epoch_us) + 1
            for indices, factor in routes:
                for replica in range(factor):
                    target = indices[(local_index + replica) % len(indices)]
                    seq = self._origin_seq.get(origin_index, 0)
                    self._origin_seq[origin_index] = seq + 1
                    # Append through self: advance() drains this buffer at
                    # every barrier, and a reference captured at bind time
                    # would go stale.
                    self._outbound.append(ReplicaMessage(
                        target_index=target, offset=request.offset,
                        size=request.size, origin_index=origin_index,
                        origin_seq=seq, delivery_epoch=epoch))
        return hook

    # -- epoch stepping ----------------------------------------------------
    def deliver(self, messages: list[ReplicaMessage]) -> None:
        """Schedule replica writes due at the barrier the clock sits on,
        in the order given (:meth:`advance` sorts them by
        :func:`inbox_order`).

        Messages targeting a macro-group index never touch the simulator:
        the aggregate absorbs them into the window after their delivery
        barrier, which is exactly when a discrete device would start
        serving a write applied *at* the barrier.
        """
        for message in messages:
            if message.target_index in self.devices:
                self.sim.process(self._apply(message))
            else:
                self._macro_at(message.target_index).absorb(message)

    def _apply(self, message: ReplicaMessage):
        delay = message.delivery_epoch * self.topology.epoch_us - self.sim.now
        yield self.sim.timeout(delay)
        device = self.devices[message.target_index]
        offset = message.offset % max(device.logical_block_size,
                                      device.capacity_bytes - message.size)
        offset -= offset % device.logical_block_size
        kind = IOKind.READ if message.kind == "rebuild-read" else IOKind.WRITE
        request = yield device.submit(IORequest(
            kind, offset, message.size, tag=message.kind))
        if message.kind == "rebuild":
            bucket = self._rebuild_stats
        elif message.kind == "rebuild-read":
            bucket = self._rebuild_read_stats
        else:
            bucket = self._replica_stats
        stats = bucket.setdefault(
            str(message.target_index), {"count": 0, "bytes": 0, "latency": []})
        stats["count"] += 1
        stats["bytes"] += request.size
        stats["latency"].append(float(request.latency))

    def advance(self, until_epoch: int,
                inbound: Sequence[ReplicaMessage] = (),
                ) -> tuple[list[ReplicaMessage], float, int]:
        """Hold ``inbound``, step barrier to barrier up to barrier index
        ``until_epoch``; return ``(outbound, peek, epochs)``.

        At each barrier the shard applies the fault flips due there,
        routes what they emit, and injects the held messages due there,
        sorted by :func:`inbox_order`; then it runs its simulator to the
        next barrier with work, skipping idle epochs.  Once it steps onto
        ``until_epoch`` it returns: that barrier's flips and injections
        wait for the next grant, whose batch may hold other shards'
        messages due at the same barrier.

        ``outbound`` holds the emitted messages for other shards' devices;
        messages for this shard's own devices stay held.  ``peek`` is the
        time of the next pending event, fault barrier, macro window or
        held delivery (``inf`` when the shard is idle) -- the coordinator
        uses it to skip empty epochs.  ``epochs`` counts the barriers the
        shard stepped onto.
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
            targets = []
            if due:
                targets.append(self._position + 1)
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
        return foreign, self._peek(), executed

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

    def _peek(self) -> float:
        """Next pending event time, folding in held deliveries, pending
        fault barriers (a fault must wake an otherwise idle fleet) and the
        start of every resident macro group's next busy window (its work
        happens inside that window, so the coordinator must not grant a
        window past it)."""
        epoch_us = self.topology.epoch_us
        peek = self.sim.peek()
        if self._held:
            peek = min(peek, min(message.delivery_epoch
                                 for message in self._held) * epoch_us)
        if self._flip_index < len(self._flips):
            peek = min(peek, self._flips[self._flip_index].epoch * epoch_us)
        for aggregate in self._macro:
            nxt = aggregate.next_activity_epoch()
            if nxt is not None:
                peek = min(peek, (nxt - 1) * epoch_us)
        return peek

    # -- fault application -------------------------------------------------
    def _apply_due_faults(self) -> bool:
        """Apply every scheduled flip whose barrier time has been reached.

        Flips are synchronous state changes, never simulator events: event
        identity (heap sequence numbers) depends on the shard layout, so
        scheduling flips as events would perturb same-timestamp ordering
        and break the bit-identical guarantee.
        """
        applied = False
        epoch_us = self.topology.epoch_us
        while self._flip_index < len(self._flips):
            flip = self._flips[self._flip_index]
            if flip.epoch * epoch_us > self.sim.now:
                break
            self._flip_index += 1
            applied = True
            proxy = self._fault_proxies[flip.index]
            if flip.action == "online":
                proxy.offline = False
                continue
            proxy.offline = True
            self._record_failure(flip)
        return applied

    def _record_failure(self, flip: _FaultFlip) -> None:
        """Emit the rebuild storm (``kind="fail"``) and log the window."""
        topology = self.topology
        epoch_us = topology.epoch_us
        event = flip.event
        chunks = emitted = 0
        end: Optional[float] = None
        if event.kind == "fail":
            chunks, emitted, last_epoch = self._emit_rebuild(flip)
            if chunks:
                # Chunks delivered at epoch e land within (e, e+1].
                end = (last_epoch + 1) * epoch_us
        back = repair_epoch(event, epoch_us)
        repair_us = back * epoch_us if back is not None else None
        if repair_us is not None:
            end = repair_us if end is None else max(end, repair_us)
        group_name, local_index = self._placement[flip.index]
        self._fault_windows.append({
            "kind": event.kind,
            "group": group_name,
            "device": local_index,
            "index": flip.index,
            "start_us": flip.epoch * epoch_us,
            "end_us": end,  # None = degraded until the end of the run
            "repair_us": repair_us,
            "spare": event.spare,
            "rebuild_chunks": chunks,
            "rebuild_bytes": emitted,
        })

    def _emit_rebuild(self, flip: _FaultFlip) -> tuple[int, int, int]:
        """Queue the re-replication storm for a failed device.

        The data to rebuild is what the device had absorbed (host-visible
        bytes written, capped at its capacity); it is re-written in paced
        chunks onto the promoted hot spare, or round-robin across the
        surviving peers of the failed group.  Every chunk additionally
        issues a paced *source read* against a surviving replica holder
        (the targets of the failed group's replication edges, using the
        same local-index mapping the mirroring hook uses) -- a
        re-replication storm loads both ends of the copy.  Chunks ride the
        ordinary :class:`ReplicaMessage` barrier machinery starting one
        epoch after the failure, so rebuild traffic contends with
        foreground tenants through the normal device submission path.

        Returns ``(chunks, bytes, last delivery epoch)``.
        """
        topology = self.topology
        policy = topology.fault_policy
        event = flip.event
        origin = flip.index
        device = self.devices[origin]
        rebuilt = min(device.stats.bytes_written, device.capacity_bytes)
        if rebuilt <= 0:
            return 0, 0, flip.epoch
        offline = self._offline_at_epoch(flip.epoch)

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
            return 0, 0, flip.epoch
        # Surviving holders of the lost data: the replica devices the
        # mirroring hook would have written (edge targets, same mapping).
        sources = []
        for edge in topology.edges_from(event.group):
            indices = topology.group_indices(edge.target)
            for replica in range(edge.policy().replication_factor):
                source = indices[(local_index + replica) % len(indices)]
                if survives(source) and source not in sources:
                    sources.append(source)
        capacity = _group_capacity(target_group)
        half = (capacity // 2) - (capacity // 2) % 4096
        chunk = min(policy.rebuild_chunk_bytes, max(4096, half))
        chunks = math.ceil(rebuilt / chunk)
        emitted = 0
        last_epoch = flip.epoch

        def emit(target: int, kind: str, offset: int, size: int,
                 delivery_epoch: int) -> None:
            seq = self._origin_seq.get(origin, 0)
            self._origin_seq[origin] = seq + 1
            self._outbound.append(ReplicaMessage(
                target_index=target, offset=offset, size=size,
                origin_index=origin, origin_seq=seq,
                delivery_epoch=delivery_epoch, kind=kind))

        for j in range(chunks):
            size = min(chunk, rebuilt - j * chunk)
            size += (-size) % 4096
            delivery_epoch = flip.epoch + 1 + j // policy.rebuild_chunks_per_epoch
            if sources:
                emit(sources[j % len(sources)], "rebuild-read",
                     j * chunk, size, delivery_epoch)
            emit(targets[j % len(targets)], "rebuild",
                 j * chunk, size, delivery_epoch)
            emitted += size
            last_epoch = delivery_epoch
        return chunks, emitted, last_epoch

    def _offline_at_epoch(self, epoch: int) -> list[range]:
        """Global index spans offline at barrier ``epoch`` per the
        *declared* schedule -- computed from the topology alone so survivor
        selection is identical in every shard layout.  Devices failing at
        the same barrier conservatively see each other as offline."""
        epoch_us = self.topology.epoch_us
        offline: list[range] = []
        for event in self.topology.faults:
            down = fault_epoch(event.at_us, epoch_us)
            back = repair_epoch(event, epoch_us)
            if down <= epoch and (back is None or back > epoch):
                offline.append(self._fault_span(event))
        return offline

    # -- collection --------------------------------------------------------
    def collect(self) -> dict[str, Any]:
        """Serialize the shard's measurements (JSON/pickle-safe payload)."""
        tenants: dict[str, dict[str, Any]] = {}
        for tenant_name, index, result, accumulator, record in self._runs:
            tenants.setdefault(tenant_name, {})[str(index)] = \
                _result_payload(result, accumulator, record)
        replica_stats = dict(self._replica_stats)
        rebuild_stats = dict(self._rebuild_stats)
        fault_windows = list(self._fault_windows)
        shed: dict[str, dict[str, int]] = {
            str(index): {"ios": proxy.shed_ios, "bytes": proxy.shed_bytes}
            for index, proxy in sorted(self._fault_proxies.items())
            if proxy.shed_ios
        }
        # A macro group reports through the exact same schema at its first
        # global index: one aggregate per-tenant payload (carrying its own
        # ``devices`` count and ``approximate: True``) plus pooled
        # replica/rebuild/shed stats.
        for aggregate in self._macro:
            anchor = str(aggregate.first_index)
            for tenant_name, payload in aggregate.collect_tenants().items():
                tenants.setdefault(tenant_name, {})[anchor] = payload
            for kind, stats in aggregate.collect_inflow().items():
                bucket = rebuild_stats if kind == "rebuild" else replica_stats
                bucket[anchor] = stats
            fault_windows.extend(aggregate.collect_fault_windows())
            macro_shed = aggregate.collect_shed()
            if macro_shed["ios"]:
                shed[anchor] = macro_shed
        payload = {
            "shard_id": self.plan.shard_id,
            "scheduled_events": self.sim.scheduled_events,
            "tenants": tenants,
            "replicas": replica_stats,
        }
        if self.topology.faults:
            payload["rebuilds"] = rebuild_stats
            payload["rebuild_reads"] = self._rebuild_read_stats
            payload["fault_windows"] = fault_windows
            payload["shed"] = shed
        return payload


def _result_payload(result, accumulator: Optional[dict],
                    record: Optional[list] = None) -> dict[str, Any]:
    """Uniform per-(tenant, device) payload for Job- and Replay-results."""
    events = result.timeline.events()
    if accumulator is None:  # JobResult
        started = result.started_us
        finished = result.finished_us
        if finished <= started:
            # Defensive: a job that recorded nothing keeps duration 0; never
            # fall back to sim.now, which depends on the shard layout.
            finished = events[-1][0] if events else started
        bytes_read = result.bytes_read
        bytes_written = result.bytes_written
        ios = result.ios_completed
    else:  # ReplayResult (open loop starts at time 0)
        started = 0.0
        finished = events[-1][0] if events else 0.0
        bytes_read = accumulator["bytes_read"]
        bytes_written = accumulator["bytes_written"]
        ios = result.ios_completed
    payload = {
        "ios_completed": ios,
        "bytes_read": bytes_read,
        "bytes_written": bytes_written,
        "started_us": started,
        "finished_us": finished,
        "latency": result.latency.samples.tolist(),
        "timeline": [[time_us, num_bytes] for time_us, num_bytes in events],
    }
    if record is not None:
        payload["completion_times"] = record
    return payload


# ---------------------------------------------------------------------------
# Process-pool entry points (one dedicated worker process per shard)
# ---------------------------------------------------------------------------

_WORKER: Optional[ShardWorker] = None


def _worker_init(topology_json: str, plan_payload: dict) -> int:
    """Build the resident ShardWorker inside the dedicated worker process."""
    global _WORKER
    _WORKER = ShardWorker(FleetTopology.from_json(topology_json),
                          ShardPlan.from_payload(plan_payload))
    return _WORKER.plan.shard_id


def _worker_advance(until_epoch: int, inbound: list[ReplicaMessage],
                    ) -> tuple[list[ReplicaMessage], float, int]:
    assert _WORKER is not None, "shard worker not initialised"
    return _WORKER.advance(until_epoch, inbound)


def _worker_collect() -> dict[str, Any]:
    assert _WORKER is not None, "shard worker not initialised"
    return _WORKER.collect()
