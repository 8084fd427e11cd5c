"""Partition a fleet topology into shards and drive them over epochs.

Partitioning (:func:`partition_topology`) is **device-affinity** based:
replication edges connect groups into clusters (union-find), whole clusters
are placed onto the least-loaded shard first (so edges stay intra-shard
whenever the cluster count allows), and only when shards would otherwise
sit empty is a shard's device list split at device granularity.

Execution (:class:`FleetCoordinator`) is a conservative time-window loop
over **coupling components** (:func:`~repro.cluster.transport.coupling_components`):
shard pairs joined by a cross-shard replication edge (or a fault
group/spare pair) may exchange messages and must synchronize; shards no
split edge touches can never see cross-shard traffic.  Each component
picks its own gear:

* **Batched run-ahead** -- a singleton component (every edge/fault that
  touches the shard is intra-shard -- the common case: device-affinity
  placement glues edge clusters together) is granted a window of
  ``run_ahead`` epochs per task.  The shard steps barrier-to-barrier
  internally, self-delivering its own replica messages (see
  :meth:`~repro.cluster.shard.ShardWorker.advance`), and the coordinator
  only rendezvouses once per window: coordination drops from one task per
  shard per busy epoch to one per shard per ``run_ahead`` window.
* **Lockstep** -- shards inside a multi-shard component advance to the
  same barrier per task; emitted messages are routed to the shard owning
  the target device and handed over exactly at their ``delivery_epoch``
  barrier, sorted by the layout-independent key
  ``(delivery_us, origin_index, origin_seq)``.  Other components advance
  concurrently in the same coordinator round -- a split edge only
  lockstops the shards it actually couples.

In both gears a message is injected when its shard's clock sits exactly on
the delivery barrier.  Because seeds, replica delivery times, and
injection order all derive from logical identities (never from the shard
layout, the granted windows, or the transport), ``shards=1`` is
bit-identical to any ``shards=N`` run -- and ``shards=1`` in-process *is*
the serial path.  Topologies without replication edges skip the barrier
loop entirely: each shard drains to completion in a single advance.

How grants and responses physically move between coordinator and shards
is the :class:`~repro.cluster.transport.ShardTransport` contract
(in-process calls, or a dedicated single-worker executor per shard -- see
:mod:`repro.cluster.transport`); every knob lives on
:class:`~repro.cluster.transport.FleetRunConfig`.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_right
from typing import Any, Callable, Optional

from repro.cluster.metrics import merge_shard_payloads
from repro.cluster.shard import ReplicaMessage, ShardPlan, inbox_order
from repro.cluster.topology import FleetTopology
from repro.cluster.transport import (
    DEFAULT_RUN_AHEAD,
    MAX_EPOCHS,
    FleetRunConfig,
    coupling_components,
    create_transport,
)

__all__ = ["partition_topology", "FleetCoordinator", "FleetRunConfig",
           "run_fleet", "run_fleet_serial", "MAX_EPOCHS",
           "DEFAULT_RUN_AHEAD"]

#: One run of a slice: ``(start, stop, atomic)`` global indices, where an
#: atomic run is a whole macro group that no split may cut.
_Segment = tuple[int, int, bool]


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def partition_topology(topology: FleetTopology, shards: int) -> list[ShardPlan]:
    """Split the fleet's devices into ``shards`` device-affinity slices."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, topology.total_devices)
    group_names = [group.name for group in topology.groups]
    position = {name: index for index, name in enumerate(group_names)}

    # Union-find over groups: replication edges glue groups into clusters.
    parent = {name: name for name in group_names}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    couplings = [(edge.source, edge.target) for edge in topology.edges]
    # A hot-spare promotion couples the failed group to its spare group the
    # same way a replication edge couples source to target: rebuild traffic
    # flows between them, so affinity placement keeps them on one shard.
    couplings.extend((fault.group, fault.spare) for fault in topology.faults
                     if fault.spare is not None)
    for source, target in couplings:
        root_a, root_b = find(source), find(target)
        if root_a != root_b:
            # Deterministic union: the earlier-declared group wins.
            if position[root_a] > position[root_b]:
                root_a, root_b = root_b, root_a
            parent[root_b] = root_a

    clusters: dict[str, list[str]] = {}
    for name in group_names:
        clusters.setdefault(find(name), []).append(name)

    sizes = {root: sum(topology.group(name).count for name in members)
             for root, members in clusters.items()}
    # Largest clusters first; ties resolved by declaration order.
    order = sorted(clusters, key=lambda root: (-sizes[root], position[root]))

    # Each slice is a list of segments in placement order: one per group
    # (or piece of a split discrete group), so the bookkeeping grows with
    # the number of groups, never with their counts.
    slices: list[list[_Segment]] = [[] for _ in range(shards)]
    loads = [0] * shards
    for root in order:
        target = min(range(shards), key=lambda sid: (loads[sid], sid))
        for name in clusters[root]:
            span = topology.group_indices(name)
            slices[target].append((span.start, span.stop,
                                   topology.group(name).mode == "macro"))
            loads[target] += len(span)

    # Fill empty shards (more shards than clusters) by halving the heaviest
    # slice at device granularity -- this may break an edge across shards,
    # which the message-passing loop handles.  A macro group, however, is
    # one indivisible aggregate: splits shift to the nearest atom boundary,
    # and a slice that is one single macro atom simply cannot donate.
    while not all(slices):
        empty = loads.index(0)
        split = None
        for donor in sorted(range(shards), key=lambda sid: (-loads[sid], sid)):
            if loads[donor] < 2:
                break  # heaviest slice already minimal: nothing can donate
            keep = _split_point(slices[donor], loads[donor])
            if keep is not None:
                split = (donor, keep)
                break
        if split is None:
            break
        donor, keep = split
        slices[donor], slices[empty] = _cut(slices[donor], keep)
        loads[empty] = loads[donor] - keep
        loads[donor] = keep

    plans = []
    for sid, segments in enumerate(slices):
        spans: list[tuple[int, int]] = []
        for start, stop, _ in sorted(segments):
            if spans and spans[-1][1] == start:
                spans[-1] = (spans[-1][0], stop)
            else:
                spans.append((start, stop))
        plans.append(ShardPlan(shard_id=sid, spans=tuple(spans)))
    return plans


def _split_point(segments: list[_Segment], total: int) -> Optional[int]:
    """Where to cut a slice of ``total >= 2`` devices: the valid position
    nearest its middle (the lower one on a tie), or ``None`` when the slice
    is one macro atom.  A cut is valid anywhere but strictly inside a
    macro (atomic) segment, so only the segment holding the middle can
    move it."""
    half = total // 2
    position = 0
    for start, stop, atomic in segments:
        end = position + (stop - start)
        if atomic and position < half < end:
            valid = [cut for cut in (position, end) if 0 < cut < total]
            return min(valid, key=lambda cut: (abs(cut - half), cut),
                       default=None)
        position = end
    return half


def _cut(segments: list[_Segment],
         keep: int) -> tuple[list[_Segment], list[_Segment]]:
    """Split a slice after its first ``keep`` devices (placement order)."""
    head: list[_Segment] = []
    tail: list[_Segment] = []
    position = 0
    for start, stop, atomic in segments:
        middle = start + max(0, min(stop - start, keep - position))
        if middle > start:
            head.append((start, middle, atomic))
        if stop > middle:
            tail.append((middle, stop, atomic))
        position += stop - start
    return head, tail


def span_owner(plans: list[ShardPlan]) -> Callable[[int], int]:
    """``index -> shard id`` over the plans' spans: a bisect over the span
    starts, so the lookup costs O(log spans) and holds nothing per device."""
    spans = sorted((start, stop, plan.shard_id)
                   for plan in plans for start, stop in plan.spans)
    starts = [start for start, _, _ in spans]

    def owner(index: int) -> int:
        position = bisect_right(starts, index) - 1
        if position < 0 or index >= spans[position][1]:
            raise KeyError(index)
        return spans[position][2]
    return owner


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

class FleetCoordinator:
    """Runs a :class:`FleetTopology` under one
    :class:`~repro.cluster.transport.FleetRunConfig` (shard count,
    run-ahead window, transport, epoch bound); the default config is the
    serial in-process path.
    """

    def __init__(self, config: Optional[FleetRunConfig] = None):
        self.config = config if config is not None else FleetRunConfig()

    def run(self, topology: FleetTopology) -> dict[str, Any]:
        """Execute the fleet and return the merged metrics payload.

        The payload's ``fleet`` / ``tenants`` / ``groups`` sections are
        bit-identical across shard counts, transports, and run-ahead
        windows; wall-clock and coordination data live under ``runtime``.
        """
        config = self.config
        plans = partition_topology(topology, config.shards)
        started = time.perf_counter()
        transport_kind = config.resolve_transport()
        transport = create_transport(transport_kind, topology, plans)
        components = coupling_components(topology, plans)
        lockstep = [component for component in components
                    if len(component) > 1]
        batched = bool(topology.edges or topology.faults) and not lockstep
        epochs = 0
        rounds = 0
        tasks = 0
        try:
            if not topology.edges and not topology.faults:
                # No cross-device dependencies: each shard drains in one go.
                transport.advance_all(None, [[] for _ in plans])
                rounds = 1
                tasks = len(plans)
            else:
                epochs, rounds, tasks = self._run_components(
                    topology, plans, transport, components)
            payloads = transport.collect_all()
            events = transport.scheduled_events()
        finally:
            transport.close()
        wall_s = time.perf_counter() - started
        result = merge_shard_payloads(topology, payloads)
        result["runtime"] = {
            "shards": len(plans),
            "mode": "in-process" if transport_kind == "local"
            else "processes",
            "transport": transport_kind,
            "epochs": epochs,
            "batched": batched,
            "run_ahead": config.run_ahead,
            "components": len(components),
            "lockstep_shards": sum(len(component)
                                   for component in lockstep),
            "coordinator_rounds": rounds,
            "coordination_tasks": tasks,
            "wall_s": wall_s,
            "scheduled_events": events,
            "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
            "cpu_count": os.cpu_count(),
            "partition": [[list(span) for span in plan.spans]
                          for plan in plans],
        }
        return result

    def _run_components(self, topology: FleetTopology, plans,
                        transport, components) -> tuple[int, int, int]:
        """Drive every coupling component through its own gear in a
        single coordinator loop.

        Singleton components get batched ``run_ahead`` windows
        (self-delivering their intra-shard traffic and skipping idle
        epochs internally; a shard reporting ``peek == inf`` is drained
        for good -- nothing can revive it without cross-shard traffic).
        Multi-shard components run the conservative epoch-barrier
        lockstep among *their members only*: collected messages wait at
        the coordinator until the barrier matching their
        ``delivery_epoch``; each member then receives them with its clock
        sitting exactly on that barrier, sorted by the
        layout-independent ``inbox_order`` key.  Every round posts all
        grants before waiting on any, so independent components (and the
        shards inside one component) advance concurrently on process
        transports.  Returns ``(epochs, rounds, tasks)``."""
        config = self.config
        epoch_us = topology.epoch_us
        overrun = RuntimeError(
            f"fleet {topology.name!r} exceeded {config.max_epochs} "
            f"epochs (epoch_us={epoch_us}); raise epoch_us or max_epochs")
        singles = sorted(component[0] for component in components
                         if len(component) == 1)
        single_set = set(singles)
        groups = [_LockstepGroup(component) for component in components
                  if len(component) > 1]
        group_of = {sid: grp for grp in groups for sid in grp.members}
        owner = span_owner(plans)
        peeks = [0.0] * len(plans)
        executed = [0] * len(plans)
        #: Shared run-ahead cursor across the singleton shards (kept
        #: global, not per-shard, so coordination-task counts match the
        #: pre-transport batched gear exactly).
        index = 0
        rounds = 0
        tasks = 0
        while True:
            #: sid -> (until_us, sorted inbox, self_deliver)
            grants: dict[int, tuple] = {}
            active = [sid for sid in singles if peeks[sid] != math.inf]
            if active:
                # Idle skip across windows: start the next grant at the
                # epoch holding the earliest pending event among the
                # self-contained shards.
                start = max(index,
                            math.floor(min(peeks[sid] for sid in active)
                                       / epoch_us))
                index = start + config.run_ahead
                for sid in active:
                    grants[sid] = (index * epoch_us, [], True)
            for grp in groups:
                target = grp.next_barrier(peeks, epoch_us)
                if target is None:
                    continue
                if grp.rounds > config.max_epochs:
                    raise overrun
                for sid, inbox in target.items():
                    grants[sid] = (grp.position * epoch_us,
                                   sorted(inbox, key=inbox_order), False)
            if not grants:
                return (max([executed[sid] for sid in singles]
                            + [grp.rounds for grp in groups],
                            default=0), rounds, tasks)
            rounds += 1
            tasks += len(grants)
            for sid in sorted(grants):
                until_us, inbox, self_deliver = grants[sid]
                transport.post(sid, until_us, inbox, self_deliver)
            for sid in sorted(grants):
                outbound, peek, ran = transport.wait(sid)
                peeks[sid] = peek
                executed[sid] += ran
                if sid in single_set:
                    if outbound:  # pragma: no cover - singleton guarantee
                        raise RuntimeError(
                            f"self-contained shard {sid} emitted a "
                            "cross-shard replica message")
                else:
                    grp = group_of[sid]
                    for message in outbound:
                        # Affinity + coupling guarantee the target stays
                        # inside this component.
                        grp.pending[owner(message.target_index)].append(
                            message)
            if active and max(executed[sid] for sid in singles) \
                    > config.max_epochs:
                raise overrun


class _LockstepGroup:
    """Barrier state for one multi-shard coupling component."""

    def __init__(self, members: list[int]):
        self.members = list(members)
        self.pending: dict[int, list[ReplicaMessage]] = \
            {sid: [] for sid in self.members}
        #: Barrier position as an *integer* epoch index.  The barrier
        #: time is always computed as ``position * epoch_us`` -- the
        #: exact same float-multiplication grid the replication hook
        #: quantizes delivery times onto.  Accumulating
        #: ``barrier += epoch_us`` instead would drift off that grid for
        #: epochs not exactly representable in binary, leaving a
        #: collected message's delivery in the past.
        self.position = 0
        self.rounds = 0
        self.done = False

    def next_barrier(self, peeks: list[float], epoch_us: float,
                     ) -> Optional[dict[int, list[ReplicaMessage]]]:
        """Advance the component's barrier and return the per-member
        handoff (messages due exactly at the *previous* barrier, where
        every member clock now sits), or ``None`` once the component is
        fully drained."""
        if self.done:
            return None
        handoff: dict[int, list[ReplicaMessage]] = \
            {sid: [] for sid in self.members}
        future = math.inf
        due = False
        for sid in self.members:
            keep = []
            for message in self.pending[sid]:
                if message.delivery_epoch == self.position:
                    handoff[sid].append(message)
                    due = True
                else:
                    keep.append(message)
                    if message.delivery_epoch < future:
                        future = message.delivery_epoch
            self.pending[sid] = keep
        targets = []
        if due:
            # Deliveries inject at the current barrier; their writes
            # start here, so the next window spans one epoch.
            targets.append(self.position + 1)
        if future != math.inf:
            targets.append(int(future))
        min_peek = min(peeks[sid] for sid in self.members)
        if min_peek != math.inf:
            # Skip whole idle epochs: jump straight to the barrier just
            # past the earliest pending event.  The advance window still
            # spans at most one epoch of *activity*, so every emitted
            # message remains deliverable at a future barrier.
            targets.append(max(self.position + 1,
                               math.floor(min_peek / epoch_us) + 1))
        if not targets:
            self.done = True
            return None
        self.position = min(targets)
        self.rounds += 1
        return handoff


def run_fleet(topology: FleetTopology,
              config: Optional[FleetRunConfig] = None,
              **overrides: Any) -> dict[str, Any]:
    """Run ``topology`` under ``config`` (plus keyword overrides) and
    return the merged metrics payload -- the one-call entry point."""
    config = (config if config is not None else FleetRunConfig())
    return FleetCoordinator(config=config.merged(**overrides)).run(topology)


def run_fleet_serial(topology: FleetTopology) -> dict[str, Any]:
    """The serial reference path: the whole fleet in one in-process shard."""
    return FleetCoordinator(
        config=FleetRunConfig(transport="local")).run(topology)
