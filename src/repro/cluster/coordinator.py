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
split edge touches can never see cross-shard traffic.  Every shard runs
the same loop (:meth:`~repro.cluster.shard.ShardWorker.advance`): it
steps barrier to barrier up to its grant and injects each message,
its own or another shard's, at the message's delivery barrier.  The
coordinator has one grant rule: a **window** of shards moves its cursor
``width`` epochs past their earliest pending barrier and grants that
cursor to every member with work.

* All singleton components share one window ``run_ahead`` epochs wide
  (default 16): one task per shard per window instead of one per busy
  epoch.
* Each multi-shard component gets its own window one epoch wide.  Every
  event in a window from barrier ``c`` to ``c+1`` runs at or after
  ``c * epoch_us``, so every message it emits is due at ``c+1`` or later;
  the coordinator hands each one to the shard owning its target in that
  shard's next grant, before the shard does that barrier's work.  A split
  edge only slows the shards it actually couples.

Because seeds, replica delivery times, and injection order all derive
from logical identities (never from the shard layout, the granted
windows, or the transport), ``shards=1`` is bit-identical to any
``shards=N`` run -- and ``shards=1`` in-process *is* the serial path.

How grants and responses physically move between coordinator and shards
is the :class:`~repro.cluster.transport.ShardTransport` contract
(in-process calls, or a dedicated single-worker executor per shard -- see
:mod:`repro.cluster.transport`); every knob lives on
:class:`~repro.cluster.transport.FleetRunConfig`.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_right
from typing import Any, Callable, Optional

from repro.cluster.metrics import merge_shard_payloads
from repro.cluster.shard import ReplicaMessage, ShardPlan
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
        coupled = [component for component in components
                   if len(component) > 1]
        try:
            epochs, rounds, tasks = self._run_windows(
                topology, plans, transport, components)
            payloads = transport.collect_all()
        finally:
            transport.close()
        wall_s = time.perf_counter() - started
        events = sum(payload["scheduled_events"] for payload in payloads)
        result = merge_shard_payloads(topology, payloads)
        result["runtime"] = {
            "shards": len(plans),
            "mode": "in-process" if transport_kind == "local"
            else "processes",
            "transport": transport_kind,
            "epochs": epochs,
            "batched": not coupled,
            "run_ahead": config.run_ahead,
            "components": len(components),
            "lockstep_shards": sum(len(component) for component in coupled),
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

    def _run_windows(self, topology: FleetTopology, plans,
                     transport, components) -> tuple[int, int, int]:
        """Grant every window's members their next barrier, round by round,
        until no shard has work left.

        Each round, every window grants its cursor to its members with a
        pending event or waiting messages, and posts all grants before
        waiting on any, so independent windows (and the shards inside one
        window) advance concurrently on process transports.  Each returned
        message joins the next grant of the shard owning its target.
        Returns ``(epochs, rounds, tasks)``, where ``epochs`` is the most
        epochs any shard ran."""
        config = self.config
        epoch_us = topology.epoch_us
        singles = [component[0] for component in components
                   if len(component) == 1]
        windows = [_Window(singles, config.run_ahead)]
        windows.extend(_Window(component, 1) for component in components
                       if len(component) > 1)
        owner = span_owner(plans)
        earliest: list[Optional[int]] = [0] * len(plans)
        inboxes: list[list[ReplicaMessage]] = [[] for _ in plans]
        executed = [0] * len(plans)
        rounds = 0
        tasks = 0
        while True:
            grants = {sid: window.cursor for window in windows
                      for sid in window.grant(earliest, inboxes)}
            if not grants:
                return max(executed), rounds, tasks
            rounds += 1
            tasks += len(grants)
            for sid in sorted(grants):
                transport.post(sid, grants[sid], inboxes[sid])
                inboxes[sid] = []
            for sid in sorted(grants):
                outbound, earliest[sid], ran = transport.wait(sid)
                executed[sid] += ran
                if outbound and sid in singles:  # pragma: no cover
                    # Coupling components guarantee that a singleton
                    # never emits a message for another shard.
                    raise RuntimeError(
                        f"self-contained shard {sid} emitted a "
                        "cross-shard replica message")
                for message in outbound:
                    # Affinity + coupling guarantee the target stays
                    # inside this shard's component.
                    inboxes[owner(message.target_index)].append(message)
            if max(executed) > config.max_epochs:
                raise RuntimeError(
                    f"fleet {topology.name!r} exceeded {config.max_epochs} "
                    f"epochs (epoch_us={epoch_us}); raise epoch_us or "
                    "max_epochs")


class _Window:
    """Shards that advance under one grant cursor, ``width`` epochs at a
    time."""

    def __init__(self, members: list[int], width: int):
        self.members = members
        self.width = width
        #: The granted barrier as an *integer* epoch index: a shard
        #: computes the barrier time as ``cursor * epoch_us``, the same
        #: float product the replication hook quantizes deliveries onto.
        self.cursor = 0

    def grant(self, earliest: list[Optional[int]],
              inboxes: list[list[ReplicaMessage]]) -> list[int]:
        """Move the cursor ``width`` epochs past the members' earliest
        pending barrier and return the members to grant it to: those with
        pending work or waiting messages (none once all are idle)."""
        active = [sid for sid in self.members
                  if earliest[sid] is not None or inboxes[sid]]
        if not active:
            return []
        first = min(
            [earliest[sid] for sid in active if earliest[sid] is not None]
            + [message.delivery_epoch for sid in active
               for message in inboxes[sid]])
        self.cursor = max(self.cursor, first) + self.width
        return active


def run_fleet(topology: FleetTopology,
              config: Optional[FleetRunConfig] = None,
              **overrides: Any) -> dict[str, Any]:
    """Run ``topology`` under ``config`` (plus keyword overrides) and
    return the merged metrics payload -- the one-call entry point."""
    config = (config if config is not None else FleetRunConfig())
    return FleetCoordinator(config=config.merged(**overrides)).run(topology)


def run_fleet_serial(topology: FleetTopology) -> dict[str, Any]:
    """The serial reference path: the whole fleet in one in-process shard."""
    return run_fleet(topology, transport="local")
