"""Shard transports: how the coordinator exchanges batches with shards.

The conservative epoch loop in :mod:`repro.cluster.coordinator` is
transport-agnostic: it *posts* an advance grant to each shard (a barrier
index plus the :class:`ReplicaMessage` batch other shards sent it),
*waits* for the ``(outbound, earliest, ran)`` response (``earliest`` is
the shard's earliest pending barrier index, ``None`` when idle), and finally
*collects* each shard's metrics payload.  :class:`ShardTransport` is that
contract; two implementations ship:

* :class:`InProcessTransport` -- every shard is a plain in-process
  :class:`ShardWorker`.  The serial reference path and the test default.
* :class:`ExecutorTransport` -- the process transport: one persistent
  single-worker ``ProcessPoolExecutor`` per shard, pickled task-per-grant
  round-trips.  A worker that raises or dies surfaces as a
  ``RuntimeError`` naming the shard and what it was doing.

Every fleet-execution knob lives on one :class:`FleetRunConfig`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator, Optional, Sequence

from repro.cluster.shard import (
    ReplicaMessage,
    ShardPlan,
    ShardWorker,
    _worker_advance,
    _worker_collect,
    _worker_init,
)
from repro.cluster.topology import FleetTopology

__all__ = [
    "FleetRunConfig",
    "ShardTransport",
    "InProcessTransport",
    "ExecutorTransport",
    "create_transport",
    "DEFAULT_RUN_AHEAD",
    "MAX_EPOCHS",
    "TRANSPORTS",
]

#: Safety bound on the epochs (barriers stepped onto) any shard runs.
MAX_EPOCHS = 200_000

#: Default run-ahead window (epochs granted per task) for self-contained
#: shards.
DEFAULT_RUN_AHEAD = 16

#: Accepted ``FleetRunConfig.transport`` values.  ``auto`` resolves to
#: ``local`` at one shard and to ``executor`` otherwise.
TRANSPORTS = ("auto", "local", "executor")


# ---------------------------------------------------------------------------
# FleetRunConfig: every fleet-execution knob in one place
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FleetRunConfig:
    """Execution knobs for one fleet run, accepted uniformly by
    ``FleetCoordinator``, ``run_fleet``, ``SweepRunner``, the ``fleet`` /
    ``run`` / ``serve`` verbs, and ``kind: fleet`` config documents (as a
    ``run:`` block, which a scenario keeps as ``ScenarioSpec.run``; no sweep
    cell carries it).

    None of these fields may change simulation *results*: bit-identity of
    the metrics payload across every combination is gated by the
    determinism tests.  They only trade coordination cost for parallelism.
    The synchronization window is physics, so it belongs to the topology
    (``FleetTopology.epoch_us``), not here.
    """

    #: Number of shard simulators (clamped to the device count).
    shards: int = 1
    #: Epochs granted per coordinator task to self-contained shards.
    #: ``run_ahead=1`` restores one-task-per-busy-epoch coordination.
    run_ahead: int = DEFAULT_RUN_AHEAD
    #: One of :data:`TRANSPORTS`.
    transport: str = "auto"
    #: Safety bound on the epochs (barriers stepped onto) any shard runs.
    max_epochs: int = MAX_EPOCHS

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.run_ahead < 1:
            raise ValueError("run_ahead must be >= 1")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r} "
                f"(choose from {', '.join(TRANSPORTS)})")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")

    def merged(self, **overrides: Any) -> "FleetRunConfig":
        """A copy with every non-``None`` override applied, so an explicit
        CLI flag or ``run_fleet`` keyword wins over the config it rides
        along with."""
        changes = {key: value for key, value in overrides.items()
                   if value is not None}
        return replace(self, **changes) if changes else self

    def resolve_transport(self) -> str:
        """The concrete transport: ``auto`` is ``local`` at one shard and
        ``executor`` otherwise."""
        if self.transport != "auto":
            return self.transport
        return "local" if self.shards == 1 else "executor"


# ---------------------------------------------------------------------------
# The ShardTransport contract
# ---------------------------------------------------------------------------

class ShardTransport:
    """How the coordinator talks to its shards.

    The coordinator *posts* one advance grant per shard per round --
    ``(until_epoch, inbound batch)`` -- then *waits* for each
    ``(outbound, earliest, ran)`` response; posting everything before waiting
    is what lets process transports run shards concurrently.  At the end
    of a run :meth:`collect_all` publishes every shard's metrics payload
    and :meth:`close` tears the transport down (idempotent; always called,
    even on error paths).
    """

    #: Short name recorded in ``runtime["transport"]`` and bench entries.
    name = "abstract"

    def post(self, shard_id: int, until_epoch: int,
             inbound: Sequence[ReplicaMessage]) -> None:
        raise NotImplementedError

    def wait(self, shard_id: int,
             ) -> tuple[list[ReplicaMessage], Optional[int], int]:
        raise NotImplementedError

    def collect_all(self) -> list[dict[str, Any]]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class InProcessTransport(ShardTransport):
    """All shards as in-process objects (the serial / test path)."""

    name = "local"

    def __init__(self, topology: FleetTopology, plans: Sequence[ShardPlan]):
        self.workers = [ShardWorker(topology, plan) for plan in plans]
        self._results: dict[int, tuple] = {}

    def post(self, shard_id, until_epoch, inbound):
        self._results[shard_id] = self.workers[shard_id].advance(
            until_epoch, inbound)

    def wait(self, shard_id):
        return self._results.pop(shard_id)

    def collect_all(self):
        return [worker.collect() for worker in self.workers]

    def close(self):
        pass


@contextmanager
def _naming_shard(shard_id: int, doing: str) -> Iterator[None]:
    """Re-raise a worker exception or a broken pool as a ``RuntimeError``
    that names the shard and what it was doing, with the cause chained."""
    try:
        yield
    except Exception as error:
        raise RuntimeError(
            f"shard {shard_id} worker failed while {doing}: "
            f"{type(error).__name__}: {error}") from error


class ExecutorTransport(ShardTransport):
    """One persistent single-worker ``ProcessPoolExecutor`` per shard, so
    the worker process keeps the shard's simulator resident between grants
    (plain shared pools give no task-to-process affinity).  A worker that
    raises, or a pool whose process died, surfaces as a ``RuntimeError``
    naming the shard; a failed start shuts down every pool first."""

    name = "executor"

    def __init__(self, topology: FleetTopology, plans: Sequence[ShardPlan]):
        self.pools = [ProcessPoolExecutor(max_workers=1) for _ in plans]
        self._futures: dict[int, Any] = {}
        payload = topology.canonical()
        init = [pool.submit(_worker_init, payload, plan)
                for pool, plan in zip(self.pools, plans)]
        try:
            for shard_id, future in enumerate(init):
                with _naming_shard(shard_id, "initialising"):
                    future.result()
        except BaseException:
            self.close()
            raise

    def post(self, shard_id, until_epoch, inbound):
        # The pool pickles the arguments on its own thread after submit
        # returns: send a copy, so a caller reusing its list cannot change
        # the batch in flight.
        with _naming_shard(shard_id, "advancing"):
            self._futures[shard_id] = self.pools[shard_id].submit(
                _worker_advance, until_epoch, list(inbound))

    def wait(self, shard_id):
        with _naming_shard(shard_id, "advancing"):
            return self._futures.pop(shard_id).result()

    def collect_all(self):
        futures = []
        for shard_id, pool in enumerate(self.pools):
            with _naming_shard(shard_id, "collecting"):
                futures.append(pool.submit(_worker_collect))
        payloads = []
        for shard_id, future in enumerate(futures):
            with _naming_shard(shard_id, "collecting"):
                payloads.append(future.result())
        return payloads

    def close(self):
        for pool in self.pools:
            pool.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------

def create_transport(kind: str, topology: FleetTopology,
                     plans: Sequence[ShardPlan]) -> ShardTransport:
    """Build a concrete transport; ``kind`` must already be resolved
    (``local`` or ``executor`` -- see
    :meth:`FleetRunConfig.resolve_transport`)."""
    if kind == "local":
        return InProcessTransport(topology, plans)
    if kind == "executor":
        return ExecutorTransport(topology, plans)
    raise ValueError(f"unknown transport {kind!r} "
                     f"(choose from local, executor)")


def coupling_components(topology: FleetTopology,
                        plans: Sequence[ShardPlan]) -> list[list[int]]:
    """Partition shard ids into coupling components: shards joined by a
    cross-shard replication edge (or a fault group/spare pair) may
    exchange messages and must advance one epoch window at a time
    together; a singleton component can never see cross-shard traffic and
    shares the ``run_ahead`` window.  Union-find over shard ids,
    deterministic order."""
    parent = list(range(len(plans)))

    def find(sid: int) -> int:
        while parent[sid] != sid:
            parent[sid] = parent[parent[sid]]
            sid = parent[sid]
        return sid

    def union(*group_names: Optional[str]) -> None:
        """Couple every shard whose spans intersect one of the groups."""
        ranges = [topology.group_indices(name) for name in group_names
                  if name is not None]
        roots = sorted({find(plan.shard_id) for plan in plans
                        for start, stop in plan.spans
                        if any(start < span.stop and span.start < stop
                               for span in ranges)})
        for root in roots[1:]:
            parent[root] = roots[0]

    for edge in topology.edges:
        union(edge.source, edge.target)
    for fault in topology.faults:
        union(fault.group, fault.spare)

    components: dict[int, list[int]] = {}
    for sid in range(len(plans)):
        components.setdefault(find(sid), []).append(sid)
    return [components[root] for root in sorted(components)]
