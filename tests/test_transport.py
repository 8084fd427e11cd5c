"""Tests for the shard transport layer (repro.cluster.transport).

Three layers of coverage:

* ``FleetRunConfig``: validation, overrides, ``auto`` resolution and the
  pairs form.
* ``ExecutorTransport`` process machinery: a dead or failing worker is
  reported by shard name, and teardown leaves no worker process behind.
* The cross-transport contract: serial, in-process sharded and executor
  runs of the same topology -- including faults, spares, and macro
  groups, and every registered fleet scenario -- must produce
  bit-identical metrics payloads.
"""

import dataclasses
import multiprocessing
import os
import signal
import time

import pytest

from repro.cluster import (
    ExecutorTransport,
    FleetRunConfig,
    edge,
    fault,
    fleet,
    group,
    partition_topology,
    run_fleet,
    run_fleet_serial,
    tenant,
)
from repro.cluster.coordinator import span_owner
from repro.cluster.shard import ShardPlan
from repro.cluster.transport import TRANSPORTS, coupling_components

MINI_CAPACITY = 1 << 24


def mini_fleet(**changes):
    topology = fleet(
        "transport-under-test",
        groups=[
            group("web", "LOOP", 4, capacity_bytes=MINI_CAPACITY),
            group("db", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
            group("mirror", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4096,
                   queue_depth=2, io_count=12),
            tenant("oltp", "db", pattern="randwrite", io_size=8192,
                   queue_depth=1, io_count=10),
        ],
        edges=[edge("db", "mirror", replication_factor=2)],
        epoch_us=200.0,
        seed=7,
    )
    return topology.scaled(**changes) if changes else topology


def faulted_fleet():
    return fleet(
        "transport-faults-under-test",
        groups=[
            group("db", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
            group("mirror", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
            group("spare", "LOOP", 2, capacity_bytes=MINI_CAPACITY,
                  preload=False),
        ],
        tenants=[
            tenant("oltp", "db", pattern="randwrite", io_size=8192,
                   queue_depth=1, io_count=12),
        ],
        edges=[edge("db", "mirror", replication_factor=2)],
        faults=[fault("fail", "db", at_us=150.0, device=0,
                      repair_after_us=600.0, spare="spare")],
        epoch_us=200.0,
        seed=11,
    )


def macro_fleet():
    return fleet(
        "transport-macro-under-test",
        groups=[
            group("web", "LOOP", 4, capacity_bytes=MINI_CAPACITY,
                  mode="macro"),
            group("db", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4096,
                   queue_depth=2, io_count=12),
            tenant("oltp", "db", pattern="randwrite", io_size=8192,
                   queue_depth=1, io_count=10),
        ],
        epoch_us=200.0,
        seed=13,
    )


def strip_runtime(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "runtime"}


def assert_all_exit(processes, timeout_s: float = 10.0) -> None:
    """Every process in ``processes`` exits within ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while any(process.is_alive() for process in processes) \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(process.is_alive() for process in processes)


# ---------------------------------------------------------------------------
# FleetRunConfig
# ---------------------------------------------------------------------------

def test_run_config_validation():
    assert [f.name for f in dataclasses.fields(FleetRunConfig)] == \
        ["shards", "run_ahead", "transport", "max_epochs"]
    assert TRANSPORTS == ("auto", "local", "executor")
    for bad in (dict(shards=0), dict(run_ahead=0),
                dict(transport="carrier-pigeon"), dict(max_epochs=0)):
        with pytest.raises(ValueError):
            FleetRunConfig(**bad)


def test_run_config_merged_skips_none():
    config = FleetRunConfig(shards=4, run_ahead=8)
    assert config.merged(shards=None, transport=None) is config
    merged = config.merged(transport="executor", run_ahead=2)
    assert (merged.shards, merged.run_ahead, merged.transport) == \
        (4, 2, "executor")


def test_run_config_transport_resolution(monkeypatch):
    # auto depends on the shard count only, never on the host's cores.
    for cpu_count in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda count=cpu_count: count)
        assert FleetRunConfig(shards=1).resolve_transport() == "local"
        for shards in (2, 3, 8):
            assert FleetRunConfig(shards=shards).resolve_transport() == \
                "executor"
    # An explicit transport always wins.
    assert FleetRunConfig(shards=4, transport="local") \
        .resolve_transport() == "local"
    assert FleetRunConfig(shards=1, transport="executor") \
        .resolve_transport() == "executor"


# ---------------------------------------------------------------------------
# Coupling components
# ---------------------------------------------------------------------------

def test_components_are_singletons_without_edges_or_faults():
    topology = mini_fleet().scaled(edges=())
    plans = partition_topology(topology, 3)
    components = coupling_components(topology, plans)
    assert components == [[0], [1], [2]]


def test_edge_couples_its_shards_only():
    topology = mini_fleet()
    plans = partition_topology(topology, 3)
    owner = span_owner(plans)
    components = coupling_components(topology, plans)
    db_shards = {owner(i) for i in topology.group_indices("db")}
    mirror_shards = {owner(i) for i in topology.group_indices("mirror")}
    web_shards = {owner(i) for i in topology.group_indices("web")}
    coupled = db_shards | mirror_shards
    assert sorted(coupled) in components
    for sid in web_shards - coupled:
        assert [sid] in components


def test_fault_spare_pair_is_coupled():
    topology = faulted_fleet()
    plans = partition_topology(topology, len(topology.groups))
    owner = span_owner(plans)
    components = coupling_components(topology, plans)
    touched = {owner(i) for i in topology.group_indices("db")}
    touched |= {owner(i) for i in topology.group_indices("spare")}
    component = next(c for c in components if touched <= set(c))
    assert len(component) >= len(touched)


# ---------------------------------------------------------------------------
# Cross-transport bit-identity (the non-negotiable contract)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("transport", ["local", "executor"])
@pytest.mark.parametrize("shards", [2, 3])
def test_transports_are_bit_identical_to_serial(transport, shards):
    reference = strip_runtime(run_fleet_serial(mini_fleet()))
    payload = run_fleet(mini_fleet(), shards=shards, transport=transport)
    assert payload["runtime"]["transport"] == transport
    assert strip_runtime(payload) == reference


@pytest.mark.parametrize("transport", ["executor"])
def test_faulted_fleet_identical_across_transports(transport):
    reference = strip_runtime(run_fleet_serial(faulted_fleet()))
    payload = run_fleet(faulted_fleet(), shards=2, transport=transport)
    assert strip_runtime(payload) == reference


def test_macro_fleet_identical_across_transports():
    reference = strip_runtime(run_fleet_serial(macro_fleet()))
    for transport in ("local", "executor"):
        payload = run_fleet(macro_fleet(), shards=2, transport=transport)
        assert strip_runtime(payload) == reference


@pytest.mark.parametrize("run_ahead", [1, 4, 64])
def test_mixed_gear_run_ahead_is_bit_identical(run_ahead):
    """mini_fleet at 3 shards splits into one coupled pair (db+mirror,
    joined by the replication edge) advancing one epoch per grant and
    singleton web shards sharing the run-ahead window -- both window
    widths in one run."""
    reference = strip_runtime(run_fleet_serial(mini_fleet()))
    payload = run_fleet(mini_fleet(), shards=3, transport="local",
                        run_ahead=run_ahead)
    runtime = payload["runtime"]
    assert runtime["components"] == 2
    assert runtime["lockstep_shards"] == 2
    assert strip_runtime(payload) == reference


def test_registered_fleets_are_layout_independent():
    """Every registered fleet scenario's quick cells give the serial
    payload at 2, 3 and 4 in-process shards.  These fleets couple shards
    through split replication edges and fault spares, so a shard that
    injected its own messages at a barrier before the other shards'
    messages for that barrier arrived would show here."""
    from repro.cluster import FleetTopology
    from repro.experiments.scenarios import all_scenarios
    from repro.experiments.sweep import quick_cells

    checked = 0
    for spec in all_scenarios():
        if "fleet" not in spec.tags:
            continue
        for index, cell in enumerate(quick_cells(spec.cells())):
            if cell.fleet is None:  # a multi-stream cell, not a topology
                continue
            topology = FleetTopology.from_json(cell.fleet)
            reference = strip_runtime(run_fleet_serial(topology))
            for shards in (2, 3, 4):
                payload = run_fleet(topology, shards=shards,
                                    transport="local")
                assert strip_runtime(payload) == reference, \
                    (spec.name, index, shards)
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# ExecutorTransport machinery
# ---------------------------------------------------------------------------

def test_executor_crashed_worker_raises_cleanly():
    topology = mini_fleet()
    plans = partition_topology(topology, 2)
    transport = ExecutorTransport(topology, plans)
    try:
        victim = next(iter(transport.pools[0]._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        # The pool may notice the death at submit time or only when the
        # grant's future resolves; either way the error names the shard.
        with pytest.raises(RuntimeError,
                           match="shard 0 worker failed while advancing"
                           ) as excinfo:
            transport.post(0, 1, [])
            transport.wait(0)
        assert excinfo.value.__cause__ is not None
    finally:
        transport.close()


def test_executor_worker_init_error_raises_cleanly():
    """A plan span past the end of the fleet, or one with a negative
    start, fails the worker's start with an IndexError naming the span."""
    topology = mini_fleet()
    plans = partition_topology(topology, 2)
    for span in ((10 ** 9, 10 ** 9 + 1), (-1, 0)):
        bad = ShardPlan(shard_id=1, spans=(span,))
        before = set(multiprocessing.active_children())

        with pytest.raises(RuntimeError,
                           match="shard 1 worker failed while initialising"
                           ) as excinfo:
            ExecutorTransport(topology, [plans[0], bad])
        assert isinstance(excinfo.value.__cause__, IndexError)
        assert str(span) in str(excinfo.value)
        # Every pool was shut down before the error surfaced: no worker
        # process of either shard outlives it.
        assert_all_exit(set(multiprocessing.active_children()) - before)


def test_executor_close_is_idempotent():
    topology = mini_fleet()
    plans = partition_topology(topology, 2)
    transport = ExecutorTransport(topology, plans)
    workers = [process for pool in transport.pools
               for process in pool._processes.values()]
    assert len(workers) == 2
    transport.close()
    transport.close()
    assert_all_exit(workers)
