"""Fleet-simulation benchmark: shard scaling, determinism, coordination.

Runs the registered ``fleet-smoke`` topology (64+ mixed SSD/ESSD devices,
four tenants, one 2-way replication edge) through the cluster layer at 1,
2, and 4 shards:

* ``shards=1`` is the in-process serial reference path;
* ``shards=2/4`` run each shard in a dedicated worker process behind the
  conservative epoch barrier (the ``executor`` transport).

The hard gate is **bit-identical fleet metrics across every layout** --
the property that makes sharding safe to use at all.  Wall-clock speedup
and scaling efficiency are *recorded* per shard count in
``BENCH_fleet.json`` rather than gated hard here: a host with fewer cores
than shards cannot speed up, so those layouts carry a
``scaling_informational`` flag and are exempt from the overhead floor
(the floor still gates layouts the host can parallelise, and
``compare_bench.py`` turns the 2-shard speedup and the 4-shard efficiency
into real floors on hosts with the cores).

A second section measures **multi-epoch batching** on the trace-driven
``datacenter-diurnal`` fleet (steady replica traffic over many epochs):
``run_ahead=1`` reproduces one coordinator task per shard per busy epoch,
the default run-ahead window collapses that to one per window.  The gates:
bit-identical payloads between the two, and a strict cut in coordination
tasks per simulated second -- both counts are deterministic, so the
committed baseline (see ``benchmarks/compare_bench.py``) holds future PRs
to the batching win independent of host speed.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.cluster import FleetCoordinator, FleetRunConfig, FleetTopology
from repro.cluster.coordinator import DEFAULT_RUN_AHEAD
from repro.experiments.scenarios import get_scenario
from repro.experiments.sweep import quick_cells

_REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = _REPO_ROOT / "BENCH_fleet.json"

#: Sharded runs must stay within this slowdown factor of the serial path
#: even on a single-core machine (catches pathological barrier overhead).
MIN_SPEEDUP = 0.15

SHARD_COUNTS = (1, 2, 4)


def _strip_runtime(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "runtime"}


def _run(topology: FleetTopology, shards: int,
         transport: str) -> tuple[dict, float]:
    coordinator = FleetCoordinator(
        config=FleetRunConfig(shards=shards, transport=transport))
    started = time.perf_counter()
    payload = coordinator.run(topology)
    return payload, time.perf_counter() - started


def _coordination_section() -> dict:
    """Batched vs per-epoch coordination on the datacenter-diurnal fleet.

    Runs the (quick-shrunk) trace-driven topology at 2 in-process shards
    with ``run_ahead=1`` (one task per shard per busy epoch -- the
    pre-batching behavior) and with the default run-ahead window, asserts
    the payloads are bit-identical, and reports the deterministic
    coordination-task counts normalised per simulated second.
    """
    cell = quick_cells(get_scenario("datacenter-diurnal").cells())[0]
    topology = FleetTopology.from_json(cell.fleet)
    assert topology.edges, "datacenter-diurnal lost its replication edge"

    variants = {}
    payloads = {}
    for label, run_ahead in (("per-epoch", 1), ("batched", DEFAULT_RUN_AHEAD)):
        coordinator = FleetCoordinator(config=FleetRunConfig(
            shards=2, transport="local", run_ahead=run_ahead))
        payload = coordinator.run(topology)
        runtime = payload["runtime"]
        assert runtime["batched"], \
            "partition no longer keeps the mirror edge intra-shard"
        sim_seconds = payload["fleet"]["duration_us"] / 1e6
        variants[label] = {
            "run_ahead": run_ahead,
            "epochs": runtime["epochs"],
            "coordinator_rounds": runtime["coordinator_rounds"],
            "coordination_tasks": runtime["coordination_tasks"],
            "tasks_per_sim_second": round(
                runtime["coordination_tasks"] / sim_seconds, 2)
            if sim_seconds > 0 else 0.0,
        }
        payloads[label] = _strip_runtime(payload)

    # Hard gates: batching must not change the physics, and it must cut
    # coordination traffic (both counts are deterministic).
    assert json.dumps(payloads["batched"], sort_keys=True) == \
        json.dumps(payloads["per-epoch"], sort_keys=True), \
        "run-ahead batching changed the fleet metrics"
    assert variants["batched"]["coordination_tasks"] < \
        variants["per-epoch"]["coordination_tasks"], variants

    per_epoch = variants["per-epoch"]["coordination_tasks"]
    batched = variants["batched"]["coordination_tasks"]
    return {
        "topology": topology.name,
        "devices": topology.total_devices,
        "replica_writes": payloads["batched"]["fleet"]["replica_writes"],
        "variants": variants,
        "task_cut": round(per_epoch / batched, 3) if batched else 0.0,
    }


def test_fleet_shard_scaling_and_artifact():
    cell = get_scenario("fleet-smoke").cells()[0]
    topology = FleetTopology.from_json(cell.fleet)
    assert topology.total_devices >= 64

    runs = {shards: _run(topology, shards,
                         "local" if shards == 1 else "executor")
            for shards in SHARD_COUNTS}

    # Hard gate: every layout produces byte-identical fleet metrics.
    reference = json.dumps(_strip_runtime(runs[1][0]), sort_keys=True)
    for shards, (payload_, _) in runs.items():
        assert json.dumps(_strip_runtime(payload_), sort_keys=True) \
            == reference, f"shards={shards} diverged from serial"

    serial_wall = runs[1][1]
    cpu_count = os.cpu_count() or 1
    payload = {
        "benchmark": "fleet",
        "topology": {
            "name": topology.name,
            "devices": topology.total_devices,
            "groups": len(topology.groups),
            "tenants": len(topology.tenants),
            "edges": len(topology.edges),
            "epoch_us": topology.epoch_us,
        },
        "cpu_count": cpu_count,
        "fleet_ios": runs[1][0]["fleet"]["ios_completed"],
        "replica_writes": runs[1][0]["fleet"]["replica_writes"],
    }

    def scaling_entry(shards: int) -> dict:
        run_payload, wall_s = runs[shards]
        runtime = run_payload["runtime"]
        speedup = serial_wall / wall_s if wall_s > 0 else 0.0
        return {
            "transport": runtime["transport"],
            "wall_s": round(wall_s, 4),
            "events": runtime["scheduled_events"],
            "events_per_sec": round(runtime["scheduled_events"] / wall_s)
            if wall_s > 0 else 0,
            "epochs": runtime["epochs"],
            "coordinator_rounds": runtime["coordinator_rounds"],
            "coordination_tasks": runtime["coordination_tasks"],
            "speedup_vs_serial": round(speedup, 3),
            "scaling_efficiency": round(speedup / shards, 3),
            # With fewer cores than shards the workers time-slice one CPU,
            # so speedup/efficiency describe the host, not the simulator --
            # consumers of the artifact must treat them as informational.
            "scaling_informational": cpu_count < shards,
        }

    payload["shards"] = {str(shards): scaling_entry(shards)
                         for shards in SHARD_COUNTS}
    payload["headline_speedup"] = payload["shards"]["4"]["speedup_vs_serial"]
    payload["headline_informational"] = \
        payload["shards"]["4"]["scaling_informational"]
    payload["coordination"] = _coordination_section()

    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nfleet shard-scaling benchmark -> {ARTIFACT.name}")
    print(json.dumps(payload, indent=2, sort_keys=True))

    # The overhead floor is a *slowdown* bound, so it holds on any host --
    # but only gate layouts the host can actually parallelise; oversubscribed
    # layouts (cpu_count < shards) are recorded as informational only.
    for shards in SHARD_COUNTS[1:]:
        entry = payload["shards"][str(shards)]
        if not entry["scaling_informational"]:
            assert entry["speedup_vs_serial"] >= MIN_SPEEDUP, payload
