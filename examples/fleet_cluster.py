"""Fleet simulation: declare a topology, run it sharded, read the metrics.

Run with::

    PYTHONPATH=src python examples/fleet_cluster.py

The cluster layer (``repro.cluster``) simulates *fleets* -- hundreds of
devices -- by partitioning a declarative topology across shard simulators
that run in separate worker processes and synchronize through a
conservative epoch barrier.  Results are bit-identical at any shard count.

Topology schema
---------------
A :class:`~repro.cluster.FleetTopology` is built from three elements (or
loaded from a validated YAML/JSON document; ``FleetTopology.canonical()``
is the canonical JSON of that document and ``FleetTopology.from_json``
reads it back, see ``examples/fleet_config.yaml`` for the schema):

``group(name, device, count, capacity_bytes=None, device_params=None,
preload=True, mode="discrete")``
    ``count`` instances of a registered device family (``"SSD"``,
    ``"ESSD-1"``, ``"ESSD-2"``, ``"LOOP"``).  ``device_params`` override
    profile fields (e.g. ``{"replication_factor": 2}``).
    ``mode="macro"`` replaces the ``count`` discrete simulators with one
    calibrated mean-field aggregate (see *Macro groups* below).

``tenant(name, group, **workload)``
    One workload bound to *every* device of the group.  Plain fields make
    a closed-loop FIO job (``pattern``, ``io_size``, ``queue_depth``,
    ``io_count``, ...).  Passing ``trace="bursty" | "diurnal" |
    "uniform"`` instead replays a synthesized open-loop arrival process
    (remaining fields go to the trace generator: ``duration_us``,
    ``mean_load_gbps``, ``burst_factor``, ...).  Every (tenant, device)
    pair derives its own deterministic seed.

``edge(source, target, replication_factor=1)``
    Asynchronous cross-group mirroring: each completed tenant write on
    source device ``i`` fans out to ``replication_factor`` devices of the
    target group.  Deliveries are quantized to the topology's
    ``epoch_us`` window, which is also the shard synchronization barrier.

Fault schedules
---------------
A topology optionally carries a declarative fault schedule
(``faults=[...]``, ``fault_policy=FaultPolicy(...)``) that the runtime
applies at epoch barriers -- fault physics stay bit-identical at any
shard count and any run-ahead window:

``fault(kind, group, at_us, device=None, repair_after_us=None,
spare=None)``
    ``kind="fail"`` takes a device (or the whole group when ``device`` is
    None) offline at the first epoch barrier at/after ``at_us``; offline
    devices *shed* I/O (fast-fail after ``shed_penalty_us``, marked
    ``request.shed``; shed writes never replicate).  A fail also kicks off
    a **re-replication storm**: the lost bytes are re-read in paced chunks
    from the surviving replica holders and re-written to ``spare`` (a cold
    group promoted on failure) or, without a spare, to the surviving
    peers -- rebuild traffic competes with foreground tenants on the same
    simulated devices.  ``kind="drain"`` sheds without rebuilding
    (planned maintenance).  ``repair_after_us`` brings the device back at
    a later barrier (always at least one epoch after the failure).

``FaultPolicy(rebuild_chunk_bytes, rebuild_chunks_per_epoch,
shed_penalty_us, max_inflight)``
    The rebuild pacing (chunk size x chunks per epoch bounds rebuild
    bandwidth), the shed fast-fail latency, and an optional admission-
    control cap: with ``max_inflight=N`` a device sheds any I/O beyond N
    in flight, turning overload into bounded fast-fails instead of
    unbounded queueing.

Fleet reports from a faulted topology gain ``result["faults"]`` (shed
I/Os, rebuild writes/reads/bytes, rebuild GB/s over the degraded window,
and the during-rebuild vs steady latency split), per-tenant
``["faults"]`` splits, and per-group rebuild/shed counters.

Macro groups (mean-field aggregates)
------------------------------------
A group declared with ``mode="macro"`` is not expanded into per-device
simulators.  Instead ``repro.cluster.macro`` advances the whole group per
epoch window as **one vectorized process**: a queueing approximation
whose service-time distribution, effective concurrency, and rate are
*calibrated* by running each tenant's workload once on a single discrete
device (same ``derive_seed`` identity the discrete path uses, so
calibration is layout-independent).  Group size becomes a constant-cost
parameter -- the registered ``fleet-macro-100k`` scenario runs 100 000+
devices in well under a minute (``python -m repro.experiments fleet
fleet-macro-100k --quick``).

What carries over exactly, what is approximate:

* I/O and byte totals are **exact** (closed-loop tenants; trace tenants
  track within a couple percent), replica fan-out bytes are exact, and
  runs stay bit-identical across shard layouts, run-ahead windows, and
  repeated runs.  Macro groups exchange replica traffic with discrete
  groups in both directions, and fault schedules (shed, spare promotion,
  paced rebuild storms) apply at the same epoch barriers.
* Latency quantiles and throughput are **approximate**: every metrics
  payload derived from a macro group carries ``approximate: True``
  (tenant, group, fleet, and sweep-headline levels; exact results carry
  no flag).  The measured error envelope -- low single-digit percent on
  p50/p95/p99 and throughput for the calibrated families -- is recorded
  by ``benchmarks/test_bench_macro.py`` into ``BENCH_macro.json`` (plus
  a readable ``BENCH_macro_table.md``) and regression-gated against the
  committed baselines by ``benchmarks/compare_bench.py``;
  ``tests/test_macro_validation.py`` enforces the declared tolerance
  bands per family.

Each calibration runs once per process (an in-process memo); the sweep
cache holds whole fleet cells, so a cached cell never calibrates.  Any
topology can be re-run with groups flipped to macro (or back) from the
CLI::

    python -m repro.experiments fleet fleet-smoke --macro web,cache
    python -m repro.experiments fleet fleet-smoke --macro db=discrete

The override is part of the sweep cache key: macro and discrete runs of
the same scenario never collide.

Shard transports
----------------
The coordinator never talks to worker processes directly: it posts
advance grants to a :class:`~repro.cluster.ShardTransport` and waits for
the responses.  Two implementations ship (``repro.cluster.transport``):

``local`` (:class:`~repro.cluster.InProcessTransport`)
    Every shard as a plain in-process object.  The serial reference path;
    what ``shards=1`` resolves to.

``executor`` (:class:`~repro.cluster.ExecutorTransport`)
    One persistent single-worker ``ProcessPoolExecutor`` per shard, one
    pickled task round-trip per grant.  A worker that raises or dies is
    reported as a ``RuntimeError`` naming the shard and what it was doing
    (initialising, advancing or collecting).

``transport="auto"`` (the default) is ``local`` at one shard and
``executor`` otherwise; both are bit-identical, so the knob only moves
wall clock.  ``BENCH_fleet.json`` records the scaling per shard count.

FleetRunConfig: every execution knob in one place
-------------------------------------------------
:class:`~repro.cluster.FleetRunConfig` collapses the scattered execution
knobs into one dataclass accepted uniformly by ``FleetCoordinator``,
``run_fleet``, ``SweepRunner(fleet_config=...)``, the ``fleet`` / ``run``
/ ``serve`` verbs, and config documents (as a ``run:`` block)::

    from repro.cluster import FleetRunConfig, run_fleet

    config = FleetRunConfig(shards=4, transport="executor", run_ahead=32)
    payload = run_fleet(topology, config)           # or config.merged(...)

Fields: ``shards``, ``run_ahead``, ``transport`` (one of ``auto | local |
executor``) and ``max_epochs``.  None of them may change simulation
results -- bit-identity across every combination is gated by the
determinism tests -- so none of them enters the sweep cache key, and no
sweep cell carries them.  A scenario keeps its document's ``run:`` block
as ``ScenarioSpec.run``: the fields the block sets, as written, so a
field set to its default stays set.  The runner holds the config its
fleet cells run under (``SweepRunner(fleet_config=...)``).  ``run`` and
``fleet`` build that config from the block with their flags on top (a
flag contradicting a field the block sets is an error), and ``serve``
from its own flags with each submission's block on top.  The synchronization window is physics and
belongs to the topology (``epoch_us``; ``fleet --epoch-us`` on the CLI).

Run-ahead windows and coupling components
-----------------------------------------
Every shard runs one loop: it steps its simulator from ``epoch_us``
barrier to barrier up to the barrier the coordinator granted, and at each
barrier it injects the replica messages due there -- its own and those
other shards sent it -- in one layout-independent order.  The coordinator
has one grant rule: a **window** of shards moves its cursor ``width``
epochs past their earliest pending barrier and grants it to every member
with work.  A window only needs to be one epoch wide inside a **coupling
component**: the union-find closure of shards joined by a cross-shard
replication edge or a fault group/spare pair.  The device-affinity
partitioner keeps edge clusters together whenever the shard count
allows; each multi-shard component gets its own one-epoch window, while
all singleton components share one **run-ahead window** of ``run_ahead``
epochs (default 16) per task.  Both run concurrently in the same
coordinator loop (``runtime["components"]`` /
``runtime["lockstep_shards"]`` report the split).  On long trace-driven
fleets this cuts coordination tasks per simulated second by roughly the
window size (see ``BENCH_fleet.json``'s ``coordination`` section);
metrics stay bit-identical for every ``run_ahead`` value,
``run_ahead=1`` gives every shard a one-epoch window, and
``runtime["coordinator_rounds"]`` / ``runtime["coordination_tasks"]``
report what a run actually spent.

CLI
---
Registered fleet scenarios (see ``python -m repro.experiments list``, tag
``fleet``) run through the same machinery::

    python -m repro.experiments fleet fleet-smoke                 # serial
    python -m repro.experiments fleet fleet-smoke --shards 4      # sharded
    python -m repro.experiments fleet fleet-smoke --shards 4 --transport local
    python -m repro.experiments fleet datacenter-diurnal --quick
    python -m repro.experiments fleet fleet-smoke --shards 4 --out fleet.json
    python -m repro.experiments fleet fleet-smoke --run-ahead 1   # per-epoch
    # fleet runs its cells through run's pipeline (same runner, cache and
    # result file), so --out writes a sweep result that diff reads:
    python -m repro.experiments run fleet-smoke --out run.json
    python -m repro.experiments diff fleet.json run.json --fail-on-change

The fault-scenario family exercises the schedule machinery end to end::

    # A device failure mid-run, spare promotion, a concurrent drain, and a
    # sweep over the rebuild pacing knob (rebuild_chunks_per_epoch):
    python -m repro.experiments fleet failover-storm --quick
    # Over-provisioning x working-set sweep under a rebuild storm:
    python -m repro.experiments run gc-cliff --quick

    # Inject an ad-hoc schedule into any fleet scenario (inline JSON or
    # @file); the schedule becomes part of the sweep cache key:
    python -m repro.experiments fleet fleet-smoke --faults \
        '{"events": [{"kind": "fail", "group": "db", "at_us": 1500.0,
                      "device": 0, "repair_after_us": 8000.0}],
          "policy": {"shed_penalty_us": 150.0}}'

``--shards 1`` *is* the serial path; any ``--shards N``, ``--transport``
and ``--run-ahead`` combination produces the same fleet metrics (only the
``runtime`` section -- wall clock, events/sec, coordination, partition --
differs; a saved sweep keeps it beside each fresh fleet cell's metrics,
never in them).  One rule holds on ``run`` and ``fleet`` when a scenario
document carries its own ``run:`` block: a ``--shards``, ``--run-ahead``
or ``--transport`` flag that differs from the same field there is an
error (path-addressed, exit 2) rather than silently losing or winning --
edit the document or drop the flag; on ``fleet``, ``--serial`` counts as
``--transport local``.  (``serve`` applies its flags only where a
submitted document's ``run:`` block is silent.)  Deterministic fleet
metrics cache under ``$REPRO_SWEEP_CACHE`` (default ``.sweep-cache``)
exactly like ``run`` sweeps: execution knobs are excluded from the cache
key, while ``--epoch-us`` (physics) is part of it; ``--force`` re-runs,
``--no-cache`` disables.  ``run <scenario> --shards N`` nests
the same sharding inside the sweep pool for scenarios whose cells carry
fleets.

Config documents (no Python required)
-------------------------------------
Everything above can be declared in a YAML/JSON document instead of
Python -- ``examples/fleet_config.yaml`` is a fully-commented schema
walkthrough (topology, device-profile presets, trace tenants, fault
schedules, sweep grids).  Documents are validated with path-addressed
errors (``fleet.groups[2].count: expected positive int``) and run through
the exact same cell machinery, so a document fleet and its Python twin
produce bit-identical metrics and share sweep-cache entries::

    python -m repro.experiments validate examples/fleet_config.yaml
    python -m repro.experiments fleet examples/fleet_config.yaml --quick
    # Register permanently: every document in the directories on
    # $REPRO_SCENARIO_PATH appears in `list` and runs by name.
    REPRO_SCENARIO_PATH=examples python -m repro.experiments list

``kind: fleet`` documents accept a ``run:`` block mirroring
:class:`~repro.cluster.FleetRunConfig`.  It sets exactly the fields it
names (a default value too), so the empty block is the default config::

    run:
      shards: 4
      transport: executor # auto | local | executor
      run_ahead: 32

(YAML needs the optional ``config`` extra, ``pip install repro[config]``;
JSON documents work without it.)

The experiment service (repro.serve)
------------------------------------
``serve`` starts a persistent process that accepts scenario/fleet
submissions over a unix socket or localhost TCP, schedules them on a
shared sweep runner with the same result cache as the batch CLI, and
streams per-cell metrics as line-delimited JSON.  Submissions beyond
``--max-pending`` are rejected immediately with a reason (admission
control), and ``--job-workers N`` runs N jobs concurrently::

    python -m repro.experiments serve --socket /tmp/repro.sock &
    # Submit a registered scenario or a document file; events stream back:
    python -m repro.experiments submit fleet-smoke --quick \
        --socket /tmp/repro.sock
    python -m repro.experiments submit examples/fleet_config.yaml \
        --socket /tmp/repro.sock --out result.json

Because the server and the batch CLI share one cache contract, a
document submitted to ``serve`` and the same document run via ``fleet``
hit the same cache keys -- whichever runs second is a pure cache hit.
Programmatic access goes through :class:`repro.serve.ServeClient`::

    from repro.serve import ServeClient

    with ServeClient(socket_path="/tmp/repro.sock") as client:
        terminal, events = client.run(scenario="fleet-smoke", quick=True)
        # events: "accepted", "started", one "cell" per finished cell,
        # then the terminal "done" carrying every cell's metrics.
"""

from repro.cluster import (
    FleetCoordinator,
    FleetRunConfig,
    edge,
    fleet,
    group,
    run_fleet_serial,
    tenant,
)
from repro.host.io import KiB, MiB


def build_topology():
    """A small mixed fleet: a web tier, a replicated database, bulk ingest."""
    return fleet(
        "example-fleet",
        groups=[
            group("web", "SSD", 8, capacity_bytes=32 * MiB),
            group("db", "SSD", 4, capacity_bytes=32 * MiB),
            group("db-mirror", "SSD", 4, capacity_bytes=32 * MiB),
            group("bulk", "ESSD-2", 4, capacity_bytes=64 * MiB),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4 * KiB,
                   queue_depth=2, io_count=50),
            tenant("oltp", "db", pattern="randwrite", io_size=16 * KiB,
                   queue_depth=4, io_count=50),
            tenant("ingest", "bulk", trace="bursty", duration_us=50_000.0,
                   mean_load_gbps=0.3, io_size=64 * KiB),
        ],
        edges=[edge("db", "db-mirror", replication_factor=2)],
        epoch_us=1000.0,
        seed=42,
    )


def main() -> None:
    topology = build_topology()
    print(f"fleet {topology.name!r}: {topology.total_devices} devices, "
          f"{len(topology.tenants)} tenants, {len(topology.edges)} edges")

    serial = run_fleet_serial(topology)
    config = FleetRunConfig(shards=4)  # transport="auto": executor
    sharded = FleetCoordinator(config=config).run(topology)

    for label, result in (("serial", serial), ("4 shards", sharded)):
        runtime = result["runtime"]
        print(f"\n[{label}] {runtime['epochs']} epochs "
              f"({runtime['transport']} transport), "
              f"{runtime['wall_s']:.2f}s, {runtime['events_per_sec']:.0f} ev/s")
        for name, metrics in sorted(result["tenants"].items()):
            print(f"  {name:10s} {metrics['ios_completed']:5d} ios  "
                  f"mean {metrics['mean_us']:7.1f}us  "
                  f"p99.9 {metrics['p999_us']:7.1f}us  "
                  f"{metrics['throughput_gbps']:.3f} GB/s")
        mirror = result["groups"]["db-mirror"]
        print(f"  db-mirror absorbed {mirror['replica_writes']} replica "
              f"writes ({mirror['replica_bytes'] >> 10} KiB)")

    identical = all(
        serial[section] == sharded[section]
        for section in ("fleet", "tenants", "groups"))
    print(f"\nserial == sharded metrics: {identical}")

    # The same topology with the web tier as a mean-field aggregate: one
    # calibrated process instead of 8 simulators, metrics flagged
    # approximate, replica traffic to the discrete groups unchanged.
    macro = run_fleet_serial(topology.with_modes({"web": "macro"}))
    frontend = macro["tenants"]["frontend"]
    print(f"\n[macro web] frontend {frontend['ios_completed']} ios  "
          f"mean {frontend['mean_us']:.1f}us  "
          f"approximate={frontend['approximate']}")


if __name__ == "__main__":
    main()
