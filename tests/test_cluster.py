"""Tests for the sharded fleet-simulation subsystem (repro.cluster)."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FaultPolicy,
    FleetCoordinator,
    FleetRunConfig,
    FleetTopology,
    ShardWorker,
    edge,
    fault,
    fleet,
    group,
    partition_topology,
    run_fleet,
    run_fleet_serial,
    tenant,
)
from repro.cluster.shard import ReplicaMessage, ShardPlan
from repro.experiments.cli import main as cli_main
from repro.experiments.scenarios import get_scenario, register, scenario
from repro.experiments.sweep import SweepResult, SweepRunner, run_cell

#: A small mixed fleet with a replication edge, on the fast loopback device.
MINI_CAPACITY = 1 << 24


def mini_fleet(**changes) -> FleetTopology:
    topology = fleet(
        "mini-under-test",
        groups=[
            group("web", "LOOP", 4, capacity_bytes=MINI_CAPACITY),
            group("db", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
            group("mirror", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4096,
                   queue_depth=2, io_count=20),
            tenant("oltp", "db", pattern="randwrite", io_size=8192,
                   queue_depth=1, io_count=15),
        ],
        edges=[edge("db", "mirror", replication_factor=2)],
        epoch_us=200.0,
        seed=5,
    )
    return topology.scaled(**changes) if changes else topology


def strip_runtime(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "runtime"}


def owned(plan: ShardPlan) -> list[int]:
    """Every global index a plan's spans cover, ascending."""
    return [index for start, stop in plan.spans
            for index in range(start, stop)]


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

def test_topology_payload_roundtrip_and_canonical():
    topology = mini_fleet()
    clone = FleetTopology.from_json(topology.canonical())
    assert clone == topology
    assert clone.canonical() == topology.canonical()
    assert topology.total_devices == 10
    assert list(topology.group_indices("db")) == [4, 5, 6]
    assert topology.locate(0) == (topology.group("web"), 0)
    assert topology.locate(6) == (topology.group("db"), 2)
    assert topology.locate(9) == (topology.group("mirror"), 2)
    for outside in (-1, 10):
        with pytest.raises(IndexError):
            topology.locate(outside)


def test_topology_validation():
    web = group("web", "LOOP", 2)
    with pytest.raises(ValueError):  # unknown tenant group
        fleet("bad", groups=[web], tenants=[tenant("t", "nope", io_count=1)])
    with pytest.raises(ValueError):  # unknown edge group
        fleet("bad", groups=[web], edges=[edge("web", "nope")])
    with pytest.raises(ValueError):  # duplicate group names
        fleet("bad", groups=[web, group("web", "SSD", 1)])
    with pytest.raises(ValueError):  # factor exceeds target group size
        fleet("bad", groups=[web, group("m", "LOOP", 1)],
              edges=[edge("web", "m", replication_factor=2)])
    with pytest.raises(ValueError):  # self-edge
        edge("web", "web")
    with pytest.raises(ValueError):  # count must be positive
        group("empty", "LOOP", 0)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def test_partition_covers_every_device_exactly_once():
    topology = mini_fleet()
    for shards in (1, 2, 3, 4, 7, 100):
        plans = partition_topology(topology, shards)
        indices = [i for plan in plans for i in owned(plan)]
        assert sorted(indices) == list(range(topology.total_devices))
        assert len(plans) == min(shards, topology.total_devices)
        assert all(plan.spans for plan in plans)


def test_partition_keeps_replication_edges_intra_shard_when_possible():
    topology = mini_fleet()
    # Two clusters ({web}, {db, mirror}) onto two shards: the edge endpoints
    # must land together.
    plans = partition_topology(topology, 2)
    db = set(topology.group_indices("db"))
    mirror = set(topology.group_indices("mirror"))
    for plan in plans:
        indices = set(owned(plan))
        if indices & db:
            assert db | mirror <= indices


def test_partition_is_deterministic():
    topology = mini_fleet()
    assert partition_topology(topology, 3) == partition_topology(topology, 3)


# ---------------------------------------------------------------------------
# Serial vs sharded determinism (the seed-hygiene regression test)
# ---------------------------------------------------------------------------

def test_serial_and_sharded_runs_are_bit_identical():
    """Metrics must not depend on the shard layout: seeds, replica delivery
    times, and injection order all derive from logical identities only."""
    topology = mini_fleet()
    serial = run_fleet_serial(topology)
    for shards in (2, 3):
        sharded = run_fleet(topology, shards=shards, transport="local")
        assert json.dumps(strip_runtime(sharded), sort_keys=True) == \
            json.dumps(strip_runtime(serial), sort_keys=True)


def test_shards_1_is_the_serial_path():
    topology = mini_fleet()
    one = run_fleet(topology, shards=1, transport="local")
    serial = run_fleet_serial(topology)
    assert json.dumps(strip_runtime(one), sort_keys=True) == \
        json.dumps(strip_runtime(serial), sort_keys=True)


def test_process_mode_matches_in_process():
    topology = mini_fleet()
    serial = run_fleet_serial(topology)
    processed = run_fleet(topology, shards=2, transport="executor")
    assert json.dumps(strip_runtime(processed), sort_keys=True) == \
        json.dumps(strip_runtime(serial), sort_keys=True)
    assert processed["runtime"]["mode"] == "processes"
    assert processed["runtime"]["shards"] == 2


def test_every_tenant_device_pair_gets_a_distinct_seed():
    """No two (tenant, device) workloads may share an RNG stream."""
    topology = mini_fleet()
    worker = ShardWorker(topology, partition_topology(topology, 1)[0])
    seeds = [run[2].job.seed for run in worker._runs]
    assert len(seeds) == len(set(seeds)) == 7  # 4 web + 3 db devices


def test_a_shard_computes_one_preload_per_ssd_recipe(monkeypatch):
    """Every SSD after the first of its recipe on a shard copies that one's
    preload, across groups; another recipe computes its own."""
    from repro.ssd.ftl import Ftl

    computed = []
    preload_range = Ftl.preload_range

    def counted(ftl, *args):
        computed.append(ftl)
        preload_range(ftl, *args)

    monkeypatch.setattr(Ftl, "preload_range", counted)
    topology = fleet("recipes", groups=[
        group("a", "SSD", 3, capacity_bytes=4 << 20),
        group("b", "SSD", 2, capacity_bytes=4 << 20),
        group("c", "SSD", 2, capacity_bytes=4 << 20, device_params={"op_ratio": 0.2}),
        group("d", "SSD", 1, capacity_bytes=4 << 20, preload=False),
    ])
    worker = ShardWorker(topology, partition_topology(topology, 1)[0])
    assert computed == [worker.devices[0].ftl, worker.devices[5].ftl]
    assert not worker.devices[7].ftl.mapping.mapped_blocks


# ---------------------------------------------------------------------------
# Replication edges
# ---------------------------------------------------------------------------

def test_replication_edge_delivers_quantized_replica_writes():
    topology = mini_fleet()
    result = run_fleet_serial(topology)
    mirror = result["groups"]["mirror"]
    # Every oltp write (3 devices x 15 I/Os) fans out 2-way.
    assert mirror["replica_writes"] == 3 * 15 * 2
    assert mirror["replica_bytes"] == mirror["replica_writes"] * 8192
    assert mirror["replica_mean_us"] > 0
    assert result["fleet"]["replica_writes"] == mirror["replica_writes"]
    # The unreplicated read group absorbed nothing.
    assert result["groups"]["web"]["replica_writes"] == 0


def test_delivery_refuses_a_barrier_with_events_still_due():
    """A shard submits delivered messages straight to their devices, which
    keeps the event order only when nothing else is due at the barrier.
    Before its first run a shard's tenant workers are still due at time 0,
    so a delivery there raises instead of reordering them."""
    topology = mini_fleet()
    worker = ShardWorker(topology, partition_topology(topology, 1)[0])
    web = topology.group_indices("web")[0]  # no edge replicates into web
    message = ReplicaMessage(target_index=web, offset=0, size=4096,
                             origin_index=4, origin_seq=0, delivery_epoch=0)
    with pytest.raises(RuntimeError, match="still due"):
        worker.deliver([message])
    _outbound, earliest, _epochs = worker.advance(10**9)
    assert earliest is None
    worker.deliver([message])  # nothing is due at the last barrier
    worker.sim.run()
    assert worker.collect()["replicas"][str(web)]["count"] == 1


def test_replication_spanning_many_epochs_delivers_every_write():
    """Writes straddling many epoch barriers must all replicate (regression:
    the outbound buffer was once rebound at the barrier, orphaning the
    hook's reference), even for an epoch width with no exact binary
    representation (regression: an accumulated float barrier drifted off
    the delivery-quantization grid and scheduled deliveries in the past)."""
    topology = fleet(
        "multi-epoch",
        groups=[
            group("db", "LOOP", 2, capacity_bytes=MINI_CAPACITY),
            group("mirror", "LOOP", 2, capacity_bytes=MINI_CAPACITY),
        ],
        tenants=[tenant("oltp", "db", pattern="randwrite", io_size=4096,
                        queue_depth=1, io_count=200, think_time_us=7.0)],
        edges=[edge("db", "mirror")],
        epoch_us=33.3,
        seed=3,
    )
    serial = run_fleet_serial(topology)
    assert serial["runtime"]["epochs"] > 10  # genuinely multi-epoch
    assert serial["groups"]["mirror"]["replica_writes"] == 2 * 200
    sharded = run_fleet(topology, shards=3, transport="local")
    assert json.dumps(strip_runtime(sharded), sort_keys=True) == \
        json.dumps(strip_runtime(serial), sort_keys=True)


def test_split_replication_target_group_keeps_replica_stats_identical():
    """When the partitioner splits a replication *target* group across
    shards, replica latency must still pool in global-index order
    (regression: per-group stats merged in shard order perturbed the mean
    by a few ULPs and broke the bit-identical invariant)."""
    topology = fleet(
        "split-target",
        groups=[
            group("db", "LOOP", 2, capacity_bytes=MINI_CAPACITY),
            group("mirror", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
        ],
        tenants=[tenant("oltp", "db", pattern="randwrite", io_size=4096,
                        queue_depth=1, io_count=30)],
        edges=[edge("db", "mirror", replication_factor=3)],
        epoch_us=333.3,
        seed=7,
    )
    serial = run_fleet_serial(topology)
    assert serial["groups"]["mirror"]["replica_writes"] == 2 * 30 * 3
    for shards in (3, 5):
        plans = partition_topology(topology, shards)
        mirror = set(topology.group_indices("mirror"))
        owners = {plan.shard_id for plan in plans
                  if set(owned(plan)) & mirror}
        assert len(owners) > 1, "topology no longer splits the target group"
        sharded = run_fleet(topology, shards=shards, transport="local")
        assert json.dumps(strip_runtime(sharded), sort_keys=True) == \
            json.dumps(strip_runtime(serial), sort_keys=True)


def test_misspelled_fleet_axis_is_rejected_not_silently_ignored():
    with pytest.raises(ValueError, match="epoch_uss"):
        scenario("x", "d", devices=("fleet",), fleet=mini_fleet(),
                 grid={"fleet.epoch_uss": (500.0,)}).cells()
    with pytest.raises(Exception):  # bad group field fails at expansion
        scenario("x", "d", devices=("fleet",), fleet=mini_fleet(),
                 grid={"fleet.web.coutn": (8,)}).cells()


@pytest.mark.parametrize("axis, value, path", [
    ("fleet.run", 2, "fleet.run: unknown key"),
    ("fleet.description", "d", "fleet.description: unknown key"),
    ("fleet.tags", "t", "fleet.tags: unknown key"),
    ("fleet.web.nope", 1, "fleet.groups[0].nope: unknown key"),
    ("fleet.frontend.io_cont", 1,
     "fleet.tenants[0].workload.io_cont: unknown key"),
    ("fleet.kind", "fleet", "fleet.kind: not a topology field"),
    ("fleet.profiles.p.device", "LOOP", "fleet.profiles: not a topology"),
])
def test_fleet_axis_outside_the_topology_is_rejected(axis, value, path):
    spec = scenario("x", "d", devices=("fleet",), fleet=mini_fleet(),
                    grid={axis: (value,)})
    with pytest.raises(ValueError) as excinfo:
        spec.cells()
    assert str(excinfo.value).startswith(path)


def test_fleet_without_edges_is_layout_independent():
    topology = fleet(
        "edgeless", groups=[group("g", "LOOP", 3, capacity_bytes=MINI_CAPACITY)],
        tenants=[tenant("t", "g", pattern="randwrite", io_size=4096,
                        io_count=10)])
    serial = run_fleet_serial(topology)
    sharded = run_fleet(topology, shards=3, transport="local")
    assert json.dumps(strip_runtime(serial), sort_keys=True) == \
        json.dumps(strip_runtime(sharded), sort_keys=True)


# ---------------------------------------------------------------------------
# Trace-driven tenants
# ---------------------------------------------------------------------------

def test_trace_tenants_replay_open_loop_and_stay_layout_independent():
    topology = fleet(
        "traced",
        groups=[group("store", "LOOP", 3, capacity_bytes=MINI_CAPACITY)],
        tenants=[tenant("arrivals", "store", trace="bursty",
                        duration_us=20_000.0, mean_load_gbps=0.2,
                        io_size=16384)],
        seed=9)
    serial = run_fleet_serial(topology)
    sharded = run_fleet(topology, shards=3, transport="local")
    assert json.dumps(strip_runtime(serial), sort_keys=True) == \
        json.dumps(strip_runtime(sharded), sort_keys=True)
    arrivals = serial["tenants"]["arrivals"]
    assert arrivals["ios_completed"] > 0
    assert arrivals["bytes_written"] > 0
    assert serial["fleet"]["duration_us"] > 0


def test_unknown_trace_family_is_rejected():
    from repro.workload.trace import synthesize_trace
    with pytest.raises(ValueError):
        synthesize_trace("nope", duration_us=1000.0)


# ---------------------------------------------------------------------------
# Sweep-layer integration (CellSpec.fleet) and the CLI verb
# ---------------------------------------------------------------------------

def _register_mini_scenario():
    spec = scenario(
        "mini-fleet-under-test", "test-only fleet",
        devices=("fleet",),
        fleet=mini_fleet(),
        grid={"fleet.web.count": (2, 4)},
    )
    register(spec, replace=True)
    return spec


def test_fleet_scenario_expands_shape_axes_into_topologies():
    spec = _register_mini_scenario()
    cells = spec.cells()
    assert len(cells) == 2
    counts = [json.loads(cell.fleet)["groups"][0]["count"] for cell in cells]
    assert counts == [2, 4]
    assert [dict(cell.labels)["fleet.web.count"] for cell in cells] == [2, 4]
    # Fleet axes demand a topology; group fields and tenant knobs resolve.
    with pytest.raises(ValueError):
        scenario("x", "d", devices=("fleet",),
                 grid={"fleet.web.count": (1,)}).cells()
    with pytest.raises(ValueError):
        scenario("x", "d", devices=("fleet",), fleet=mini_fleet(),
                 grid={"fleet.nope.count": (1,)}).cells()


def test_fleet_cell_runs_through_sweep_runner_with_cache(tmp_path):
    spec = _register_mini_scenario()
    cells = spec.cells()[:1]
    first = SweepRunner(cache_dir=tmp_path).run_cells(spec.name, cells)
    second = SweepRunner(cache_dir=tmp_path).run_cells(spec.name, cells)
    assert first.cache_hits == 0 and second.cache_hits == 1
    metrics = first.outcomes[0].metrics
    assert metrics == second.outcomes[0].metrics
    assert metrics["ios_completed"] > 0
    assert "runtime" not in metrics["fleet"]  # wall-clock never cached
    assert run_cell(cells[0])[0] == run_cell(cells[0])[0]


def test_cli_fleet_verb_runs_and_saves_report(tmp_path, capsys):
    _register_mini_scenario()
    out = tmp_path / "fleet.json"
    assert cli_main(["fleet", "mini-fleet-under-test", "--serial",
                     "--shards", "2", "--no-cache", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "frontend" in printed and "2 shard(s)" in printed
    result = SweepResult.load(out)
    assert len(result) == 2
    assert result.outcomes[0].metrics["fleet"]["fleet"]["ios_completed"] > 0
    # Unknown scenario and non-fleet scenario fail cleanly.
    assert cli_main(["fleet", "no-such-scenario"]) == 2
    assert cli_main(["fleet", "latency-grid"]) == 2


def test_fleet_and_run_save_the_same_sweep_result(tmp_path, capsys):
    """``fleet --out`` writes the file ``run --out`` does: the same cells
    in the same order with equal metrics, so ``diff`` compares them."""
    _register_mini_scenario()
    fleet_out, run_out = tmp_path / "fleet.json", tmp_path / "run.json"
    assert cli_main(["fleet", "mini-fleet-under-test", "--serial",
                     "--no-cache", "--out", str(fleet_out)]) == 0
    assert cli_main(["run", "mini-fleet-under-test", "--serial",
                     "--no-cache", "--out", str(run_out)]) == 0
    by_fleet, by_run = SweepResult.load(fleet_out), SweepResult.load(run_out)
    assert by_fleet.scenario == by_run.scenario == "mini-fleet-under-test"
    assert len(by_fleet) == 2
    assert [outcome.cell for outcome in by_fleet.outcomes] \
        == [outcome.cell for outcome in by_run.outcomes]
    assert [outcome.metrics for outcome in by_fleet.outcomes] \
        == [outcome.metrics for outcome in by_run.outcomes]
    capsys.readouterr()
    assert cli_main(["diff", str(fleet_out), str(run_out),
                     "--fail-on-change"]) == 0
    assert "0 cells changed" in capsys.readouterr().out


def test_a_fresh_fleet_cell_reports_its_runtime_outside_its_metrics(
        tmp_path):
    """The coordinator's wall-clock ``runtime`` section rides a fresh fleet
    cell's outcome (and a saved sweep, next to the metrics), never its
    metrics or its cache entry; a cache hit has none."""
    spec = _register_mini_scenario()
    cells = spec.cells()[:1]
    runner = SweepRunner(cache_dir=tmp_path / "cache",
                         fleet_config=FleetRunConfig(shards=2,
                                                     transport="local"))
    [fresh] = runner.run_cells(spec.name, cells).outcomes
    assert not fresh.cached
    assert fresh.runtime["shards"] == 2
    assert fresh.runtime["epochs"] > 0
    assert fresh.runtime["coordinator_rounds"] > 0
    assert "runtime" not in fresh.metrics
    assert "runtime" not in fresh.metrics["fleet"]
    [entry] = (tmp_path / "cache").rglob("*.json")
    assert '"runtime"' not in entry.read_text()
    [hit] = runner.run_cells(spec.name, cells).outcomes
    assert hit.cached and hit.runtime is None
    assert hit.metrics == fresh.metrics
    # run --out keeps the runtime beside the metrics, not in them.
    out = tmp_path / "run.json"
    assert cli_main(["run", "mini-fleet-under-test", "--serial",
                     "--no-cache", "--out", str(out)]) == 0
    saved = json.loads(out.read_text())["cells"]
    assert all('"runtime"' not in json.dumps(entry["metrics"])
               for entry in saved)
    assert [entry["runtime"]["shards"] for entry in saved] == [1, 1]
    assert [outcome.runtime["shards"]
            for outcome in SweepResult.load(out).outcomes] == [1, 1]


@pytest.mark.parametrize("first, second", [("fleet", "run"),
                                           ("run", "fleet")])
def test_run_and_fleet_hit_each_others_cache_entries(first, second,
                                                     tmp_path, capsys):
    _register_mini_scenario()
    cache = ["--serial", "--quick", "--cache-dir", str(tmp_path / "cache")]
    assert cli_main([first, "mini-fleet-under-test", *cache]) == 0
    out = tmp_path / "second.json"
    assert cli_main([second, "mini-fleet-under-test", *cache,
                     "--out", str(out)]) == 0
    outcomes = SweepResult.load(out).outcomes
    assert len(outcomes) == 2
    assert all(outcome.cached and outcome.runtime is None
               for outcome in outcomes)


def test_cli_fleet_verb_honors_sweep_cache_env(tmp_path, capsys, monkeypatch):
    """``fleet --quick`` must cache under ``$REPRO_SWEEP_CACHE`` exactly
    like ``run`` does (regression: the fleet verb ignored the cache
    entirely, re-simulating every invocation)."""
    _register_mini_scenario()
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "cache"))
    assert cli_main(["fleet", "mini-fleet-under-test", "--serial",
                     "--quick"]) == 0
    first = capsys.readouterr().out
    assert "cached result" not in first
    cache_files = list((tmp_path / "cache").rglob("*.json"))
    assert cache_files, "fleet verb wrote nothing to $REPRO_SWEEP_CACHE"
    assert cli_main(["fleet", "mini-fleet-under-test", "--serial",
                     "--quick"]) == 0
    second = capsys.readouterr().out
    assert "cached result" in second
    # The physics tables are identical between the fresh and cached pass.
    assert first.split("runtime:")[0] == second.split("runtime:")[0]
    # A different shard count / run-ahead still hits the same cache entry
    # (execution details are excluded from the key) ...
    assert cli_main(["fleet", "mini-fleet-under-test", "--serial",
                     "--quick", "--shards", "3", "--run-ahead", "1"]) == 0
    assert "cached result" in capsys.readouterr().out
    # ... while an epoch override is different physics: fresh run.
    assert cli_main(["fleet", "mini-fleet-under-test", "--serial",
                     "--quick", "--epoch-us", "400.0"]) == 0
    assert "cached result" not in capsys.readouterr().out
    # --force bypasses, --no-cache disables.
    assert cli_main(["fleet", "mini-fleet-under-test", "--serial",
                     "--quick", "--force"]) == 0
    assert "cached result" not in capsys.readouterr().out


def test_sweep_runner_passes_shards_down_to_fleet_cells(monkeypatch):
    """A fleet cell sharded through the sweep pool (nested parallelism)
    must match the serial single-shard result bit for bit."""
    spec = _register_mini_scenario()
    cells = spec.cells()[:1]
    serial = SweepRunner().run_cells(spec.name, cells)
    configs = []

    class SpyCoordinator(FleetCoordinator):
        def run(self, topology):
            configs.append(self.config)
            return super().run(topology)

    # One cell runs in-process, where the spy sees the coordinator.
    monkeypatch.setattr("repro.cluster.FleetCoordinator", SpyCoordinator)
    sharded = SweepRunner(parallel=True, fleet_config=FleetRunConfig(shards=2),
                          cache_dir=None).run_cells(spec.name, cells)
    assert serial.outcomes[0].metrics == sharded.outcomes[0].metrics
    # The shard count is an execution detail: same cache key either way.
    assert cells[0].cache_key() == \
        sharded.outcomes[0].cell.cache_key()
    assert [config.shards for config in configs] == [2]


def test_coordinator_run_ahead_values_are_bit_identical():
    topology = mini_fleet()
    reference = run_fleet_serial(topology)
    for shards, run_ahead in ((1, 1), (2, 4), (3, 1), (3, 64)):
        payload = run_fleet(topology, shards=shards, transport="local",
                            run_ahead=run_ahead)
        assert json.dumps(strip_runtime(payload), sort_keys=True) == \
            json.dumps(strip_runtime(reference), sort_keys=True), \
            (shards, run_ahead)


def test_batched_coordination_cuts_tasks_per_busy_epoch():
    """Self-contained shards get multi-epoch grants: coordinator rounds
    drop from one per busy epoch to one per run-ahead window."""
    topology = mini_fleet()
    per_epoch = run_fleet(topology, shards=2, transport="local",
                          run_ahead=1)
    batched = run_fleet(topology, shards=2, transport="local",
                        run_ahead=64)
    assert per_epoch["runtime"]["batched"]
    assert batched["runtime"]["batched"]
    assert per_epoch["runtime"]["coordinator_rounds"] == \
        per_epoch["runtime"]["epochs"]
    assert batched["runtime"]["coordinator_rounds"] < \
        per_epoch["runtime"]["coordinator_rounds"]
    assert batched["runtime"]["epochs"] == per_epoch["runtime"]["epochs"]
    assert json.dumps(strip_runtime(batched), sort_keys=True) == \
        json.dumps(strip_runtime(per_epoch), sort_keys=True)


@pytest.mark.parametrize("shards", [1, 3])
def test_max_epochs_bounds_the_epochs_any_shard_runs(shards):
    """mini_fleet runs 2 epochs: serially, and at 3 shards as one coupled
    pair plus a singleton.  A bound of 1 stops the run with an error that
    names the fleet and the bound; a bound of 2 lets it finish."""
    with pytest.raises(RuntimeError,
                       match=r"'mini-under-test' exceeded 1 epochs.*max_epochs"):
        run_fleet(mini_fleet(), shards=shards, transport="local",
                  max_epochs=1)
    finished = run_fleet(mini_fleet(), shards=shards, transport="local",
                         max_epochs=2)
    assert finished["runtime"]["epochs"] == 2
    assert finished["runtime"]["lockstep_shards"] == (2 if shards == 3 else 0)


def test_registered_fleet_scenarios_are_well_formed():
    for name in ("fleet-smoke", "datacenter-diurnal"):
        spec = get_scenario(name)
        cells = spec.cells()
        assert cells, name
        for cell in cells:
            topology = FleetTopology.from_json(cell.fleet)
            assert topology.total_devices >= 24
    smoke = get_scenario("fleet-smoke").cells()[0]
    assert FleetTopology.from_json(smoke.fleet).total_devices >= 64


def test_shard_plan_payload_roundtrip():
    """The executor transport's pool pickles the plan it sends a worker."""
    plan = ShardPlan(shard_id=2, spans=((1, 2), (4, 6)))
    assert pickle.loads(pickle.dumps(plan)) == plan
    for spans in (((3, 3),), ((4, 6), (1, 2)), ((1, 4), (3, 6)),
                  ((1, 4), (4, 6))):
        with pytest.raises(ValueError):  # empty, unsorted, overlapping, unmerged
            ShardPlan(shard_id=0, spans=spans)


# ---------------------------------------------------------------------------
# Fault-injection layout independence
# ---------------------------------------------------------------------------

def faulty_mini_fleet(faults, policy, epoch_us=200.0) -> FleetTopology:
    """mini_fleet plus a cold spare tier so fail events can promote one."""
    return fleet(
        "faulty-mini-under-test",
        groups=[
            group("web", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
            group("db", "LOOP", 2, capacity_bytes=MINI_CAPACITY),
            group("mirror", "LOOP", 2, capacity_bytes=MINI_CAPACITY),
            group("spare", "LOOP", 1, capacity_bytes=MINI_CAPACITY,
                  preload=False),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4096,
                   queue_depth=2, io_count=15),
            tenant("oltp", "db", pattern="randwrite", io_size=8192,
                   queue_depth=2, io_count=20),
        ],
        edges=[edge("db", "mirror", replication_factor=2)],
        faults=faults,
        fault_policy=policy,
        epoch_us=epoch_us,
        seed=5,
    )


_FAULT_SIZES = (3, 2, 2)  # devices in web / db / mirror


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(("fail", "drain")))
    group_index = draw(st.integers(min_value=0, max_value=2))
    group_name = ("web", "db", "mirror")[group_index]
    at_us = draw(st.floats(min_value=0.0, max_value=2500.0,
                           allow_nan=False, allow_infinity=False))
    device = draw(st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=_FAULT_SIZES[group_index] - 1)))
    repair = draw(st.one_of(
        st.none(),
        st.floats(min_value=50.0, max_value=2000.0,
                  allow_nan=False, allow_infinity=False)))
    spare = draw(st.sampled_from((None, "spare"))) if kind == "fail" else None
    return fault(kind, group_name, at_us=at_us, device=device,
                 repair_after_us=repair, spare=spare)


fault_policies = st.builds(
    FaultPolicy,
    rebuild_chunk_bytes=st.sampled_from((4096, 65536)),
    rebuild_chunks_per_epoch=st.sampled_from((1, 4)),
    shed_penalty_us=st.sampled_from((25.0, 100.0)),
    max_inflight=st.sampled_from((None, 4)),
)


@settings(max_examples=12, deadline=None)
@given(
    faults=st.lists(fault_events(), min_size=1, max_size=3),
    policy=fault_policies,
    epoch_us=st.sampled_from((150.0, 200.0, 250.0)),
)
def test_random_fault_schedules_stay_layout_independent(
        faults, policy, epoch_us):
    """Any declarative fault schedule — whatever it fails, drains, repairs
    or promotes — must leave shards=N bit-identical to the serial run for
    every run-ahead window."""
    topology = faulty_mini_fleet(faults, policy, epoch_us=epoch_us)
    reference = json.dumps(strip_runtime(run_fleet_serial(topology)),
                           sort_keys=True)
    for shards, run_ahead in ((2, 1), (2, 16), (4, 4)):
        payload = run_fleet(topology, shards=shards, transport="local",
                            run_ahead=run_ahead)
        assert json.dumps(strip_runtime(payload), sort_keys=True) == \
            reference, (shards, run_ahead)


def test_faulted_fleet_is_bit_identical_across_shard_counts():
    """Deterministic anchor for the property above: a fail with spare
    promotion plus a drain, active mid-run, across every layout."""
    topology = faulty_mini_fleet(
        [fault("fail", "db", at_us=150.0, device=0, repair_after_us=600.0,
               spare="spare"),
         fault("drain", "mirror", at_us=350.0, device=1,
               repair_after_us=400.0)],
        FaultPolicy(rebuild_chunk_bytes=16 * 4096, rebuild_chunks_per_epoch=2,
                    shed_penalty_us=50.0))
    serial = run_fleet_serial(topology)
    assert serial["faults"]["shed_ios"] > 0
    assert serial["faults"]["rebuild_writes"] > 0
    reference = json.dumps(strip_runtime(serial), sort_keys=True)
    for shards in (2, 3, 4):
        sharded = run_fleet(topology, shards=shards, transport="local")
        assert json.dumps(strip_runtime(sharded), sort_keys=True) == \
            reference, shards
