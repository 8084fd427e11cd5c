"""Tests for the fault-injection subsystem (repro.cluster.faults).

Covers the event/policy model, the FaultInjector device proxy, fleet-level
failure semantics (shedding, re-replication storms, spare promotion, drains,
repair), the sweep/scenario plumbing, and the CLI entry point.  The
layout-independence property (faulted fleets bit-identical across shard
counts) is gated in tests/test_cluster.py next to the fault-free identity
tests.
"""

import json

import pytest

from repro.cluster import (
    FaultEvent,
    FaultInjector,
    FaultPolicy,
    FleetTopology,
    edge,
    fault,
    fleet,
    group,
    run_fleet_serial,
    tenant,
)
from repro.cluster.faults import (
    canonical_fault_spec,
    fault_epoch,
    parse_fault_spec,
    repair_epoch,
    schedule_cell_faults,
)
from repro.host.io import IOKind, IORequest
from repro.sim import Simulator

MINI_CAPACITY = 1 << 24


def faulty_fleet(faults, policy=None, **changes) -> FleetTopology:
    """A small LOOP fleet with a replication edge and a cold spare tier."""
    topology = fleet(
        "faulty-under-test",
        groups=[
            group("web", "LOOP", 3, capacity_bytes=MINI_CAPACITY),
            group("db", "LOOP", 2, capacity_bytes=MINI_CAPACITY),
            group("mirror", "LOOP", 2, capacity_bytes=MINI_CAPACITY),
            group("spare", "LOOP", 1, capacity_bytes=MINI_CAPACITY,
                  preload=False),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4096,
                   queue_depth=2, io_count=30),
            tenant("oltp", "db", pattern="randwrite", io_size=8192,
                   queue_depth=2, io_count=40),
        ],
        edges=[edge("db", "mirror", replication_factor=2)],
        faults=faults,
        fault_policy=policy or FaultPolicy(rebuild_chunk_bytes=16 * 4096,
                                           rebuild_chunks_per_epoch=2,
                                           shed_penalty_us=50.0),
        epoch_us=100.0,
        seed=5,
    )
    return topology.scaled(**changes) if changes else topology


def strip_runtime(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "runtime"}


# ---------------------------------------------------------------------------
# Event / policy model
# ---------------------------------------------------------------------------

def test_fault_event_validation():
    with pytest.raises(ValueError):  # unknown kind
        FaultEvent(kind="explode", group="db", at_us=1.0)
    with pytest.raises(ValueError):  # negative time
        FaultEvent(kind="fail", group="db", at_us=-1.0)
    with pytest.raises(ValueError):  # non-positive repair
        FaultEvent(kind="fail", group="db", at_us=1.0, repair_after_us=0.0)
    with pytest.raises(ValueError):  # negative device index
        FaultEvent(kind="fail", group="db", at_us=1.0, device=-1)
    with pytest.raises(ValueError):  # spare promotion only applies to fails
        FaultEvent(kind="drain", group="db", at_us=1.0, spare="spare")


def test_fault_policy_validation():
    with pytest.raises(ValueError):
        FaultPolicy(rebuild_chunk_bytes=1000)  # not a 4 KiB multiple
    with pytest.raises(ValueError):
        FaultPolicy(rebuild_chunks_per_epoch=0)
    with pytest.raises(ValueError):
        FaultPolicy(shed_penalty_us=-1.0)
    with pytest.raises(ValueError):
        FaultPolicy(max_inflight=0)


def test_topology_rejects_inconsistent_fault_schedules():
    with pytest.raises(ValueError):  # unknown group
        faulty_fleet([fault("fail", "nope", at_us=1.0)])
    with pytest.raises(ValueError):  # device index out of range
        faulty_fleet([fault("fail", "db", at_us=1.0, device=2)])
    with pytest.raises(ValueError):  # unknown spare group
        faulty_fleet([fault("fail", "db", at_us=1.0, spare="nope")])
    with pytest.raises(ValueError):  # spare must differ from failed group
        faulty_fleet([fault("fail", "db", at_us=1.0, spare="db")])


def test_fault_spec_roundtrip_and_parse_forms():
    events = (fault("fail", "db", at_us=500.0, device=1,
                    repair_after_us=1000.0, spare="spare"),
              fault("drain", "web", at_us=200.0))
    policy = FaultPolicy(rebuild_chunks_per_epoch=3, max_inflight=8)
    spec = canonical_fault_spec(events, policy)
    parsed_events, parsed_policy = parse_fault_spec(spec)
    assert parsed_events == events
    assert parsed_policy == policy
    # A bare list of event documents gets the default policy.
    bare_events, bare_policy = parse_fault_spec(
        json.dumps(json.loads(spec)["events"]))
    assert bare_events == events
    assert bare_policy == FaultPolicy()
    # The topology embeds both and round-trips them.
    topology = faulty_fleet(events, policy)
    clone = FleetTopology.from_json(topology.canonical())
    assert clone.faults == events
    assert clone.fault_policy == policy
    assert clone.canonical() == topology.canonical()


def test_fault_spec_rejects_unknown_keys_with_their_path():
    # Read leniently, "devcie" left device=None: every device of the group.
    with pytest.raises(ValueError, match=r"^faults\[0\]\.devcie: unknown key"):
        parse_fault_spec('[{"kind": "fail", "group": "store", '
                         '"at_us": 1500, "devcie": 0}]')
    with pytest.raises(ValueError, match=r"^faults\.policy\.rebuild_chunks:"):
        parse_fault_spec({"events": [], "policy": {"rebuild_chunks": 2}})
    with pytest.raises(ValueError, match=r"^faults\.evnets: unknown key"):
        parse_fault_spec({"evnets": []})


def test_canonical_fault_spec_is_the_spec_document():
    events = (fault("drain", "web", at_us=200.0),)
    assert json.loads(canonical_fault_spec(events, FaultPolicy())) == {
        "events": [{"kind": "drain", "group": "web", "at_us": 200.0}]}
    spec = canonical_fault_spec(events, FaultPolicy(max_inflight=4))
    assert json.loads(spec)["policy"] == {"max_inflight": 4}


def test_fault_and_repair_epochs_quantize_up_and_stay_ordered():
    assert fault_epoch(0.0, 100.0) == 0
    assert fault_epoch(1.0, 100.0) == 1
    assert fault_epoch(100.0, 100.0) == 1
    assert fault_epoch(100.1, 100.0) == 2
    # Repair lands strictly after the failure barrier, however short the
    # requested outage.
    blip = fault("fail", "db", at_us=100.0, repair_after_us=0.001)
    assert repair_epoch(blip, 100.0) > fault_epoch(blip.at_us, 100.0)
    forever = fault("fail", "db", at_us=100.0)
    assert repair_epoch(forever, 100.0) is None


# ---------------------------------------------------------------------------
# FaultInjector proxy
# ---------------------------------------------------------------------------

def _loop_device(sim):
    from repro.devices import create_device
    return create_device(sim, "LOOP", capacity_bytes=MINI_CAPACITY)


def test_injector_delegates_and_sheds_when_offline():
    sim = Simulator()
    proxy = FaultInjector(sim, _loop_device(sim),
                          FaultPolicy(shed_penalty_us=75.0))
    assert proxy.capacity_bytes == MINI_CAPACITY
    assert proxy.logical_block_size > 0
    results = []

    def proc():
        results.append((yield proxy.write(0, 4096)))
        proxy.offline = True
        results.append((yield proxy.read(0, 4096)))
        proxy.offline = False
        results.append((yield proxy.write(4096, 4096)))

    sim.process(proc())
    sim.run()
    served, shed, again = results
    assert not served.shed and served.latency > 0
    assert shed.shed
    assert shed.latency == pytest.approx(75.0)
    assert proxy.shed_ios == 1 and proxy.shed_bytes == 4096
    assert proxy.describe()["offline"] is False
    assert not again.shed
    assert proxy.shed_ios == 1  # repair stopped the shedding


def test_injector_admission_cap_sheds_overload():
    sim = Simulator()
    proxy = FaultInjector(sim, _loop_device(sim),
                          FaultPolicy(max_inflight=2, shed_penalty_us=10.0))
    results = []

    def flood():
        events = [proxy.submit(IORequest(IOKind.WRITE, i * 4096, 4096))
                  for i in range(8)]
        for event in events:
            results.append((yield event))

    sim.process(flood())
    sim.run()
    shed = [request for request in results if request.shed]
    assert proxy.shed_ios == len(shed) > 0
    assert len(results) - len(shed) >= 2  # the in-flight window was served


def test_injector_admission_cap_survives_a_rejected_request():
    """A request the inner device rejects leaves flight too, so it does not
    lower the cap for good."""
    sim = Simulator()
    proxy = FaultInjector(sim, _loop_device(sim), FaultPolicy(max_inflight=2))
    rejected = []
    results = []

    def proc():
        try:
            yield proxy.write(MINI_CAPACITY, 4096)  # past the end
        except ValueError as exc:
            rejected.append(exc)
        pair = [proxy.write(0, 4096), proxy.write(4096, 4096)]
        for event in pair:
            results.append((yield event))

    sim.process(proc())
    sim.run()
    assert len(rejected) == 1
    assert [request.shed for request in results] == [False, False]
    assert proxy.shed_ios == 0 and proxy._inflight == 0


def test_schedule_cell_faults_flips_at_exact_times():
    sim = Simulator()
    device = _loop_device(sim)
    proxy = schedule_cell_faults(
        sim, device,
        [fault("fail", "cell", at_us=50.0, repair_after_us=100.0)],
        FaultPolicy(shed_penalty_us=5.0))
    results = []

    def probe():
        results.append((yield proxy.submit(IORequest(IOKind.READ, 0, 4096))))
        yield 60.0 - sim.now
        results.append((yield proxy.submit(IORequest(IOKind.READ, 0, 4096))))
        yield 200.0 - sim.now
        results.append((yield proxy.submit(IORequest(IOKind.READ, 0, 4096))))

    sim.process(probe())
    sim.run()
    first, second, third = results
    assert not first.shed and not third.shed
    assert second.shed  # inside the [50, 150) outage


# ---------------------------------------------------------------------------
# Fleet-level failure semantics
# ---------------------------------------------------------------------------

def test_failed_device_sheds_and_rebuilds_onto_spare():
    topology = faulty_fleet([fault("fail", "db", at_us=50.0, device=0,
                                   spare="spare")])
    result = run_fleet_serial(topology)
    faults = result["faults"]
    assert faults["shed_ios"] > 0
    assert faults["degraded_us"] > 0
    # The storm wrote the lost bytes onto the promoted spare and read them
    # back from the surviving replica holders (the mirror tier).
    assert result["groups"]["spare"]["rebuild_writes"] > 0
    assert result["groups"]["spare"]["rebuild_bytes"] == \
        faults["rebuild_bytes"] > 0
    assert result["groups"]["mirror"]["rebuild_reads"] == \
        result["groups"]["spare"]["rebuild_writes"]
    assert faults["rebuild_gbps"] > 0
    # The window event names the failed device.
    [window] = faults["events"]
    assert window["kind"] == "fail" and window["group"] == "db"
    assert window["device"] == 0 and window["spare"] == "spare"
    # A fail with rebuild traffic closes the window at the last rebuild
    # delivery even without a repair event.
    assert window["end_us"] is not None
    assert window["rebuild_chunks"] > 0
    # Degraded vs steady tail split is reported per tenant and fleet-wide.
    assert faults["during_rebuild"]["ios"] + faults["steady"]["ios"] == \
        result["fleet"]["ios_completed"]
    assert "faults" in result["tenants"]["oltp"]


def test_rebuild_without_spare_targets_surviving_peers():
    topology = faulty_fleet([fault("fail", "db", at_us=50.0, device=1)])
    result = run_fleet_serial(topology)
    # The surviving db device absorbs the whole storm.
    assert result["groups"]["db"]["rebuild_writes"] > 0
    assert result["groups"]["spare"]["rebuild_writes"] == 0


def test_drain_sheds_but_never_rebuilds():
    topology = faulty_fleet([fault("drain", "db", at_us=50.0, device=0,
                                   repair_after_us=300.0)])
    result = run_fleet_serial(topology)
    faults = result["faults"]
    assert faults["rebuild_writes"] == 0 and faults["rebuild_bytes"] == 0
    assert faults["shed_ios"] > 0
    [window] = faults["events"]
    assert window["kind"] == "drain"
    assert window["end_us"] is not None  # bounded by the repair


def test_repair_restores_service():
    """After the repair barrier the device serves again: a long run sheds
    only inside the outage window."""
    down = faulty_fleet([fault("fail", "db", at_us=50.0, device=0)])
    blip = faulty_fleet([fault("fail", "db", at_us=50.0, device=0,
                               repair_after_us=100.0)])
    shed_down = run_fleet_serial(down)["faults"]["shed_ios"]
    shed_blip = run_fleet_serial(blip)["faults"]["shed_ios"]
    assert 0 < shed_blip < shed_down


def test_shed_writes_do_not_replicate():
    """A write refused by an offline device never reached the media, so it
    must not fan out replica copies."""
    clean = faulty_fleet([])
    faulted = faulty_fleet([fault("fail", "db", at_us=50.0, device=0)])
    clean_replicas = run_fleet_serial(clean)["groups"]["mirror"]
    faulted_result = run_fleet_serial(faulted)
    faulted_replicas = faulted_result["groups"]["mirror"]
    shed = faulted_result["faults"]["shed_ios"]
    assert shed > 0
    assert faulted_replicas["replica_writes"] == \
        clean_replicas["replica_writes"] - 2 * shed  # factor-2 edge


def test_fault_free_topology_reports_no_fault_sections():
    result = run_fleet_serial(faulty_fleet([]))
    assert "faults" not in result
    assert "faults" not in result["tenants"]["oltp"]
    assert "rebuild_writes" not in result["groups"]["db"]


def test_faulted_fleet_cache_key_and_sweep_merge():
    """A fleet cell's fault schedule has one home, its topology: a cell
    document (or a scenario ``base:``) with both ``fleet`` and ``faults``
    folds the schedule into the topology, so it is the very cell that
    declares the faults inline, cache key included."""
    from repro.config import cell_from_document
    from repro.experiments.scenarios import scenario
    from repro.experiments.sweep import CellSpec, run_cell

    topology = faulty_fleet([])
    spec = canonical_fault_spec(
        [fault("fail", "db", at_us=50.0, device=0, spare="spare")],
        FaultPolicy(rebuild_chunk_bytes=16 * 4096))
    events, policy = parse_fault_spec(spec)
    inline = CellSpec(device="fleet", fleet=topology.scaled(
        faults=events, fault_policy=policy).canonical())
    folded = cell_from_document({"device": "fleet",
                                 "fleet": topology.to_document(kind=None),
                                 "faults": json.loads(spec)})
    base = CellSpec(device="fleet", fleet=topology.canonical())
    # A fault schedule is different physics: it must enter the cache key.
    assert base.cache_key() != folded.cache_key()
    assert folded == inline and folded.faults is None
    assert folded.cache_key() == inline.cache_key()
    [from_base] = scenario("fold-under-test", "d", devices=("fleet",),
                           fleet=topology,
                           base={"faults": spec}).cells()
    assert from_base.fleet == inline.fleet and from_base.faults is None
    metrics, _ = run_cell(folded)
    assert metrics["fleet"]["faults"]["shed_ios"] > 0
    # Built directly, a fleet cell refuses a second home for its faults.
    with pytest.raises(ValueError, match="fold 'faults' into 'fleet'"):
        CellSpec(device="fleet", fleet=topology.canonical(), faults=spec)


def test_a_cell_documents_faults_must_fit_its_fleet():
    from repro.config import ConfigError, cell_from_document

    with pytest.raises(ConfigError) as excinfo:
        cell_from_document({
            "device": "fleet",
            "fleet": faulty_fleet([]).to_document(kind=None),
            "faults": [{"kind": "fail", "group": "nosuch", "at_us": 1.0}]})
    assert excinfo.value.path == "cell.faults"
    assert "unknown group 'nosuch'" in excinfo.value.message


# ---------------------------------------------------------------------------
# Scenario and CLI plumbing
# ---------------------------------------------------------------------------

def test_fault_policy_and_device_param_fleet_axes():
    from repro.experiments.scenarios import scenario

    spec = scenario(
        "fault-axes-under-test", "d", devices=("fleet",),
        fleet=faulty_fleet([fault("fail", "db", at_us=300.0, device=0)]),
        grid={"fleet.fault_policy.rebuild_chunks_per_epoch": (1, 4),
              "fleet.db.device_params.service_time_us": (5.0, 20.0)})
    cells = spec.cells()
    assert len(cells) == 4
    paces = sorted(
        {json.loads(cell.fleet)["fault_policy"]["rebuild_chunks_per_epoch"]
         for cell in cells})
    assert paces == [1, 4]
    db_group = json.loads(cells[0].fleet)["groups"][1]
    assert db_group["device_params"]["service_time_us"] == 5.0
    # Unknown policy fields fail at expansion time, not in a worker.
    with pytest.raises(ValueError):
        scenario("x", "d", devices=("fleet",), fleet=faulty_fleet([]),
                 grid={"fleet.fault_policy.nope": (1,)}).cells()


def test_registered_fault_scenarios_are_well_formed():
    from repro.experiments.scenarios import get_scenario

    for name in ("failover-storm", "gc-cliff"):
        spec = get_scenario(name)
        cells = spec.cells()
        assert cells, name
        for cell in cells:
            topology = FleetTopology.from_json(cell.fleet)
            assert topology.faults, name
    storm = FleetTopology.from_json(
        get_scenario("failover-storm").cells()[0].fleet)
    assert any(event.spare for event in storm.faults)


def test_ssd_op_ratio_override_changes_spare_geometry():
    from repro.devices import create_device
    from repro.ssd.config import samsung_970pro_profile

    lean = samsung_970pro_profile(96 * 1024 * 1024, op_ratio=0.07)
    fat = samsung_970pro_profile(96 * 1024 * 1024, op_ratio=0.25)
    assert fat.geometry.blocks_per_plane > lean.geometry.blocks_per_plane
    assert lean.capacity_bytes == fat.capacity_bytes
    with pytest.raises(ValueError):
        samsung_970pro_profile(op_ratio=1.5)
    sim = Simulator()
    device = create_device(sim, "SSD", capacity_bytes=96 * 1024 * 1024,
                           op_ratio=0.25)
    assert device.capacity_bytes == 96 * 1024 * 1024


def test_cli_fleet_faults_flag(tmp_path, capsys):
    from repro.experiments.cli import main as cli_main
    from repro.experiments.scenarios import register, scenario
    from repro.experiments.sweep import SweepResult

    register(scenario("cli-faults-under-test", "d", devices=("fleet",),
                      fleet=faulty_fleet([])), replace=True)
    spec_path = tmp_path / "faults.json"
    spec_path.write_text(canonical_fault_spec(
        [fault("fail", "db", at_us=50.0, device=0, spare="spare")],
        FaultPolicy(shed_penalty_us=50.0)))
    out = tmp_path / "report.json"
    assert cli_main(["fleet", "cli-faults-under-test", "--serial",
                     "--no-cache", "--faults", f"@{spec_path}",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "faults:" in printed and "p99 during rebuild" in printed
    [outcome] = SweepResult.load(out).outcomes
    assert outcome.metrics["fleet"]["faults"]["shed_ios"] > 0
    # --faults folds into the topology, as a cell document's faults do.
    assert outcome.cell.faults is None
    assert FleetTopology.from_json(outcome.cell.fleet).faults == (
        fault("fail", "db", at_us=50.0, device=0, spare="spare"),)
    # Malformed schedules fail cleanly with exit code 2.
    assert cli_main(["fleet", "cli-faults-under-test", "--serial",
                     "--no-cache", "--faults", "{not json"]) == 2
    assert cli_main(["fleet", "cli-faults-under-test", "--serial",
                     "--no-cache",
                     "--faults", '[{"kind": "bad", "group": "db", '
                                 '"at_us": 1.0}]']) == 2
