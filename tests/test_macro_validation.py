"""Macro-vs-discrete validation harness (repro.cluster.macro).

Every workload family the macro model claims to approximate is run twice
through :func:`run_fleet_serial` -- once discretised, once as a calibrated
macro aggregate -- and compared metric by metric against per-family
tolerance bands.  Conserved quantities (I/O and byte totals) must match
exactly; latency quantiles and throughput must land inside the declared
error envelope.  The same envelope is measured continuously by
``benchmarks/test_bench_macro.py`` and gated in ``compare_bench.py``.

The determinism half mirrors tests/test_cluster.py: a macro fleet must be
bit-identical across shard layouts, including mixed macro/discrete
replication edges and fault schedules.
"""

import json

import pytest

from repro.cluster import (
    FaultPolicy,
    FleetTopology,
    edge,
    fault,
    fleet,
    group,
    run_fleet,
    run_fleet_serial,
    tenant,
)
from repro.cluster.macro import clear_calibration_memo
from repro.experiments.cli import main as cli_main
from repro.experiments.scenarios import register, scenario
from repro.experiments.sweep import SweepResult

MINI_CAPACITY = 1 << 24


def rel_err(measured: float, reference: float) -> float:
    if measured == reference:
        return 0.0
    return abs(measured - reference) / max(abs(measured), abs(reference), 1e-12)


def strip_runtime(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "runtime"}


def canonical(payload: dict) -> str:
    return json.dumps(strip_runtime(payload), sort_keys=True)


def one_group_fleet(workload: dict, device: str = "SSD",
                    count: int = 6, seed: int = 71) -> FleetTopology:
    return fleet(
        "macro-validation",
        groups=[group("grp", device, count)],
        tenants=[tenant("t", "grp", **workload)],
        epoch_us=1000.0,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Accuracy: per-family tolerance bands
# ---------------------------------------------------------------------------

#: The declared error envelope of the mean-field approximation, per workload
#: family.  Latency quantiles come from calibrated per-I/O distributions and
#: sit within a few percent; throughput carries the largest error because a
#: discrete fleet's duration is the max over per-device RNG streams while
#: the macro group sees one representative stream.
FAMILIES = {
    "randread": dict(
        device="SSD",
        workload=dict(pattern="randread", io_size=4096, queue_depth=4,
                      io_count=200),
        bands=dict(p50=0.10, p95=0.10, p99=0.15, mean=0.10, throughput=0.25),
    ),
    "randwrite": dict(
        device="SSD",
        workload=dict(pattern="randwrite", io_size=16384, queue_depth=8,
                      io_count=200),
        bands=dict(p50=0.10, p95=0.10, p99=0.15, mean=0.10, throughput=0.10),
    ),
    "randrw": dict(
        device="ESSD-2",
        workload=dict(pattern="randrw", io_size=16384, queue_depth=4,
                      write_ratio=0.3, io_count=200),
        bands=dict(p50=0.10, p95=0.10, p99=0.15, mean=0.10, throughput=0.25),
    ),
    "trace-uniform": dict(
        device="ESSD-2",
        workload=dict(trace="uniform", duration_us=50_000.0, load_gbps=0.4,
                      io_size=65536, write_ratio=0.7),
        bands=dict(p50=0.10, p95=0.10, p99=0.15, mean=0.10, throughput=0.10),
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_macro_matches_discrete_within_declared_bands(family):
    spec = FAMILIES[family]
    topology = one_group_fleet(spec["workload"], device=spec["device"])
    discrete = run_fleet_serial(topology)
    macro = run_fleet_serial(topology.with_modes({"grp": "macro"}))

    ref = discrete["tenants"]["t"]
    got = macro["tenants"]["t"]
    assert got["approximate"] is True
    assert "approximate" not in ref
    assert got["devices"] == ref["devices"] == topology.groups[0].count

    # Conserved quantities: the macro group must not invent or drop work.
    assert got["ios_completed"] == ref["ios_completed"]
    if "trace" in spec["workload"]:
        # Trace byte totals depend on per-device arrival draws; the macro
        # group replays one representative stream, so totals track within
        # a couple percent rather than exactly.
        assert rel_err(got["bytes_read"] + got["bytes_written"],
                       ref["bytes_read"] + ref["bytes_written"]) <= 0.02
    else:
        assert got["bytes_read"] + got["bytes_written"] \
            == ref["bytes_read"] + ref["bytes_written"]

    bands = spec["bands"]
    for quantile in ("p50", "p95", "p99", "mean"):
        key = f"{quantile}_us"
        err = rel_err(got[key], ref[key])
        assert err <= bands[quantile], \
            f"{family} {key}: macro={got[key]:.2f} discrete={ref[key]:.2f} " \
            f"err={err:.3f} > band={bands[quantile]}"
    err = rel_err(got["throughput_gbps"], ref["throughput_gbps"])
    assert err <= bands["throughput"], \
        f"{family} throughput: err={err:.3f} > band={bands['throughput']}"


def test_macro_metrics_carry_approximate_flag_through_every_level():
    topology = one_group_fleet(FAMILIES["randwrite"]["workload"])
    payload = run_fleet_serial(topology.with_modes({"grp": "macro"}))
    assert payload["fleet"]["approximate"] is True
    assert payload["groups"]["grp"]["approximate"] is True
    assert payload["tenants"]["t"]["approximate"] is True
    # The discrete twin carries no flag at all -- absence means exact.
    exact = run_fleet_serial(topology)
    assert "approximate" not in exact["fleet"]
    assert "approximate" not in exact["groups"]["grp"]


def test_macro_calibration_is_memoized_within_a_process():
    clear_calibration_memo()
    topology = one_group_fleet(FAMILIES["randwrite"]["workload"])
    first = run_fleet_serial(topology.with_modes({"grp": "macro"}))
    second = run_fleet_serial(topology.with_modes({"grp": "macro"}))
    assert canonical(first) == canonical(second)


# ---------------------------------------------------------------------------
# Determinism: layout independence, mixed edges, faults
# ---------------------------------------------------------------------------

def mixed_mode_fleet(**changes) -> FleetTopology:
    """Macro and discrete groups exchanging replicas in both directions."""
    topology = fleet(
        "macro-mixed",
        groups=[
            group("src", "LOOP", 4, capacity_bytes=MINI_CAPACITY,
                  mode="macro"),
            group("dst", "LOOP", 4, capacity_bytes=MINI_CAPACITY),
            group("back", "LOOP", 3, capacity_bytes=MINI_CAPACITY,
                  mode="macro"),
        ],
        tenants=[
            tenant("writer", "src", pattern="randwrite", io_size=8192,
                   queue_depth=2, io_count=30),
            tenant("relay", "dst", pattern="randwrite", io_size=4096,
                   queue_depth=1, io_count=20),
        ],
        # macro -> discrete and discrete -> macro edges: both replica
        # directions cross the aggregate boundary.
        edges=[edge("src", "dst", replication_factor=2),
               edge("dst", "back")],
        epoch_us=200.0,
        seed=9,
    )
    return topology.scaled(**changes) if changes else topology


@pytest.mark.parametrize("shards", [2, 3])
def test_mixed_macro_fleet_is_bit_identical_across_layouts(shards):
    topology = mixed_mode_fleet()
    serial = run_fleet_serial(topology)
    sharded = run_fleet(topology, shards=shards)
    assert canonical(serial) == canonical(sharded)
    # Replica byte conservation across the aggregate boundary: dst receives
    # exactly replication_factor x the macro source's writes.
    written = serial["groups"]["src"]["bytes_written"]
    assert serial["groups"]["dst"]["replica_bytes"] == 2 * written


def test_macro_group_is_never_split_across_shards():
    topology = mixed_mode_fleet()
    payload = run_fleet(topology, shards=4)
    partition = payload["runtime"]["partition"]
    for indices in (topology.group_indices("src"),
                    topology.group_indices("back")):
        owners = {sid for sid, spans in enumerate(partition)
                  for start, stop in spans
                  if start < indices.stop and indices.start < stop}
        assert len(owners) == 1, f"macro atom split across shards {owners}"


def faulted_macro_fleet() -> FleetTopology:
    return fleet(
        "macro-faulted",
        groups=[
            group("store", "LOOP", 4, capacity_bytes=MINI_CAPACITY,
                  mode="macro"),
            group("spare", "LOOP", 2, capacity_bytes=MINI_CAPACITY,
                  preload=False),
        ],
        tenants=[
            tenant("oltp", "store", pattern="randwrite", io_size=8192,
                   queue_depth=2, io_count=400),
        ],
        # The fault lands while the tenant is still active, so shedding and
        # the degraded window are exercised, not just declared.
        faults=[fault("fail", "store", at_us=600.0, device=1,
                      repair_after_us=2_000.0, spare="spare")],
        fault_policy=FaultPolicy(rebuild_chunk_bytes=64 * 1024,
                                 shed_penalty_us=150.0),
        epoch_us=200.0,
        seed=13,
    )


def test_faulted_macro_fleet_sheds_rebuilds_and_stays_deterministic():
    topology = faulted_macro_fleet()
    serial = run_fleet_serial(topology)
    sharded = run_fleet(topology, shards=2)
    assert canonical(serial) == canonical(sharded)

    faults = serial["faults"]
    assert faults["degraded_us"] > 0.0
    assert faults["rebuild_bytes"] > 0
    assert any(window.get("approximate") for window in faults["events"])
    # The rebuild streams onto the promoted spare tier.
    assert serial["groups"]["spare"]["rebuild_bytes"] > 0
    # One store device offline for 10 epochs of a busy run must shed work.
    assert serial["groups"]["store"]["shed_ios"] > 0


#: Per-group inbound traffic counts: a macro group absorbs every message
#: sent to it, so these are exact in both group modes.
INFLOW_KEYS = ("replica_writes", "replica_bytes", "rebuild_writes",
               "rebuild_bytes", "rebuild_reads", "rebuild_read_bytes")


def inflow_counts(payload: dict) -> dict:
    return {name: {key: group.get(key) for key in INFLOW_KEYS}
            for name, group in payload["groups"].items()}


def test_inflow_counts_do_not_depend_on_a_sink_groups_mode():
    """Switching a group that only receives traffic (no out-edge, no fault
    of its own) to macro leaves every group's inflow counts as they are in
    the all-discrete run, for each message kind: replica writes, rebuild
    writes and the rebuild's source reads."""
    from repro.experiments.scenarios import all_scenarios
    from repro.experiments.sweep import quick_cells

    flips = 0
    for spec in all_scenarios():
        if "fleet" not in spec.tags:
            continue
        for index, cell in enumerate(quick_cells(spec.cells())):
            if cell.fleet is None:  # a multi-stream cell, not a topology
                continue
            topology = FleetTopology.from_json(cell.fleet)
            if topology.has_macro:
                continue
            faulted = {event.group for event in topology.faults}
            reference = inflow_counts(run_fleet_serial(topology))
            for sink in topology.groups:
                if topology.edges_from(sink.name) or sink.name in faulted:
                    continue
                payload = run_fleet_serial(topology.with_modes({sink.name: "macro"}))
                assert inflow_counts(payload) == reference, \
                    (spec.name, index, sink.name)
                flips += 1
    assert flips >= 19


#: The fields of a degraded window that the fault schedule fixes.  Its end
#: and rebuild volume also depend on what the group absorbed, which a macro
#: group only approximates.
WINDOW_KEYS = ("kind", "group", "device", "index", "start_us", "repair_us",
               "spare")


def fault_windows(payload: dict) -> list:
    return [tuple(window[key] for key in WINDOW_KEYS)
            for window in payload["faults"]["events"]]


def test_fault_windows_do_not_depend_on_a_faulted_groups_mode():
    """Switching a faulted group to macro keeps every degraded window of
    the all-discrete run, for both fault kinds: a drained macro device
    records its window just as a failed one does."""
    from repro.experiments.scenarios import all_scenarios
    from repro.experiments.sweep import quick_cells

    flips = 0
    for spec in all_scenarios():
        if "fleet" not in spec.tags:
            continue
        for index, cell in enumerate(quick_cells(spec.cells())):
            if cell.fleet is None:  # a multi-stream cell, not a topology
                continue
            topology = FleetTopology.from_json(cell.fleet)
            if topology.has_macro or not topology.faults:
                continue
            reference = fault_windows(run_fleet_serial(topology))
            for name in sorted({event.group for event in topology.faults}):
                payload = run_fleet_serial(topology.with_modes({name: "macro"}))
                assert fault_windows(payload) == reference, \
                    (spec.name, index, name)
                flips += 1
    assert flips >= 10


# ---------------------------------------------------------------------------
# CLI override
# ---------------------------------------------------------------------------

def _register_macro_scenario():
    spec = scenario(
        "mini-macro-under-test", "test-only macro fleet",
        devices=("fleet",),
        # Start all-discrete; the CLI override flips modes per run.
        fleet=mixed_mode_fleet().with_modes(
            {"src": "discrete", "back": "discrete"}),
        grid={"fleet.src.count": (4,)},
    )
    register(spec, replace=True)
    return spec


def test_cli_macro_override_flags_results_approximate(tmp_path, capsys):
    _register_macro_scenario()
    out = tmp_path / "macro.json"
    assert cli_main(["fleet", "mini-macro-under-test", "--serial",
                     "--no-cache", "--macro", "src,back=macro",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    result = SweepResult.load(out).outcomes[0].metrics["fleet"]
    assert result["groups"]["src"]["approximate"] is True
    assert result["groups"]["back"]["approximate"] is True
    assert "approximate" not in result["groups"]["dst"]
    assert result["fleet"]["approximate"] is True


def test_cli_macro_override_matches_library_run(tmp_path, capsys):
    _register_macro_scenario()
    out = tmp_path / "macro.json"
    assert cli_main(["fleet", "mini-macro-under-test", "--serial",
                     "--no-cache", "--macro", "src,back",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    via_cli = SweepResult.load(out).outcomes[0].metrics["fleet"]
    spec = _register_macro_scenario()
    topology = FleetTopology.from_json(spec.cells()[0].fleet) \
        .with_modes({"src": "macro", "back": "macro"})
    via_library = run_fleet_serial(topology)
    assert canonical(via_cli) == canonical(via_library)
