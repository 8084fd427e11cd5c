"""Property tests: config document round-trips are lossless.

The determinism contract of the config layer is that ``object -> document
-> object`` is an identity for *any* valid topology / scenario / cell --
including fault schedules, macro group modes, and device-profile overrides
-- and that the document side stays plain JSON (what a YAML file parses
to).  Hypothesis drives the converters across the whole shape space; the
JSON dump/load in the middle guarantees the round trip survives an actual
file, not just in-memory Python objects.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FaultEvent,
    FaultPolicy,
    FleetRunConfig,
    FleetTopology,
    edge,
    fleet,
    group,
    tenant,
)
from repro.config import (
    cell_from_document,
    cell_to_document,
    run_config_from_document,
    scenario_from_document,
    scenario_to_document,
    topology_from_document,
    topology_to_document,
)
from repro.experiments.scenarios import scenario
from repro.experiments.sweep import CellSpec

MINI_CAPACITY = 1 << 24

names = st.sampled_from(["alpha", "beta", "gamma", "delta"])

#: LOOP accepts arbitrary device_params; SSD gets its real op_ratio knob.
loop_params = st.dictionaries(
    st.sampled_from(["latency_us", "bandwidth_bpus"]),
    st.floats(min_value=0.5, max_value=8.0, allow_nan=False), max_size=2)
ssd_params = st.dictionaries(
    st.just("op_ratio"),
    st.floats(min_value=0.08, max_value=0.3, allow_nan=False), max_size=1)

job_shapes = {
    "io_size": st.sampled_from([4096, 16384]),
    "queue_depth": st.integers(min_value=1, max_value=8),
    "io_count": st.integers(min_value=5, max_value=50),
}

#: A mixed pattern runs only with a write ratio in [0, 1].
workloads = st.one_of(
    st.fixed_dictionaries({
        "pattern": st.sampled_from(["randread", "randwrite"]), **job_shapes}),
    st.fixed_dictionaries({
        "pattern": st.just("randrw"),
        "write_ratio": st.floats(min_value=0.0, max_value=1.0),
        **job_shapes}),
)


@st.composite
def topologies(draw) -> FleetTopology:
    group_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    groups = []
    for name in group_names:
        device = draw(st.sampled_from(["LOOP", "SSD"]))
        params = draw(loop_params if device == "LOOP" else ssd_params)
        groups.append(group(
            name, device, draw(st.integers(min_value=1, max_value=4)),
            capacity_bytes=MINI_CAPACITY if device == "LOOP" else None,
            device_params=params,
            preload=draw(st.booleans()),
            mode=draw(st.sampled_from(["discrete", "macro"])),
        ))
    by_name = {entry.name: entry for entry in groups}
    tenants = [tenant(f"t-{name}", name, **draw(workloads))
               for name in draw(st.lists(st.sampled_from(group_names),
                                         max_size=2, unique=True))]
    edges = []
    if len(group_names) >= 2 and draw(st.booleans()):
        source, target = group_names[0], group_names[1]
        edges.append(edge(source, target, draw(st.integers(
            min_value=1, max_value=by_name[target].count))))
    faults = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        target = draw(st.sampled_from(group_names))
        faults.append(FaultEvent(
            kind=draw(st.sampled_from(["fail", "drain"])),
            group=target,
            at_us=draw(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False)),
            device=draw(st.one_of(st.none(), st.integers(
                min_value=0, max_value=by_name[target].count - 1))),
            repair_after_us=draw(st.one_of(st.none(), st.floats(
                min_value=1.0, max_value=1e5, allow_nan=False))),
        ))
    policy = FaultPolicy(
        rebuild_chunk_bytes=draw(st.sampled_from([262144, 524288])),
        rebuild_chunks_per_epoch=draw(st.integers(min_value=1, max_value=8)),
        shed_penalty_us=draw(st.floats(min_value=0.0, max_value=100.0,
                                       allow_nan=False)),
    )
    return fleet(
        draw(names), groups=groups, tenants=tenants, edges=edges,
        faults=faults, fault_policy=policy,
        epoch_us=draw(st.sampled_from([500.0, 1000.0, 2000.0])),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(topology=topologies())
def test_topology_document_round_trip(topology):
    doc = json.loads(json.dumps(topology_to_document(topology)))
    rebuilt = topology_from_document(doc)
    assert rebuilt == topology
    assert rebuilt.canonical() == topology.canonical()


@st.composite
def run_blocks(draw) -> dict:
    """A ``run:`` block: any subset of the config fields, a drawn value
    possibly equal to the field's default."""
    block = {}
    if draw(st.booleans()):
        block["shards"] = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        block["run_ahead"] = draw(st.integers(min_value=1, max_value=64))
    if draw(st.booleans()):
        block["transport"] = draw(st.sampled_from(
            ["auto", "local", "executor"]))
    if draw(st.booleans()):
        block["max_epochs"] = draw(st.integers(min_value=1_000,
                                               max_value=10**6))
    return block


@settings(max_examples=60, deadline=None)
@given(block=run_blocks())
def test_run_config_document_round_trip(block):
    doc = json.loads(json.dumps(block))
    assert run_config_from_document(doc) == block
    FleetRunConfig(**block)  # every block read is one valid config
    # The block carries exactly the fields it set, a default value too, so
    # whoever applies it applies exactly those fields.
    spec = scenario("run-block", "d", devices=("fleet",),
                    fleet=fleet("f", groups=[group("g", "LOOP", 1)]),
                    run=block)
    assert dict(spec.run) == block
    document = json.loads(json.dumps(scenario_to_document(spec)))
    assert document.get("run", {}) == block
    assert scenario_from_document(document).run == spec.run


@st.composite
def scenarios(draw):
    base = dict(draw(workloads))
    if draw(st.booleans()):
        base["preload"] = False
    grid = {}
    if draw(st.booleans()):
        grid["io_size"] = [4096, 8192]
    if draw(st.booleans()):
        grid["theta"] = [0.9, 1.2]  # pattern-param axis
    streams = {}
    if draw(st.booleans()):
        streams["noisy"] = {"pattern": "randwrite",
                            "queue_depth": draw(st.integers(min_value=1,
                                                            max_value=4))}
    topology = draw(st.one_of(st.none(), topologies()))
    run = draw(st.one_of(st.none(), run_blocks())) \
        if topology is not None else None
    return scenario(
        draw(names), "property scenario",
        devices=("fleet",) if topology is not None else ("LOOP",),
        base=base, grid=grid, streams=streams, fleet=topology, run=run,
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        seed_mode=draw(st.sampled_from(["fixed", "derived"])),
        tags=tuple(draw(st.lists(st.sampled_from(["a", "b"]),
                                 max_size=2, unique=True))),
    )


@settings(max_examples=40, deadline=None)
@given(spec=scenarios())
def test_scenario_document_round_trip(spec):
    doc = json.loads(json.dumps(scenario_to_document(spec)))
    assert scenario_from_document(doc) == spec


@st.composite
def cells(draw) -> CellSpec:
    fields = dict(draw(workloads))
    fields["device"] = "LOOP"
    fields["seed"] = draw(st.integers(min_value=0, max_value=2**31 - 1))
    fields["preload"] = draw(st.booleans())
    fields["ramp_ios"] = draw(st.integers(min_value=0, max_value=8))
    fields["think_time_us"] = draw(st.floats(min_value=0.0, max_value=50.0,
                                             allow_nan=False))
    if draw(st.booleans()):
        fields["pattern_params"] = (("theta", draw(st.floats(
            min_value=0.5, max_value=1.5, allow_nan=False))),)
    if draw(st.booleans()):
        fields["device_params"] = (("latency_us", draw(st.floats(
            min_value=0.5, max_value=5.0, allow_nan=False))),)
    if draw(st.booleans()):
        fields["streams"] = (("noisy", (("pattern", "randwrite"),
                                        ("queue_depth", 2))),)
    if draw(st.booleans()):
        fields["fleet"] = draw(topologies()).canonical()
        fields["device"] = "fleet"
    fields["labels"] = (("device", fields["device"]),)
    return CellSpec(**fields)


@settings(max_examples=40, deadline=None)
@given(cell=cells())
def test_cell_document_round_trip(cell):
    doc = json.loads(json.dumps(cell_to_document(cell)))
    rebuilt = cell_from_document(doc)
    assert rebuilt == cell
    assert rebuilt.cache_key() == cell.cache_key()
