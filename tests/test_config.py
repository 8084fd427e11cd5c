"""Unit tests for the config layer (repro.config).

Covers the document converters (lossless round-trips, path-addressed
validation errors), the profiles sugar, the loader (YAML/JSON parsing,
directory scan), the ``$REPRO_SCENARIO_PATH`` registration hook, and the
``validate`` CLI verb.
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
    tenant,
)
from repro.config import (
    ConfigError,
    cell_from_document,
    cell_to_document,
    document_kind,
    load_document,
    parse_document_text,
    run_config_from_document,
    scan_scenario_dirs,
    scenario_for_document,
    scenario_from_document,
    scenario_to_document,
    topology_from_document,
    topology_to_document,
    yaml_available,
)
from repro.experiments.cli import main
from repro.determinism import canonical_json
from repro.experiments.scenarios import (
    all_scenarios,
    get_scenario,
    load_user_scenarios,
    scenario,
)
from repro.experiments.sweep import CellSpec

MINI_CAPACITY = 1 << 24


def demo_topology() -> FleetTopology:
    return fleet(
        "demo",
        groups=[group("web", "SSD", 3, device_params={"op_ratio": 0.2}),
                group("backup", "ESSD-2", 2, mode="macro"),
                group("scratch", "LOOP", 1, capacity_bytes=MINI_CAPACITY,
                      preload=False)],
        tenants=[tenant("t0", "web", pattern="randwrite", io_size=4096,
                        queue_depth=4, io_count=40)],
        edges=[edge("web", "backup", 2)],
        faults=[fault("fail", "web", 5000.0, device=1,
                      repair_after_us=2000.0)],
        epoch_us=500.0,
        seed=23,
    )


# ---------------------------------------------------------------------------
# Topology documents
# ---------------------------------------------------------------------------

class TestTopologyDocuments:
    def test_round_trip_is_identity(self):
        topology = demo_topology()
        doc = topology_to_document(topology)
        assert topology_from_document(doc) == topology

    def test_document_is_json_serialisable(self):
        doc = topology_to_document(demo_topology())
        rebuilt = topology_from_document(json.loads(json.dumps(doc)))
        assert rebuilt.canonical() == demo_topology().canonical()

    def test_defaults_are_omitted(self):
        doc = topology_to_document(fleet(
            "plain", groups=[group("g", "LOOP", 1)]))
        assert "epoch_us" not in doc
        assert "seed" not in doc
        assert "tenants" not in doc
        assert "mode" not in doc["groups"][0]

    def test_canonical_form_is_the_document(self):
        topology = demo_topology()
        assert json.loads(topology.canonical()) == \
            topology_to_document(topology, kind=None)
        assert FleetTopology.from_json(topology.canonical()) == topology

    def test_canonical_form_reads_back_to_itself(self):
        # Times given as ints are stored as floats, as the reader reads
        # them, so the stored string is a fixed point of the round trip.
        topology = fleet("ints", groups=[group("g", "LOOP", 2)],
                         faults=[fault("fail", "g", 1500,
                                       repair_after_us=7)],
                         fault_policy=FaultPolicy(shed_penalty_us=50),
                         epoch_us=500)
        text = topology.canonical()
        assert FleetTopology.from_json(text).canonical() == text

    def test_from_json_validates_like_a_document(self):
        text = json.dumps({"name": "f", "groups": [
            {"name": "g", "device": "LOOP", "count": 1, "cont": 2}]})
        with pytest.raises(ConfigError) as excinfo:
            FleetTopology.from_json(text)
        assert excinfo.value.path == "fleet.groups[0].cont"

    def test_only_non_default_fields_are_written(self):
        doc = topology_to_document(fleet(
            "partial", groups=[group("a", "LOOP", 1), group("b", "LOOP", 2)],
            edges=[edge("a", "b")],
            fault_policy=FaultPolicy(shed_penalty_us=150.0)))
        assert doc["edges"] == [{"source": "a", "target": "b"}]
        assert doc["fault_policy"] == {"shed_penalty_us": 150.0}

    def test_standalone_wrapper_keys_are_not_topology_keys(self):
        for key, value in (("description", "d"), ("tags", ["t"]),
                           ("run", {"shards": 2})):
            doc = topology_to_document(demo_topology())
            doc[key] = value
            assert scenario_for_document(doc).name == "demo"
            with pytest.raises(ConfigError) as excinfo:
                topology_from_document(doc)
            assert excinfo.value.path == f"fleet.{key}"

    def test_method_delegation(self):
        topology = demo_topology()
        doc = topology.to_document()
        assert FleetTopology.from_document(doc) == topology

    def test_bad_count_is_path_addressed(self):
        doc = topology_to_document(demo_topology())
        doc["groups"][2]["count"] = 0
        with pytest.raises(ConfigError) as excinfo:
            topology_from_document(doc)
        assert str(excinfo.value) == \
            "fleet.groups[2].count: expected positive int"

    def test_unknown_device_lists_known(self):
        doc = {"name": "f", "groups": [
            {"name": "g", "device": "FLOPPY", "count": 1}]}
        with pytest.raises(ConfigError) as excinfo:
            topology_from_document(doc)
        assert excinfo.value.path == "fleet.groups[0].device"
        assert "SSD" in str(excinfo.value)

    def test_unknown_profile_field(self):
        doc = {"name": "f", "groups": [
            {"name": "g", "device": "SSD", "count": 1,
             "device_params": {"warp_factor": 9}}]}
        with pytest.raises(ConfigError) as excinfo:
            topology_from_document(doc)
        assert excinfo.value.path == \
            "fleet.groups[0].device_params.warp_factor"

    def test_loop_device_params_unvalidated(self):
        doc = {"name": "f", "groups": [
            {"name": "g", "device": "LOOP", "count": 1,
             "device_params": {"latency_us": 3.0}}]}
        topology = topology_from_document(doc)
        assert dict(topology.groups[0].device_params) == {"latency_us": 3.0}

    def test_unknown_key_rejected(self):
        doc = {"name": "f", "grupos": [],
               "groups": [{"name": "g", "device": "LOOP", "count": 1}]}
        with pytest.raises(ConfigError) as excinfo:
            topology_from_document(doc)
        assert excinfo.value.path == "fleet.grupos"

    def test_cross_field_errors_carry_path(self):
        doc = {"name": "f",
               "groups": [{"name": "g", "device": "LOOP", "count": 1}],
               "tenants": [{"name": "t", "group": "missing",
                            "workload": {"pattern": "randread"}}]}
        with pytest.raises(ConfigError) as excinfo:
            topology_from_document(doc)
        assert excinfo.value.path == "fleet"
        assert "missing" in excinfo.value.message

    def test_bad_fault_kind(self):
        doc = {"name": "f",
               "groups": [{"name": "g", "device": "LOOP", "count": 1}],
               "faults": [{"kind": "explode", "group": "g", "at_us": 10.0}]}
        with pytest.raises(ConfigError) as excinfo:
            topology_from_document(doc)
        assert excinfo.value.path == "fleet.faults[0]"

    @pytest.mark.parametrize("workload, key", [
        ({"pattern": "randread", "io_cont": 5}, "io_cont"),
        ({"trace": "bursty", "duration_us": 1e3, "mean_load_gbsp": 1.0},
         "mean_load_gbsp"),
        ({"trace": "tidal", "duration_us": 1e3}, "trace"),
        ({"pattern": "randread", "io_count": 5, "io_size": "big"}, "io_size"),
        ({"pattern": "randread", "io_count": 5, "queue_depth": 0},
         "queue_depth"),
        ({"pattern": "randwirte", "io_count": 5}, "pattern"),
        ({"trace": "bursty", "duration_us": 1e3, "io_size": "big"},
         "io_size"),
        ({"trace": "bursty", "duration_us": float("nan")}, "duration_us"),
        ({"pattern": "randread", "io_count": 5, "region_offset": 4096},
         "region_offset"),
        # Only a cell's own pattern replays a trace; a trace tenant sets
        # trace: <family>.
        ({"pattern": "trace-bursty", "io_count": 5}, "pattern"),
        # A mixed pattern needs a write ratio in [0, 1].
        ({"pattern": "randrw", "io_count": 5}, "write_ratio"),
        ({"pattern": "bursty-randrw", "io_count": 5, "write_ratio": 1.5},
         "write_ratio"),
    ])
    def test_tenant_workload_keys_are_checked(self, workload, key):
        doc = {"name": "f",
               "groups": [{"name": "g", "device": "LOOP", "count": 1}],
               "tenants": [{"name": "t", "group": "g",
                            "workload": workload}]}
        with pytest.raises(ConfigError) as excinfo:
            topology_from_document(doc)
        assert excinfo.value.path == f"fleet.tenants[0].workload.{key}"

    def test_profiles_expand_into_device_params(self):
        doc = {"name": "f",
               "profiles": {"SSD-hot": {"device": "SSD",
                                        "params": {"op_ratio": 0.28}}},
               "groups": [{"name": "g", "device": "SSD-hot", "count": 2,
                           "device_params": {"host_overhead_us": 1.0}}]}
        topology = topology_from_document(doc)
        assert topology.groups[0].device == "SSD"
        assert dict(topology.groups[0].device_params) == {
            "op_ratio": 0.28, "host_overhead_us": 1.0}

    def test_profile_params_validated_against_target(self):
        doc = {"name": "f",
               "profiles": {"P": {"device": "SSD",
                                  "params": {"bogus": 1}}},
               "groups": [{"name": "g", "device": "P", "count": 1}]}
        with pytest.raises(ConfigError) as excinfo:
            topology_from_document(doc)
        assert excinfo.value.path == "fleet.profiles.P.params.bogus"


# ---------------------------------------------------------------------------
# Scenario / cell documents
# ---------------------------------------------------------------------------

class TestScenarioDocuments:
    def test_builtin_round_trip(self):
        """Every registered declarative scenario reads back from its own
        document and expands to the same cells; ``mixed-fleet``, whose
        streams all pin a device, names its cells ``fleet``."""
        specs = [spec for spec in all_scenarios() if spec.cell_builder is None]
        assert "mixed-fleet" in [spec.name for spec in specs]
        for spec in specs:
            rebuilt = scenario_from_document(scenario_to_document(spec))
            assert rebuilt == spec, spec.name
            assert [canonical_json(cell.to_document())
                    for cell in rebuilt.cells()] == \
                [canonical_json(cell.to_document()) for cell in spec.cells()], \
                spec.name

    def test_mixed_fleet_cells_read_back_from_their_documents(self):
        for cell in get_scenario("mixed-fleet").cells():
            assert cell.device == "fleet"
            assert cell_from_document(cell_to_document(cell)) == cell

    def test_fleet_scenario_round_trip_preserves_cells(self):
        spec = get_scenario("fleet-smoke")
        rebuilt = scenario_from_document(scenario_to_document(spec))
        assert rebuilt == spec
        assert rebuilt.cells() == spec.cells()

    def test_cell_builder_scenarios_have_no_document_form(self):
        spec = get_scenario("figure4")
        with pytest.raises(ConfigError):
            scenario_to_document(spec)

    def test_unknown_base_key(self):
        doc = {"kind": "scenario", "name": "s", "devices": ["LOOP"],
               "base": {"io_siez": 4096}}
        with pytest.raises(ConfigError) as excinfo:
            scenario_from_document(doc)
        assert excinfo.value.path == "scenario.base.io_siez"

    def test_unknown_stream_field(self):
        doc = {"kind": "scenario", "name": "s", "devices": ["LOOP"],
               "streams": {"victim": {"queue_deth": 2}}}
        with pytest.raises(ConfigError) as excinfo:
            scenario_from_document(doc)
        assert excinfo.value.path == "scenario.streams.victim.queue_deth"

    def test_empty_grid_axis(self):
        doc = {"kind": "scenario", "name": "s", "devices": ["LOOP"],
               "grid": {"io_size": []}}
        with pytest.raises(ConfigError) as excinfo:
            scenario_from_document(doc)
        assert excinfo.value.path == "scenario.grid.io_size"

    def test_fleet_document_wraps_into_scenario(self):
        doc = topology_to_document(demo_topology())
        doc["description"] = "demo fleet"
        spec = scenario_for_document(doc)
        assert spec.name == "demo"
        assert spec.devices == ("fleet",)
        assert spec.description == "demo fleet"
        assert "fleet" in spec.tags
        [cell] = spec.cells()
        assert FleetTopology.from_json(cell.fleet) == demo_topology()

    def test_document_kind_inference(self):
        assert document_kind({"groups": []}) == "fleet"
        assert document_kind({"devices": ["LOOP"]}) == "scenario"
        assert document_kind({"device": "LOOP"}) == "cell"
        assert document_kind({"kind": "topology", "groups": []}) == "fleet"
        with pytest.raises(ConfigError):
            document_kind({"whatever": 1})

    def test_cell_round_trip_preserves_cache_key(self):
        cell = CellSpec(
            device="LOOP", pattern="randrw", io_size=8192, queue_depth=4,
            write_ratio=0.3, io_count=64, ramp_ios=4, think_time_us=5.0,
            pattern_params=(("theta", 1.1),), seed=91, preload=False,
            streams=(("noisy", (("pattern", "randwrite"),)),),
            device_params=(("latency_us", 2.0),),
            labels=(("device", "LOOP"), ("io_size", 8192)),
        )
        doc = cell_to_document(cell)
        rebuilt = cell_from_document(json.loads(json.dumps(doc)))
        assert rebuilt == cell
        assert rebuilt.cache_key() == cell.cache_key()

    def test_fleet_cell_round_trip(self):
        cell = CellSpec(device="fleet", fleet=demo_topology().canonical(),
                        labels=(("device", "fleet"),))
        rebuilt = CellSpec.from_document(cell.to_document())
        assert rebuilt == cell

    def test_cell_document_validates_types(self):
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({"device": "LOOP", "io_size": "big"})
        assert excinfo.value.path == "cell.io_size"

    @pytest.mark.parametrize("key", ["think_time_us", "runtime_us",
                                     "write_ratio", "series_bin_us"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_cell_document_rejects_non_finite_numbers(self, key, value):
        """JSON and YAML both parse NaN and infinities, and NaN passes every
        ``<``/``<=`` bound check: a NaN think time used to be skipped and a
        NaN runtime stopped a cell after one I/O."""
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({"device": "LOOP", key: value})
        assert excinfo.value.path == f"cell.{key}"

    def test_fleet_document_rejects_a_nan_epoch(self):
        document = topology_to_document(demo_topology())
        document["epoch_us"] = float("nan")
        with pytest.raises(ConfigError) as excinfo:
            topology_from_document(document)
        assert excinfo.value.path == "fleet.epoch_us"

    def test_cell_document_requires_device(self):
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({"pattern": "randread"})
        assert "device" in str(excinfo.value)

    @pytest.mark.parametrize("section, value, path", [
        ("base", {"io_size": "big"}, "scenario.base.io_size"),
        ("base", {"think_time_us": float("nan")},
         "scenario.base.think_time_us"),
        ("base", {"pattern": "randwirte"}, "scenario.base.pattern"),
        ("streams", {"a": {"queue_depth": "deep"}},
         "scenario.streams.a.queue_depth"),
    ])
    def test_scenario_job_fields_read_like_cell_fields(self, section, value,
                                                       path):
        doc = {"kind": "scenario", "name": "s", "devices": ["LOOP"],
               "base": {"io_count": 5}}
        doc[section] = {**doc.get(section, {}), **value}
        with pytest.raises(ConfigError) as excinfo:
            scenario_from_document(doc)
        assert excinfo.value.path == path

    @pytest.mark.parametrize("changes, path", [
        ({"grid": {"queue_depth": [1, "two"]}}, "queue_depth"),
        ({"grid": {"think_time_us": [float("inf")]}}, "think_time_us"),
        ({"streams": {"a": {"device": "SDD"}}}, "streams.a.device"),
        ({"devices": ["SDD"]}, "device"),
        ({"devices": ["SSD"], "base": {"io_count": 5,
                                       "device_params": {"bogus": 1}}},
         "device_params.bogus"),
        ({"devices": ["SSD"], "grid": {"replication_factor": [2]}},
         "device_params.replication_factor"),
    ])
    def test_scenario_cells_read_through_the_cell_reader(self, changes, path):
        """A scenario reads, but its cells do not: grid values and the
        devices a cell builds are checked as each cell document reads back,
        at the cell's root path."""
        spec = scenario_from_document({
            "kind": "scenario", "name": "s", "devices": ["LOOP"],
            "base": {"io_count": 5}, **changes})
        with pytest.raises(ConfigError) as excinfo:
            spec.cells()
        assert excinfo.value.path == path

    def test_scenario_cells_keep_the_values_they_are_given(self):
        """No reader turns an int into a float: a cell's canonical JSON (its
        cache key) is the value as written."""
        spec = scenario_from_document({
            "kind": "scenario", "name": "s", "devices": ["LOOP"],
            "base": {"io_count": 5, "think_time_us": 2},
            "grid": {"write_ratio": [1], "runtime_us": [50]}})
        [cell] = spec.cells()
        values = (cell.think_time_us, cell.write_ratio, cell.runtime_us)
        assert values == (2, 1, 50)
        assert all(type(value) is int for value in values)

    def test_cells_whose_streams_all_pin_a_device_may_carry_a_label(self):
        streams = {"a": {"device": "LOOP"}, "b": {"device": "LOOP"}}
        cell = cell_from_document({"device": "fleet", "io_count": 5,
                                   "streams": streams})
        assert cell.device == "fleet"
        del streams["b"]["device"]
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({"device": "fleet", "io_count": 5,
                                "streams": streams})
        assert excinfo.value.path == "cell.device"

    @pytest.mark.parametrize("device, params, path", [
        ("SSD", {"bogus": 1}, "cell.device_params.bogus"),
        ("ESSD-1", {"op_ratio": 0.2}, "cell.device_params.op_ratio"),
    ])
    def test_cell_device_params_are_checked(self, device, params, path):
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({"device": device, "io_count": 5,
                                "device_params": params})
        assert excinfo.value.path == path

    def test_stream_pins_get_their_device_params_checked(self):
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({"device": "fleet", "io_count": 5,
                                "device_params": {"op_ratio": 0.2},
                                "streams": {"a": {"device": "ESSD-2"}}})
        assert excinfo.value.path == "cell.device_params.op_ratio"

    @pytest.mark.parametrize("pattern", ["randwirte", "trace-nope", "trace-",
                                         "bursty-bursty-randread"])
    def test_unknown_pattern_is_rejected(self, pattern):
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({"device": "LOOP", "io_count": 5,
                                "pattern": pattern})
        assert excinfo.value.path == "cell.pattern"

    @pytest.mark.parametrize("pattern", ["randwrite", "seqrw", "hotcoldrw",
                                         "bursty-zipfread", "RandRead",
                                         "trace-bursty", "trace-diurnal"])
    def test_every_pattern_that_runs_is_accepted(self, pattern):
        # A mixed pattern runs only with a write ratio; the others ignore it.
        cell = cell_from_document({"device": "LOOP", "io_count": 5,
                                   "pattern": pattern, "write_ratio": 0.5})
        assert cell.pattern == pattern

    @pytest.mark.parametrize("changes, path", [
        ({"streams": {"a": {"pattern": "trace-bursty"}}},
         "cell.streams.a.pattern"),
        ({"pattern": "trace-uniform", "streams": {"a": {}}}, "cell.streams"),
    ])
    def test_only_a_cells_own_pattern_replays_a_trace(self, changes, path):
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({"device": "LOOP", "io_count": 5, **changes})
        assert excinfo.value.path == path

    def test_a_trace_pattern_is_a_grid_value_but_not_a_stream_axis(self):
        document = {"kind": "scenario", "name": "s", "devices": ["LOOP"],
                    "base": {"io_count": 5}, "grid": {"pattern": [
                        "randread", "trace-uniform"]}}
        cells = scenario_from_document(document).cells()
        assert [cell.pattern for cell in cells] == ["randread",
                                                    "trace-uniform"]
        document["streams"] = {"a": {}}
        document["grid"] = {"a.pattern": ["trace-uniform"]}
        with pytest.raises(ConfigError) as excinfo:
            scenario_from_document(document).cells()
        assert excinfo.value.path == "streams.a.pattern"

    @pytest.mark.parametrize("changes, path", [
        ({"pattern": "randrw"}, "cell.write_ratio"),
        ({"pattern": "RandRW", "write_ratio": 1.5}, "cell.write_ratio"),
        ({"pattern": "bursty-hotcoldrw"}, "cell.write_ratio"),
        ({"streams": {"a": {"pattern": "seqrw"}}},
         "cell.streams.a.write_ratio"),
        ({"pattern": "zipfrw", "write_ratio": 0.5,
          "streams": {"a": {"write_ratio": 2.0}}},
         "cell.streams.a.write_ratio"),
    ])
    def test_a_mixed_job_needs_a_write_ratio_in_0_1(self, changes, path):
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({"device": "LOOP", "io_count": 5, **changes})
        assert excinfo.value.path == path
        assert "expected a number in [0, 1] for the mixed pattern" \
            in excinfo.value.message

    @pytest.mark.parametrize("changes", [
        # A stream inherits the cell's write ratio.
        {"pattern": "randrw", "write_ratio": 0.25, "streams": {"a": {}}},
        # A cell with streams runs only the streams, not its own job.
        {"pattern": "randrw", "streams": {"a": {"pattern": "randread"}}},
        # Non-mixed patterns ignore the ratio; a trace reads > 1 as writes.
        {"pattern": "randwrite", "write_ratio": 1.5},
        {"pattern": "trace-uniform", "write_ratio": 1.5},
    ])
    def test_write_ratios_that_run_are_accepted(self, changes):
        cell_from_document({"device": "LOOP", "io_count": 5, **changes})

    @pytest.mark.parametrize("workload", [
        {"pattern": "randrw", "io_count": 5, "write_ratio": 0.5},
        # A trace tenant reads a ratio above 1 as all writes.
        {"trace": "uniform", "duration_us": 1000.0, "write_ratio": 1.5},
    ])
    def test_tenant_write_ratios_that_run_are_accepted(self, workload):
        document = topology_to_document(demo_topology())
        document["tenants"][0]["workload"] = workload
        topology_from_document(document)

    def test_fleet_run_is_not_a_cell_key(self):
        with pytest.raises(ConfigError) as excinfo:
            cell_from_document({
                "device": "fleet",
                "fleet": topology_to_document(demo_topology()),
                "fleet_run": {"shards": 2}})
        assert excinfo.value.path == "cell.fleet_run"
        assert "unknown key" in excinfo.value.message


# ---------------------------------------------------------------------------
# Run blocks
# ---------------------------------------------------------------------------

class TestRunBlock:
    @pytest.mark.parametrize("key, value", [("processes", True),
                                            ("spin_budget", 50),
                                            ("epoch_us", 500.0)])
    def test_removed_keys_are_unknown(self, key, value):
        with pytest.raises(ConfigError) as excinfo:
            run_config_from_document({"shards": 2, key: value})
        assert excinfo.value.path == f"run.{key}"
        assert "unknown key" in excinfo.value.message

    def test_the_block_stays_on_the_scenario(self):
        """The ``run:`` block reads into ``ScenarioSpec.run`` and never
        reaches a cell, so a cell (and its cache key) is the same with or
        without it."""
        document = topology_to_document(demo_topology())
        plain = scenario_for_document(document)
        document["run"] = {"shards": 2, "transport": "local"}
        spec = scenario_for_document(document)
        assert dict(spec.run) == {"shards": 2, "transport": "local"}
        assert plain.run == ()
        assert spec.cells() == plain.cells()
        assert spec.to_document()["run"] == document["run"]
        assert "run" not in plain.to_document()

    def test_a_field_set_to_its_default_stays_set(self):
        """The block keeps the fields it sets, defaults included, so a
        flag can contradict ``shards: 1`` as it does ``shards: 2``."""
        document = topology_to_document(demo_topology())
        document["run"] = {"shards": 1, "transport": "auto"}
        spec = scenario_for_document(document)
        assert dict(spec.run) == {"shards": 1, "transport": "auto"}
        assert spec.to_document()["run"] == {"shards": 1, "transport": "auto"}
        assert run_config_from_document({"run_ahead": 16}) == {"run_ahead": 16}


# ---------------------------------------------------------------------------
# Loader and $REPRO_SCENARIO_PATH
# ---------------------------------------------------------------------------

class TestLoader:
    def test_yaml_is_available_in_this_environment(self):
        # CI installs the config extra; the suite exercises the YAML path.
        assert yaml_available()

    def test_parse_yaml_text(self):
        doc = parse_document_text("name: f\ngroups:\n  - {name: g, "
                                  "device: LOOP, count: 1}\n")
        assert topology_from_document(doc).groups[0].device == "LOOP"

    def test_json_only_fallback_without_pyyaml(self, monkeypatch):
        # Without the config extra the loader is JSON-only: JSON documents
        # still parse, and real YAML fails with an error naming the extra.
        import repro.config.loader as loader

        monkeypatch.setattr(loader, "yaml_available", lambda: False)
        doc = loader.parse_document_text(
            '{"name": "f", "groups": '
            '[{"name": "g", "device": "LOOP", "count": 1}]}')
        assert topology_from_document(doc).groups[0].count == 1
        with pytest.raises(ConfigError, match=r"pip install repro\[config\]"):
            loader.parse_document_text("name: f\ngroups: []\n")

    def test_parse_json_text(self):
        assert parse_document_text('{"a": 1}') == {"a": 1}

    def test_parse_error_names_source(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_document_text("{unbalanced", source="bad.yaml")
        assert excinfo.value.path == "bad.yaml"

    def test_load_document_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            load_document(tmp_path / "nope.yaml")
        assert "cannot read file" in excinfo.value.message

    def test_scan_collects_warnings_instead_of_failing(self, tmp_path):
        (tmp_path / "good.json").write_text(json.dumps(
            topology_to_document(demo_topology())))
        (tmp_path / "bad.yaml").write_text("name: x\ngroups:\n  - {name: g, "
                                           "device: LOOP, count: 0}\n")
        (tmp_path / "ignored.txt").write_text("not a document")
        specs, warnings = scan_scenario_dirs([tmp_path])
        assert [spec.name for spec in specs] == ["demo"]
        assert len(warnings) == 1
        assert "bad.yaml" in warnings[0][0]
        assert "count" in warnings[0][1]

    def test_scan_missing_directory_is_a_warning(self, tmp_path):
        specs, warnings = scan_scenario_dirs([tmp_path / "absent"])
        assert specs == []
        assert warnings == [(str(tmp_path / "absent"), "not a directory")]

    def test_scenario_path_registers_user_fleets(self, tmp_path,
                                                 monkeypatch):
        (tmp_path / "user.json").write_text(json.dumps(
            topology_to_document(demo_topology())))
        monkeypatch.setenv("REPRO_SCENARIO_PATH", str(tmp_path))
        warnings = load_user_scenarios(force=True)
        assert warnings == []
        spec = get_scenario("demo")
        assert spec.devices == ("fleet",)

    def test_scenario_path_rescans_when_env_changes(self, tmp_path,
                                                    monkeypatch):
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        (first / "one.json").write_text(json.dumps(
            scenario_to_document(scenario(
                "user-one", "first", devices=("LOOP",),
                base={"io_count": 10}))))
        (second / "two.json").write_text(json.dumps(
            scenario_to_document(scenario(
                "user-two", "second", devices=("LOOP",),
                base={"io_count": 10}))))
        monkeypatch.setenv("REPRO_SCENARIO_PATH", str(first))
        load_user_scenarios()
        get_scenario("user-one")
        monkeypatch.setenv("REPRO_SCENARIO_PATH", str(second))
        load_user_scenarios()
        get_scenario("user-two")


# ---------------------------------------------------------------------------
# The validate CLI verb
# ---------------------------------------------------------------------------

class TestValidateVerb:
    def test_valid_document_reports_ok(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(topology_to_document(demo_topology())))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "demo" in out

    def test_invalid_document_exits_2_with_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = topology_to_document(demo_topology())
        doc["groups"][0]["count"] = -3
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "groups[0].count: expected positive int" in err
        assert "Traceback" not in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.yaml")]) == 2
        assert "cannot read file" in capsys.readouterr().err

    def test_cell_document_rejects_a_misspelled_fault_key(self, tmp_path,
                                                          capsys):
        path = tmp_path / "cell.json"
        path.write_text(json.dumps({
            "kind": "cell", "device": "LOOP", "io_count": 5,
            "faults": [{"kind": "fail", "group": "cell", "at_us": 10.0,
                        "devcie": 0}]}))
        assert main(["validate", str(path)]) == 2
        assert f"{path}.faults[0].devcie: unknown key" in \
            capsys.readouterr().err

    def test_cell_document_validates(self, tmp_path, capsys):
        path = tmp_path / "cell.json"
        path.write_text(json.dumps({"kind": "cell", "device": "LOOP",
                                    "io_count": 5}))
        assert main(["validate", str(path)]) == 0
        assert "cell" in capsys.readouterr().out
