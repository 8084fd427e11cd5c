"""Tests for the scenario-sweep subsystem (grid, hashing, cache, runner, CLI)."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.scenarios import (
    all_scenarios,
    get_scenario,
    register,
    scenario,
)
from repro.experiments.sweep import (
    CellOutcome,
    CellSpec,
    SweepCache,
    SweepResult,
    SweepRunner,
    diff_results,
    expand_grid,
    quick_cells,
    run_cell,
    spec_hash,
)
from repro.host.io import KiB, MiB

#: A tiny two-device sweep used throughout (small capacities, few I/Os).
TINY_SWEEP = scenario(
    "tiny-sweep-under-test",
    "test-only sweep",
    devices=("SSD", "ESSD-2"),
    base={"pattern": "randwrite", "io_count": 30, "preload": False,
          "ssd_capacity_bytes": 64 * MiB, "essd_capacity_bytes": 96 * MiB},
    grid={"io_size": (4 * KiB, 64 * KiB), "queue_depth": (1, 4)},
    seed=7,
    seed_mode="derived",
)


# ---------------------------------------------------------------------------
# Grid expansion and hashing
# ---------------------------------------------------------------------------

def test_expand_grid_cartesian_product_and_order():
    points = expand_grid({"b": (1, 2), "a": ("x", "y", "z")})
    assert len(points) == 6
    # Axes iterate sorted by name; earlier axes vary slowest.
    assert points[0] == {"a": "x", "b": 1}
    assert points[1] == {"a": "x", "b": 2}
    assert points[-1] == {"a": "z", "b": 2}


def test_expand_grid_empty_and_invalid():
    assert expand_grid({}) == [{}]
    with pytest.raises(ValueError):
        expand_grid({"a": ()})
    with pytest.raises(TypeError):
        expand_grid({"a": 5})


def test_spec_hash_stable_and_sensitive():
    assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})
    assert spec_hash({"a": 1}) != spec_hash({"a": 2})
    cell = CellSpec(device="SSD", io_size=4096)
    assert cell.cache_key() == CellSpec(device="SSD", io_size=4096).cache_key()
    assert cell.cache_key() != CellSpec(device="SSD", io_size=8192).cache_key()
    # Labels are cosmetic: renaming them must not invalidate the cache.
    relabelled = CellSpec(device="SSD", io_size=4096, labels=(("name", "x"),))
    assert relabelled.cache_key() == cell.cache_key()


def test_cell_spec_payload_roundtrip():
    cell = CellSpec(device="ESSD-1", pattern="zipfrw", write_ratio=0.3,
                    pattern_params=(("theta", 1.2),), labels=(("device", "ESSD-1"),))
    clone = CellSpec.from_document(json.loads(json.dumps(cell.to_document())))
    assert clone == cell
    assert clone.cache_key() == cell.cache_key()


# ---------------------------------------------------------------------------
# Scenario registry and expansion
# ---------------------------------------------------------------------------

def test_scenario_expansion_devices_times_grid():
    cells = TINY_SWEEP.cells()
    assert len(cells) == 2 * 4
    devices = {cell.device for cell in cells}
    assert devices == {"SSD", "ESSD-2"}
    # Grid axes that match CellSpec fields land on the field; labels carry
    # the full grid point.
    sizes = {cell.io_size for cell in cells}
    assert sizes == {4 * KiB, 64 * KiB}
    assert all(dict(cell.labels)["device"] == cell.device for cell in cells)
    # Derived seeding: no two cells share a seed.
    seeds = [cell.seed for cell in cells]
    assert len(set(seeds)) == len(seeds)


def test_scenario_grid_may_sweep_seed_and_device_fields():
    spec = scenario("seed-sweep-under-test", "d", devices=("SSD",),
                    base={"pattern": "randwrite", "io_count": 10,
                          "preload": False},
                    grid={"seed": (1, 2, 3)})
    cells = spec.cells()
    assert [cell.seed for cell in cells] == [1, 2, 3]
    assert all(cell.device == "SSD" for cell in cells)


def test_quick_cells_shrinks_byte_bounded_floods():
    from repro.experiments.sweep import quick_cells
    flood = CellSpec(device="SSD", pattern="randwrite", io_size=4096,
                     total_bytes=400 * MiB)
    counted = CellSpec(device="SSD", pattern="randwrite", io_size=4096,
                       io_count=500)
    quick = quick_cells([flood, counted], io_count=60)
    assert quick[0].total_bytes == 50 * MiB
    assert quick[1].io_count == 60


def test_diff_flags_zero_baseline_going_nonzero():
    import math
    cell = CellSpec(device="SSD")
    a = SweepResult("s", [CellOutcome(cell, {"throughput_gbps": 0.0})])
    b = SweepResult("s", [CellOutcome(cell, {"throughput_gbps": 2.0})])
    rows = diff_results(a, b)
    assert rows[0]["relative_change"] == math.inf
    assert diff_results(a, a)[0]["relative_change"] == 0.0


def test_scenario_non_field_axes_become_pattern_params():
    spec = scenario("zipf-under-test", "d", devices=("ESSD-2",),
                    base={"pattern": "zipfread", "io_count": 10},
                    grid={"theta": (1.1, 1.3)})
    cells = spec.cells()
    assert [dict(cell.pattern_params)["theta"] for cell in cells] == [1.1, 1.3]


def test_registry_contains_paper_and_characterization_scenarios():
    names = {spec.name for spec in all_scenarios()}
    assert {"figure2", "figure3", "figure4", "figure5", "table1"} <= names
    assert {"zipf-hotspot", "hot-cold", "bursty-duty-cycle",
            "rw-ratio-sweep"} <= names
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")
    with pytest.raises(ValueError):
        register(get_scenario("figure2"))
    with pytest.raises(ValueError):
        scenario("x", "d", devices=(), seed_mode="nope")


# ---------------------------------------------------------------------------
# diff edge cases
# ---------------------------------------------------------------------------

def test_diff_handles_mismatched_grids():
    cell_a = CellSpec(device="SSD", io_size=4096)
    cell_b = CellSpec(device="SSD", io_size=8192)
    a = SweepResult("s", [CellOutcome(cell_a, {"throughput_gbps": 1.0})])
    b = SweepResult("s", [CellOutcome(cell_b, {"throughput_gbps": 2.0})])
    rows = diff_results(a, b)
    assert len(rows) == 2
    # A cell missing on one side reports the present value, no change,
    # and counts as one-sided.
    by_size = {CellSpec.from_document(row["cell"]).io_size: row for row in rows}
    assert by_size[4096]["throughput_gbps_a"] == 1.0
    assert by_size[4096]["throughput_gbps_b"] is None
    assert by_size[4096]["relative_change"] is None
    assert by_size[8192]["throughput_gbps_a"] is None
    assert by_size[8192]["relative_change"] is None
    assert all(row["one_sided"] for row in rows)


def test_diff_treats_nan_metrics_as_incomparable():
    import math
    cell = CellSpec(device="SSD")
    nan = SweepResult("s", [CellOutcome(cell, {"throughput_gbps": math.nan})])
    ok = SweepResult("s", [CellOutcome(cell, {"throughput_gbps": 1.0})])
    for a, b in ((nan, ok), (ok, nan), (nan, nan)):
        rows = diff_results(a, b)
        assert rows[0]["relative_change"] is None
        # A number on exactly one side is a change; NaN on both is not.
        assert rows[0]["one_sided"] is (a is not b)
    # A metric key absent from the metrics dict behaves the same way.
    missing = SweepResult("s", [CellOutcome(cell, {})])
    assert diff_results(missing, ok)[0]["relative_change"] is None
    assert diff_results(missing, ok)[0]["one_sided"]
    assert not diff_results(missing, nan)[0]["one_sided"]


# ---------------------------------------------------------------------------
# Device-param axes and the trace workload family
# ---------------------------------------------------------------------------

def test_device_param_axes_route_to_device_params_and_cache_key():
    spec = scenario("repl-under-test", "d", devices=("ESSD-2",),
                    base={"pattern": "randwrite", "io_count": 10,
                          "preload": False},
                    grid={"replication_factor": (1, 3),
                          "chunk_size": (512 * KiB,)})
    cells = spec.cells()
    assert [dict(cell.device_params)["replication_factor"]
            for cell in cells] == [1, 3]
    assert all(dict(cell.device_params)["chunk_size"] == 512 * KiB
               for cell in cells)
    # Device params are physics: they must split the cache key.
    assert cells[0].cache_key() != cells[1].cache_key()
    assert "replication_factor" not in dict(cells[0].pattern_params)


def test_replication_scenario_registered_and_sweeps_the_axis():
    spec = get_scenario("replication")
    cells = spec.cells()
    assert len(cells) == 2 * 3 * 2  # devices x factors x chunk sizes
    factors = {dict(cell.device_params)["replication_factor"] for cell in cells}
    assert factors == {1, 2, 3}


@pytest.mark.parametrize("trace", [False, True])
def test_trace_family_cell_replays_open_loop(trace):
    cell = CellSpec(device="LOOP", pattern="trace-uniform", io_size=8192,
                    pattern_params=(("duration_us", 5_000.0),
                                    ("load_gbps", 0.5)),
                    preload=False, seed=3, trace=trace)
    metrics, _ = run_cell(cell)
    assert metrics["ios_completed"] > 0
    assert metrics["unfinished"] == 0
    assert metrics["offered_mean_gbps"] == pytest.approx(0.5, rel=0.15)
    assert run_cell(cell)[0] == metrics  # deterministic
    quick = quick_cells([cell])[0]
    assert dict(quick.pattern_params)["duration_us"] == 5_000.0
    if trace:
        # A traced replay reports its request-path breakdown, and tracing
        # changes nothing else.
        breakdown = metrics.pop("trace")
        assert breakdown["completed_requests"] == metrics["ios_completed"]
        assert metrics == run_cell(replace(cell, trace=False))[0]
    else:
        assert "trace" not in metrics


@pytest.mark.parametrize("trace", [False, True])
def test_single_job_cell_runs_on_any_registered_device(trace):
    """A single-job cell builds its device by registered name, as stream
    cells and documents do; it used to convert the name to the enum of the
    paper's three devices and reject ``LOOP``."""
    metrics, _ = run_cell(CellSpec(device="LOOP", io_count=10, trace=trace))
    assert metrics["ios_completed"] == 10
    assert metrics["mean_us"] == pytest.approx(10.0)
    assert ("trace" in metrics) == trace


#: One small device cell of each workload kind.
DEVICE_CELL_KINDS = {
    "ssd-job-series": CellSpec(device="SSD", pattern="randread", io_count=40,
                               series_bin_us="auto",
                               ssd_capacity_bytes=64 * MiB),
    "essd-job": CellSpec(device="ESSD-2", pattern="randwrite",
                         io_size=64 * KiB, io_count=30, preload=False,
                         essd_capacity_bytes=96 * MiB),
    "ssd-streams": CellSpec(
        device="SSD", io_count=20, ssd_capacity_bytes=64 * MiB,
        streams=(("reader", (("pattern", "randread"),)),
                 ("writer", (("pattern", "randwrite"), ("queue_depth", 4))))),
    "loop-trace": CellSpec(device="LOOP", pattern="trace-uniform",
                           io_size=8192,
                           pattern_params=(("duration_us", 5_000.0),
                                           ("load_gbps", 0.5)),
                           preload=False, seed=3),
}


def _drain_spec(at_us: float, repair_after_us=None) -> str:
    from repro.cluster import FaultPolicy, fault
    from repro.cluster.faults import canonical_fault_spec

    return canonical_fault_spec(
        [fault("drain", "cell", at_us=at_us, repair_after_us=repair_after_us)],
        FaultPolicy())


@pytest.mark.parametrize("kind", sorted(DEVICE_CELL_KINDS))
def test_faulted_device_cell_reports_its_kinds_metrics_plus_shed_counts(kind):
    """A fault schedule adds ``shed_ios``/``shed_bytes`` to a device cell of
    every workload kind and, until it fires, changes no other metric (a
    faulted single job keeps its series, per-direction throughputs, device
    statistics and seed); once it fires the cell sheds I/Os."""
    cell = DEVICE_CELL_KINDS[kind]
    metrics, _ = run_cell(cell)
    never, _ = run_cell(replace(cell, faults=_drain_spec(1e12)))
    assert never.pop("shed_ios") == 0 and never.pop("shed_bytes") == 0
    assert never == metrics
    outage, _ = run_cell(replace(cell, faults=_drain_spec(
        0.0, repair_after_us=200.0)))
    assert outage["shed_ios"] > 0


def test_trace_csv_roundtrip_through_the_family_entry_point(tmp_path):
    from repro.workload.trace import Trace, synthesize_trace

    trace = synthesize_trace("bursty", duration_us=30_000.0,
                             mean_load_gbps=0.4, io_size=16384, seed=11)
    assert len(trace) > 0
    path = tmp_path / "trace.csv"
    trace.save_csv(path)
    loaded = Trace.load_csv(path)
    assert len(loaded) == len(trace)
    assert [(e.timestamp_us, e.kind, e.offset, e.size) for e in loaded] == \
        [(round(e.timestamp_us, 3), e.kind, e.offset, e.size) for e in trace]
    assert loaded.total_bytes == trace.total_bytes


def test_quick_cells_shrink_trace_and_fleet_cells():
    import json
    from repro.experiments.sweep import quick_cells as shrink

    trace_cell = CellSpec(device="ESSD-2", pattern="trace-bursty",
                          pattern_params=(("duration_us", 900_000.0),))
    quick = shrink([trace_cell])[0]
    assert dict(quick.pattern_params)["duration_us"] == 100_000.0

    fleet_cell = get_scenario("datacenter-diurnal").cells()[0]
    quick = shrink([fleet_cell])[0]
    payload = json.loads(quick.fleet)
    durations = [t["workload"]["duration_us"] for t in payload["tenants"]]
    assert all(duration <= 100_000.0 for duration in durations)


# ---------------------------------------------------------------------------
# Runner: determinism, parallelism, cache
# ---------------------------------------------------------------------------

def _metrics_of(result: SweepResult) -> list[dict]:
    return [outcome.metrics for outcome in result.outcomes]


def test_serial_and_parallel_execution_are_identical():
    cells = TINY_SWEEP.cells()
    serial = SweepRunner(parallel=False).run_cells("tiny", cells)
    parallel = SweepRunner(parallel=True, max_workers=2).run_cells("tiny", cells)
    assert _metrics_of(serial) == _metrics_of(parallel)
    assert [outcome.cell for outcome in serial.outcomes] \
        == [outcome.cell for outcome in parallel.outcomes]


def test_same_seed_reruns_are_deterministic():
    cell = TINY_SWEEP.cells()[0]
    assert run_cell(cell)[0] == run_cell(cell)[0]


def test_cache_hits_and_force(tmp_path):
    cells = TINY_SWEEP.cells()[:2]
    first = SweepRunner(cache_dir=tmp_path).run_cells("tiny", cells)
    assert first.cache_hits == 0
    second = SweepRunner(cache_dir=tmp_path).run_cells("tiny", cells)
    assert second.cache_hits == len(cells)
    assert _metrics_of(first) == _metrics_of(second)
    forced = SweepRunner(cache_dir=tmp_path, force=True).run_cells("tiny", cells)
    assert forced.cache_hits == 0
    assert _metrics_of(forced) == _metrics_of(first)


def test_a_runner_storing_into_a_scenario_prunes_its_stale_entries(tmp_path,
                                                                     monkeypatch):
    """Entries live per fingerprint.  After a source edit (a new
    fingerprint), the first runner that stores into a scenario removes the
    scenario's entries of every other fingerprint, and the unversioned
    entries of the old flat layout, which no key can reach again; other
    scenarios and a runner that only loads keep theirs."""
    import repro.experiments.sweep as sweep_module

    cells = TINY_SWEEP.cells()[:2]
    monkeypatch.setattr(sweep_module, "model_fingerprint", lambda: "a" * 16)
    SweepRunner(cache_dir=tmp_path).run_cells("tiny", cells)
    SweepRunner(cache_dir=tmp_path).run_cells("other", cells[:1])
    flat = tmp_path / "tiny" / f"{'0' * 16}.json"
    flat.write_text("{}")
    assert sorted(entry.name for entry in (tmp_path / "tiny").iterdir()) == \
        [flat.name, "a" * 16]
    assert len(list((tmp_path / "tiny" / ("a" * 16)).iterdir())) == 2

    monkeypatch.setattr(sweep_module, "model_fingerprint", lambda: "b" * 16)
    cache = SweepCache(tmp_path)
    assert cache.load("tiny", cells[0]) is None  # a load removes nothing
    assert (tmp_path / "tiny" / ("a" * 16)).is_dir()
    fresh = SweepRunner(cache_dir=tmp_path).run_cells("tiny", cells)
    assert fresh.cache_hits == 0
    assert [entry.name for entry in (tmp_path / "tiny").iterdir()] == ["b" * 16]
    assert len(list((tmp_path / "tiny" / ("b" * 16)).iterdir())) == 2
    assert [entry.name for entry in (tmp_path / "other").iterdir()] == ["a" * 16]
    assert SweepRunner(cache_dir=tmp_path).run_cells("tiny", cells).cache_hits == 2


UNSAFE_SCENARIO_NAMES = ["..", ".", "", "/absolute", "nested/name", "back\\slash"]


@pytest.mark.parametrize("name", UNSAFE_SCENARIO_NAMES)
def test_cache_refuses_a_scenario_name_that_is_not_one_path_component(
        tmp_path, name):
    """A scenario's entries live in ``<root>/<scenario>``, and a store
    prunes that directory, so a name that would leave the root raises
    before anything is read, written or removed."""
    root = tmp_path / "cache"
    root.mkdir()
    keep = tmp_path / "keep"
    keep.mkdir()
    (tmp_path / "keep.json").write_text("{}")
    cache = SweepCache(root)
    cell = TINY_SWEEP.cells()[0]
    for call in (lambda: cache.path_for(name, cell),
                 lambda: cache.load(name, cell),
                 lambda: cache.store(name, cell, {"x": 1}),
                 lambda: cache.prune(name)):
        with pytest.raises(ValueError, match="one path component"):
            call()
    with pytest.raises(ValueError, match="one path component"):
        scenario(name, "unsafe", devices=("LOOP",))
    assert sorted(entry.name for entry in tmp_path.iterdir()) == \
        ["cache", "keep", "keep.json"]
    assert list(root.iterdir()) == []


def test_prune_leaves_a_scenario_directory_linked_outside_the_root(tmp_path):
    outside = tmp_path / "outside"
    (outside / "old-fingerprint").mkdir(parents=True)
    (outside / "entry.json").write_text("{}")
    root = tmp_path / "cache"
    root.mkdir()
    (root / "linked").symlink_to(outside, target_is_directory=True)
    SweepCache(root).prune("linked")
    assert sorted(entry.name for entry in outside.iterdir()) == \
        ["entry.json", "old-fingerprint"]


@pytest.mark.parametrize("kind", ["scenario", "fleet"])
@pytest.mark.parametrize("name", ["..", "absolute"])
def test_cli_run_rejects_a_document_whose_name_leaves_the_cache(
        tmp_path, monkeypatch, capsys, kind, name):
    """``run doc.json`` exits 2 naming the problem, before any cell runs
    or any cache entry is written, and removes nothing."""
    from repro.cluster import fleet, group, tenant
    from repro.config import topology_to_document

    monkeypatch.chdir(tmp_path)
    victim = tmp_path / "victim"
    (victim / "src").mkdir(parents=True)
    (victim / "data.json").write_text("{}")
    name = str(victim) if name == "absolute" else name
    if kind == "scenario":
        document = {"kind": "scenario", "name": name, "devices": ["LOOP"],
                    "base": {"pattern": "randread", "io_count": 5}}
    else:
        document = topology_to_document(fleet(
            name, groups=[group("grp", "LOOP", 1, capacity_bytes=1 << 24)],
            tenants=[tenant("t", "grp", pattern="randread", io_size=4096,
                            queue_depth=1, io_count=5)]))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    cache = tmp_path / "cache"
    assert cli_main(["run", str(path), "--serial",
                     "--cache-dir", str(cache)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "is not one path component" in err
    assert "Traceback" not in err
    assert sorted(entry.name for entry in victim.iterdir()) == \
        ["data.json", "src"]
    assert sorted(entry.name for entry in tmp_path.iterdir()) == \
        ["doc.json", "victim"]


def test_cache_ignores_corrupt_and_mismatched_entries(tmp_path):
    cache = SweepCache(tmp_path)
    cell = TINY_SWEEP.cells()[0]
    path = cache.store("tiny", cell, {"throughput_gbps": 1.0})
    assert cache.load("tiny", cell) == {"throughput_gbps": 1.0}
    path.write_text("{not json")
    assert cache.load("tiny", cell) is None
    for entry in ({"scenario": "tiny"}, [1.0]):  # no metrics; no mapping
        path.write_text(json.dumps(entry))
        assert cache.load("tiny", cell) is None


def test_cache_store_survives_crash_mid_write(tmp_path, monkeypatch):
    """A writer dying mid-store must never corrupt an existing entry.

    The store path is temp-file + os.replace; simulate the crash by making
    the payload serializer blow up after the previous entry is in place."""
    cache = SweepCache(tmp_path)
    cell = TINY_SWEEP.cells()[0]
    cache.store("tiny", cell, {"throughput_gbps": 1.0})

    import repro.experiments.sweep as sweep_module

    def explode(payload):
        raise RuntimeError("simulated crash mid-write")

    monkeypatch.setattr(sweep_module, "canonical_json", explode)
    with pytest.raises(RuntimeError, match="simulated crash"):
        cache.store("tiny", cell, {"throughput_gbps": 2.0})
    monkeypatch.undo()

    # The prior entry is intact and loadable, and the aborted write left
    # no temp file behind to confuse later directory scans.
    assert cache.load("tiny", cell) == {"throughput_gbps": 1.0}
    entry_dir = cache.path_for("tiny", cell).parent
    assert [p.name for p in entry_dir.iterdir()] == \
        [cache.path_for("tiny", cell).name]

    # And a subsequent healthy store atomically replaces the entry.
    cache.store("tiny", cell, {"throughput_gbps": 3.0})
    assert cache.load("tiny", cell) == {"throughput_gbps": 3.0}


def test_cache_concurrent_stores_never_tear(tmp_path):
    """Racing writers of the same cell each publish a complete file: a
    reader polling throughout must only ever see a fully-formed entry."""
    import threading

    cache = SweepCache(tmp_path)
    cell = TINY_SWEEP.cells()[0]
    cache.store("tiny", cell, {"value": -1.0})
    stop = threading.Event()
    torn: list = []

    def reader():
        while not stop.is_set():
            metrics = cache.load("tiny", cell)
            if metrics is None or "value" not in metrics:
                torn.append(metrics)

    def writer(worker: int):
        for round_index in range(50):
            cache.store("tiny", cell,
                        {"value": float(worker * 100 + round_index)})

    observer = threading.Thread(target=reader)
    writers = [threading.Thread(target=writer, args=(index,))
               for index in range(4)]
    observer.start()
    for thread in writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    observer.join()
    assert torn == []
    assert "value" in cache.load("tiny", cell)


def test_cache_store_survives_a_second_writer_inside_its_rename(
        tmp_path, monkeypatch):
    """Two writers of one cell (two sweep-pool workers, or two serve
    jobs): the second writes and renames a complete entry between the
    first writer's write and its rename.  With a shared temp path the
    first rename found its file gone (FileNotFoundError); each writer
    renames a temp file of its own, so the first value lands last and no
    temp file is left behind."""
    import os

    cache = SweepCache(tmp_path)
    cell = TINY_SWEEP.cells()[0]
    real_replace = os.replace
    interleaved = []

    def replace_after_a_second_writer(source, target):
        if not interleaved:
            interleaved.append(target)
            # The second writer, start to end.
            cache.store("tiny", cell, {"value": 2.0})
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", replace_after_a_second_writer)
    path = cache.store("tiny", cell, {"value": 1.0})
    monkeypatch.undo()
    assert interleaved == [path]
    assert cache.load("tiny", cell) == {"value": 1.0}
    assert sorted(entry.name for entry in path.parent.iterdir()) \
        == [path.name]


def test_sweep_result_save_load_and_diff(tmp_path):
    cells = TINY_SWEEP.cells()[:3]
    result = SweepRunner().run_cells("tiny", cells)
    path = result.save(tmp_path / "sweep.json")
    loaded = SweepResult.load(path)
    assert _metrics_of(loaded) == _metrics_of(result)
    assert [outcome.cell for outcome in loaded.outcomes] == cells
    rows = diff_results(result, loaded)
    assert len(rows) == len(cells)
    assert all(row["relative_change"] == pytest.approx(0.0) for row in rows)


def test_result_files_round_trip_every_registered_scenarios_cells(tmp_path):
    """A result file stores each cell as its document and reads it back
    through the document reader: the quick cells of every registered
    scenario, plus a faulted device cell replaying a diurnal trace, come
    back equal and with equal cache keys."""
    cells = [cell for spec in all_scenarios() for cell in quick_cells(spec.cells())]
    cells.append(CellSpec.from_document({
        "device": "SSD", "pattern": "trace-diurnal", "trace": True,
        "faults": [{"kind": "fail", "group": "SSD", "at_us": 100.0}]}))
    covered = {
        "fleet faults": any(cell.fleet and '"faults"' in cell.fleet for cell in cells),
        "device faults": any(cell.faults for cell in cells),
        "streams": any(cell.streams for cell in cells),
        "trace": any(cell.trace for cell in cells),
        "trace families": {cell.pattern for cell in cells
                           if cell.pattern.startswith("trace-")},
        "device_params": any(cell.device_params for cell in cells),
        "pattern_params": any(cell.pattern_params for cell in cells),
        "series_bin_us auto": any(cell.series_bin_us == "auto" for cell in cells),
    }
    assert all(covered.values()), covered
    assert len(covered["trace families"]) >= 2
    result = SweepResult("all", [CellOutcome(cell, {"iops": float(index)})
                                 for index, cell in enumerate(cells)])
    loaded = SweepResult.load(result.save(tmp_path / "all.json"))
    assert [outcome.cell for outcome in loaded.outcomes] == cells
    assert [outcome.cell.cache_key() for outcome in loaded.outcomes] \
        == [cell.cache_key() for cell in cells]
    assert _metrics_of(loaded) == _metrics_of(result)


def test_cli_diff_fails_on_a_cell_missing_on_one_side(tmp_path, capsys):
    """``diff --fail-on-change`` counts a cell whose metric is on one side
    only as changed; a NaN on both sides stays incomparable."""
    cells = [CellSpec(device="SSD", io_size=size) for size in (4096, 8192)]
    both = SweepResult("s", [CellOutcome(cell, {"throughput_gbps": 1.0})
                             for cell in cells])
    one = SweepResult("s", both.outcomes[:1])
    nan = SweepResult("s", [CellOutcome(cell, {"throughput_gbps": float("nan")})
                            for cell in cells])
    paths = {name: str(result.save(tmp_path / f"{name}.json"))
             for name, result in (("both", both), ("one", one), ("nan", nan))}
    assert cli_main(["diff", paths["both"], paths["one"],
                     "--fail-on-change"]) == 1
    assert "1 cells changed beyond +-5% (1 with throughput_gbps on one " \
           "side only)" in capsys.readouterr().out
    assert cli_main(["diff", paths["both"], paths["one"]]) == 0
    capsys.readouterr()
    assert cli_main(["diff", paths["nan"], paths["nan"],
                     "--fail-on-change"]) == 0
    assert "0 cells changed beyond +-5% (0 with throughput_gbps on one " \
           "side only)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list_and_static_table1(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "figure4" in out and "bursty-duty-cycle" in out
    assert cli_main(["run", "table1"]) == 0
    assert "Alibaba Cloud PL3" in capsys.readouterr().out


def test_cli_run_parallel_with_cache_and_diff(tmp_path, capsys):
    register(TINY_SWEEP, replace=True)
    cache = str(tmp_path / "cache")
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    assert cli_main(["run", TINY_SWEEP.name, "--workers", "2",
                     "--cache-dir", cache, "--out", out_a]) == 0
    first = capsys.readouterr().out
    assert "0 cached" in first
    # Second run: every cell is a cache hit and the sweep is identical.
    assert cli_main(["run", TINY_SWEEP.name, "--workers", "2",
                     "--cache-dir", cache, "--out", out_b]) == 0
    second = capsys.readouterr().out
    assert f"{len(TINY_SWEEP.cells())} cached" in second
    metrics_a = [entry["metrics"]
                 for entry in json.loads(Path(out_a).read_text())["cells"]]
    metrics_b = [entry["metrics"]
                 for entry in json.loads(Path(out_b).read_text())["cells"]]
    assert metrics_a == metrics_b
    assert cli_main(["diff", out_a, out_b]) == 0
    assert "0 cells changed" in capsys.readouterr().out
