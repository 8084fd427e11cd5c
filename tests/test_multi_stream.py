"""Tests for multi-stream sweep cells (noisy neighbor, mixed fleet),
cache fingerprinting, and the persistent worker pool."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import sweep as sweep_module
from repro.experiments.scenarios import get_scenario, scenario
from repro.experiments.sweep import (
    CellSpec,
    SweepRunner,
    model_fingerprint,
    quick_cells,
    run_cell,
    shared_pool,
    shutdown_shared_pool,
)
from repro.host.io import KiB, MiB

#: A fast noisy-neighbor scenario: two streams on one small SSD.
NOISY = scenario(
    "noisy-under-test", "test-only noisy neighbor",
    devices=("SSD",),
    base={"io_count": 25, "preload": True, "trace": True,
          "ssd_capacity_bytes": 64 * MiB, "essd_capacity_bytes": 96 * MiB},
    streams={
        "victim": {"pattern": "randread", "io_size": 4 * KiB, "queue_depth": 1},
        "neighbor": {"pattern": "randwrite", "io_size": 64 * KiB, "io_count": 15},
    },
    grid={"neighbor.queue_depth": (1, 8)},
    seed=13, seed_mode="derived",
)

#: A fast mixed-fleet scenario: two device families under one clock.
FLEET = scenario(
    "fleet-under-test", "test-only mixed fleet",
    devices=("fleet",),
    base={"pattern": "randwrite", "io_size": 16 * KiB, "queue_depth": 2,
          "io_count": 20, "preload": False, "trace": True,
          "ssd_capacity_bytes": 64 * MiB, "essd_capacity_bytes": 96 * MiB},
    streams={"on-ssd": {"device": "SSD"}, "on-essd2": {"device": "ESSD-2"}},
    seed=19,
)


# ---------------------------------------------------------------------------
# Scenario expansion with streams
# ---------------------------------------------------------------------------

def test_stream_axis_targets_the_named_stream():
    cells = NOISY.cells()
    assert len(cells) == 2
    depths = []
    for cell in cells:
        overrides = dict(dict(cell.streams)["neighbor"])
        depths.append(overrides["queue_depth"])
        victim = dict(dict(cell.streams)["victim"])
        assert victim["queue_depth"] == 1
    assert depths == [1, 8]


def test_unknown_stream_axis_raises():
    bad = scenario("bad-stream-axis", "d", devices=("SSD",),
                   base={"io_count": 5},
                   streams={"a": {}},
                   grid={"nobody.queue_depth": (1,)})
    with pytest.raises(ValueError, match="unknown stream"):
        bad.cells()


def test_stream_cells_roundtrip_through_json_payload():
    cell = NOISY.cells()[0]
    clone = CellSpec.from_document(json.loads(json.dumps(cell.to_document())))
    assert clone == cell
    assert clone.cache_key() == cell.cache_key()


def test_stream_contents_change_the_cache_key():
    cells = NOISY.cells()
    assert cells[0].cache_key() != cells[1].cache_key()
    single = CellSpec(device="SSD", io_count=25)
    assert single.cache_key() != cells[0].cache_key()


def test_quick_cells_shrinks_stream_budgets():
    quick = quick_cells(NOISY.cells(), io_count=10)[0]
    assert quick.io_count == 10
    for _name, overrides in quick.streams:
        fields = dict(overrides)
        if "io_count" in fields:
            assert fields["io_count"] <= 10


# ---------------------------------------------------------------------------
# Multi-stream execution
# ---------------------------------------------------------------------------

def test_noisy_neighbor_cell_reports_streams_and_trace():
    metrics, _ = run_cell(quick_cells(NOISY.cells(), io_count=12)[0])
    assert set(metrics["streams"]) == {"victim", "neighbor"}
    victim = metrics["streams"]["victim"]
    assert victim["device"] == "SSD"
    assert victim["ios_completed"] == 12
    trace = metrics["trace"]
    assert trace["completed_requests"] >= 12
    assert {"queue", "service", "media"} <= set(trace["stages"])
    assert metrics["ios_completed"] == sum(
        s["ios_completed"] for s in metrics["streams"].values())


def test_mixed_fleet_cell_traces_both_device_families():
    metrics, _ = run_cell(FLEET.cells()[0])
    assert {"on-ssd", "on-essd2"} == set(metrics["streams"])
    assert metrics["streams"]["on-ssd"]["device"] == "SSD"
    assert metrics["streams"]["on-essd2"]["device"] == "ESSD-2"
    per_device = metrics["trace"]["devices"]
    assert set(per_device) == {"SSD", "ESSD-2"}
    assert "media" in per_device["SSD"]
    assert "network" in per_device["ESSD-2"]


def test_multi_stream_cells_are_deterministic():
    cell = quick_cells(NOISY.cells(), io_count=10)[0]
    assert run_cell(cell)[0] == run_cell(cell)[0]


def test_traced_single_job_cell_keeps_classic_metrics():
    """trace=True on a single-job cell is additive: the classic metrics
    (series, write amplification, per-direction throughput) survive and a
    breakdown is attached on top."""
    base = dict(device="SSD", pattern="randwrite", io_count=10,
                preload=False, series_bin_us="auto",
                ssd_capacity_bytes=64 * MiB)
    plain, _ = run_cell(CellSpec(**base))
    traced, _ = run_cell(CellSpec(**base, trace=True))
    assert "trace" not in plain
    trace = traced.pop("trace")
    assert traced == plain  # identical physics and schema otherwise
    assert {"series", "write_amplification", "read_throughput_gbps"} <= set(traced)
    assert trace["completed_requests"] == 10
    assert {"queue", "service", "media"} <= set(trace["stages"])


def test_registered_multi_tenant_scenarios_expand():
    noisy = get_scenario("noisy-neighbor")
    assert all(cell.streams for cell in noisy.cells())
    fleet = get_scenario("mixed-fleet")
    devices_used = {dict(overrides).get("device")
                    for cell in fleet.cells()
                    for _name, overrides in cell.streams}
    assert devices_used == {"SSD", "ESSD-1", "ESSD-2"}


def test_serial_and_parallel_identical_for_stream_cells():
    cells = quick_cells(NOISY.cells(), io_count=8)
    serial = SweepRunner(parallel=False).run_cells("noisy", cells)
    parallel = SweepRunner(parallel=True, max_workers=2).run_cells("noisy", cells)
    assert [o.metrics for o in serial.outcomes] == [o.metrics for o in parallel.outcomes]


# ---------------------------------------------------------------------------
# Cache fingerprint
# ---------------------------------------------------------------------------

def test_model_fingerprint_is_stable_within_a_process():
    assert model_fingerprint() == model_fingerprint()
    assert len(model_fingerprint()) == 16


def test_cache_key_tracks_model_fingerprint(monkeypatch):
    cell = CellSpec(device="SSD", io_count=5)
    before = cell.cache_key()
    monkeypatch.setattr(sweep_module, "model_fingerprint", lambda: "deadbeefdeadbeef")
    assert cell.cache_key() != before


def test_model_edit_invalidates_cache_entries(tmp_path, monkeypatch):
    from repro.experiments.sweep import SweepCache
    cache = SweepCache(tmp_path)
    cell = CellSpec(device="SSD", io_count=5)
    cache.store("s", cell, {"iops": 1.0})
    assert cache.load("s", cell) == {"iops": 1.0}
    # A model-source change moves the key -> the old entry is unreachable.
    monkeypatch.setattr(sweep_module, "model_fingerprint", lambda: "0" * 16)
    assert cache.load("s", cell) is None


def test_fingerprint_tracks_the_interpreter_and_numpy(monkeypatch):
    """A cache directory is shared by every interpreter of one checkout,
    and CPython 3.12's compensated float ``sum`` moves fleet metrics, so
    the bytecode tag and the numpy version are part of the fingerprint."""
    import numpy

    compute = model_fingerprint.__wrapped__  # past the per-process memo
    base = compute()
    with monkeypatch.context() as patch:
        patch.setattr(sys.implementation, "cache_tag", "other-interpreter")
        other_interpreter = compute()
    with monkeypatch.context() as patch:
        patch.setattr(numpy, "__version__", "0.0.0")
        other_numpy = compute()
    assert compute() == base
    assert len({base, other_interpreter, other_numpy}) == 3


def test_editing_any_repro_module_turns_the_fingerprint_over(tmp_path):
    """Metrics are computed outside the device models too: ``run_cell``
    and ``_headline`` live in ``experiments/sweep.py`` and ``derive_seed``
    in ``determinism.py``.  A fresh interpreter computes the fingerprint of
    a copy of the package before and after a comment is appended to each
    of those modules."""
    import repro

    copy = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).resolve().parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = ("import repro\n"
              "from repro.experiments.sweep import model_fingerprint\n"
              "print(repro.__file__)\n"
              "print(model_fingerprint())\n")

    def fingerprint() -> str:
        completed = subprocess.run(
            [sys.executable, "-B", "-c", script], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True, text=True, timeout=60, check=True)
        module, digest = completed.stdout.split()
        assert Path(module).resolve().parent == copy.resolve()
        return digest

    fingerprints = [fingerprint()]
    for module in ("experiments/sweep.py", "determinism.py"):
        with open(copy / module, "a") as source:
            source.write("# edited\n")
        fingerprints.append(fingerprint())
    assert len(set(fingerprints)) == 3, fingerprints


def _imported_names(node: ast.AST, package: str) -> list[str]:
    """The modules an import statement may load, relative imports resolved
    against ``package``: ``from a import b`` reads as ``a`` and then
    ``a.b`` (``b`` may be a submodule)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        anchor = ".".join(parts[:len(parts) - node.level + 1])
        base = f"{anchor}.{base}" if base else anchor
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


#: The packages that model devices, workloads and fleets: the layers below
#: the experiment and serve layers.
MODEL_PACKAGES = ("sim", "host", "flash", "ssd", "ebs", "devices", "workload",
                  "metrics", "cluster")


def test_model_packages_never_import_the_orchestration_layers():
    """A layering rule: each layer talks only to the ones below it, so no
    model module imports the experiment or serve layers, which run the
    models and would otherwise become part of every model's import graph
    (and its import cycles).  ``repro.config`` stays allowed -- it only
    converts documents."""
    import repro

    root = Path(repro.__file__).resolve().parent
    forbidden = ("repro.experiments", "repro.serve")
    offenders = []
    for package in MODEL_PACKAGES:
        for source in sorted((root / package).rglob("*.py")):
            relative = source.relative_to(root)
            dotted = ".".join(("repro", *relative.parent.parts))
            for node in ast.walk(ast.parse(source.read_text())):
                hits = [name for name in _imported_names(node, dotted)
                        if any(name == layer or name.startswith(f"{layer}.")
                               for layer in forbidden)]
                if hits:
                    offenders.append(
                        f"{relative.as_posix()}:{node.lineno} {hits[0]}")
    assert offenders == []


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

def test_shared_pool_is_reused_across_runs():
    shutdown_shared_pool()
    try:
        first = shared_pool(2)
        assert shared_pool(2) is first
        assert shared_pool(1) is first  # smaller request reuses the pool
        bigger = shared_pool(3)
        assert bigger is not first  # growth recreates
        assert shared_pool(2) is bigger
    finally:
        shutdown_shared_pool()


def test_runner_uses_one_pool_for_consecutive_sweeps():
    shutdown_shared_pool()
    try:
        cells = quick_cells(NOISY.cells(), io_count=6)
        runner = SweepRunner(parallel=True, max_workers=2)
        runner.run_cells("noisy-a", cells)
        pool_after_first = sweep_module._SHARED_POOL
        assert pool_after_first is not None
        runner.run_cells("noisy-b", cells)
        assert sweep_module._SHARED_POOL is pool_after_first
    finally:
        shutdown_shared_pool()
