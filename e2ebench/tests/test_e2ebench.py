"""Tests for the benchmark's metric extraction and digest canonicalisation.

Run with ``python3 -m pytest e2ebench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from e2ebench import calibrate, digest, report, steady
from e2ebench.layers import PACKAGES, Sampler, Spans, package_of
from e2ebench.workloads import DEFAULT_SEED, WORKLOADS, Iteration, bench_seed

ROOT = Path(__file__).resolve().parents[2]


def tiny_topology(seed: int = 5):
    """Two mirrored SSD groups of two small devices each: a fleet with a
    replication edge that runs in well under a second."""
    from repro.cluster import edge, fleet, group, tenant

    return fleet(
        "tiny",
        groups=[group("a", "SSD", 2, capacity_bytes=32 * 2**20),
                group("b", "SSD", 2, capacity_bytes=32 * 2**20)],
        tenants=[tenant("w", "a", pattern="randwrite", io_size=16384,
                        queue_depth=2, io_count=40)],
        edges=[edge("a", "b")],
        epoch_us=500.0,
        seed=seed,
    )


# -- summaries and the result line -------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert report.quartiles(values) == (1.5, 3.0, 4.5)
    assert report.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarise_reports_median_quartiles_and_count():
    summary = report.summarise({"wall_s": [1.0, 2.0, 3.0, 4.0]})
    assert summary["wall_s"] == {"median": 2.5, "q1": 1.25, "q3": 3.75, "n": 4}


def test_end_to_end_samples_derive_rates_and_ok_fraction():
    iterations = [Iteration(wall_s=2.0, first_result_s=0.5, ios=100),
                  Iteration(wall_s=4.0, first_result_s=1.0, ios=100)]
    samples = report.end_to_end_samples(iterations, [0.3, 0.4], 80.0,
                                        attempted=10, failed=1)
    assert set(samples) == set(report.END_TO_END)
    assert samples["ios_per_s"] == [50.0, 25.0]
    assert samples["first_result_s"] == [0.5, 1.0]
    assert samples["setup_s"] == [0.3, 0.4]
    assert samples["ok_frac"] == [0.9]


def test_result_line_has_exactly_the_contract_keys():
    values = {name: 1.5 for name in report.END_TO_END}
    line = json.loads(report.result_line(4, 0, values, report.END_TO_END))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] is True
    assert line["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}
    assert set(line["metrics"]) == set(report.END_TO_END)
    failed = json.loads(report.result_line(4, 1, values, report.END_TO_END))
    assert failed["correct"] is False


def test_benchmark_json_lists_every_metric_with_its_unit():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} \
        == report.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} \
        == report.PER_LAYER
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)


# -- host-speed scaling and the steadiness check ---------------------------------

def test_probe_times_the_yardstick_in_a_child_process():
    assert 0.0 < calibrate.probe() < 1.0


def test_timer_scales_each_step_by_its_own_probes(monkeypatch):
    probes = iter([0.009, 0.0045])
    monkeypatch.setattr(calibrate, "probe", lambda: next(probes))
    timer = calibrate.Timer(calibrate.REFERENCE_PROBE_S)
    time.sleep(0.05)
    first = timer.lap()  # probes 0.0045 then 0.009: factor 2/3
    assert first == pytest.approx(timer.raw * 2 / 3)
    time.sleep(0.05)
    total = timer.lap()  # probes 0.009 then 0.0045: factor 2/3
    assert total == pytest.approx(timer.raw * 2 / 3)
    assert timer.raw >= 0.1


def test_steady_agreement_is_two_sided():
    assert steady.change(2.0, 1.2) == pytest.approx(-0.4)
    assert steady.change(2.0, 2.5) == pytest.approx(0.25)
    assert steady.spread([1.0, 1.0, 1.0, 1.0])[1] == 0.0


# -- correctness accounting ---------------------------------------------------

def test_check_digests_counts_every_unit_against_the_reference():
    good = Iteration(1.0, 0.5, 1, verdicts=[("obs", True)], digests=["a", "b"])
    bad = Iteration(1.0, 0.5, 1, verdicts=[("obs", False)], digests=["a", "x"])
    assert report.check_digests([good], ["a", "b"])[:2] == (3, 0)
    attempted, failed, failures = report.check_digests([good, bad], ["a", "b"])
    assert (attempted, failed) == (6, 2)
    assert any("digest 1" in failure for failure in failures)


def test_check_digests_without_reference_requires_repeats_to_agree():
    first = Iteration(1.0, 0.5, 1, digests=["a"])
    assert report.check_digests([first, first], None)[:2] == (2, 0)
    drifted = Iteration(1.0, 0.5, 1, digests=["z"])
    assert report.check_digests([first, drifted], None)[:2] == (2, 1)


def test_check_digests_fails_missing_or_extra_units():
    short = Iteration(1.0, 0.5, 1, digests=["a"])
    assert report.check_digests([short], ["a", "b"])[:2] == (2, 1)
    assert report.check_digests([short], [])[:2] == (1, 1)


# -- digest canonicalisation ----------------------------------------------------

def test_canonical_form_ignores_key_order_and_tuple_versus_list():
    assert digest.sha256_of({"b": (1, 2), "a": 0.5}) \
        == digest.sha256_of({"a": 0.5, "b": [1, 2]})


def test_canonical_form_sees_the_last_float_digit():
    assert digest.sha256_of({"x": 0.1 + 0.2}) != digest.sha256_of({"x": 0.3})


def test_fleet_digest_ignores_only_the_runtime_section():
    payload = {"fleet": {"ios_completed": 10}, "runtime": {"wall_s": 1.0}}
    other_run = {"fleet": {"ios_completed": 10}, "runtime": {"wall_s": 9.0}}
    changed = {"fleet": {"ios_completed": 11}, "runtime": {"wall_s": 1.0}}
    assert digest.fleet_digest(payload) == digest.fleet_digest(other_run)
    assert digest.fleet_digest(payload) != digest.fleet_digest(changed)


def test_tiny_fleet_digest_is_layout_independent_and_seed_sensitive():
    from repro.cluster import FleetRunConfig, run_fleet

    serial = run_fleet(tiny_topology(), FleetRunConfig())
    split = run_fleet(tiny_topology(), FleetRunConfig(shards=2, transport="local"))
    assert serial["runtime"]["shards"] != split["runtime"]["shards"]
    assert digest.fleet_digest(serial) == digest.fleet_digest(split)
    reseeded = run_fleet(tiny_topology(seed=bench_seed(5, 3)), FleetRunConfig())
    assert digest.fleet_digest(reseeded) != digest.fleet_digest(serial)


def test_committed_digests_cover_every_workload():
    committed = digest.load_committed()
    assert set(committed) == set(WORKLOADS)
    assert all(len(units) >= 2 for units in committed.values())


def test_bench_seed_keeps_registered_seeds_at_the_default():
    assert bench_seed(101, DEFAULT_SEED) == 101
    assert bench_seed(101, 7) == bench_seed(101, 7) != bench_seed(101, 8)


# -- per-layer instruments --------------------------------------------------------

def test_spans_measure_a_tiny_fleet_and_uninstall_cleanly():
    import repro.cluster.coordinator as coordinator
    from repro.cluster import FleetRunConfig, run_fleet
    from repro.sim.engine import Simulator

    original_run = Simulator.run
    original_merge = coordinator.merge_shard_payloads
    spans = Spans().install()
    try:
        run_fleet(tiny_topology(), FleetRunConfig(shards=2, transport="local"))
    finally:
        spans.uninstall()
    assert Simulator.run is original_run
    assert coordinator.merge_shard_payloads is original_merge
    values = spans.metrics(1)
    assert values["sim.events"] > 0 and values["sim.run_s"] > 0
    assert values["ssd.build_s"] > 0
    assert values["workload.ios"] == 2 * 40  # the tenant runs on both "a" devices
    assert values["cluster.rounds"] >= 1 and values["cluster.tasks"] >= 2
    assert values["cluster.replica_messages"] > 0  # the edge crosses shards
    assert values["cluster.merge_s"] > 0
    assert values["ssd.write_amplification"] >= 1.0
    assert values["core.obs1_s"] == 0.0


def test_spans_leave_out_host_speed_probes():
    spans = Spans()
    spans._timed("core.obs1_s", calibrate.probe)()
    assert 0.0 <= spans.totals["core.obs1_s"] < 0.02


def test_package_of_maps_files_to_repro_subpackages():
    src = ROOT / "src" / "repro"
    assert package_of(str(src / "sim" / "engine.py"), src) == "sim"
    assert package_of(str(src / "determinism.py"), src) == "repro"
    assert package_of(json.__file__, src) == "external"
    assert package_of(__file__, src) is None  # the benchmark's own code
    assert set(PACKAGES) >= {"sim", "ssd", "cluster", "serve", "external"}


def test_sampler_charges_cpu_time_to_the_running_package():
    sampler = Sampler(ROOT / "src" / "repro").start()

    def spin():  # json's encoder is code outside repro and the benchmark
        end = time.thread_time() + 0.2
        while time.thread_time() < end:
            json.JSONEncoder().encode(list(range(200)))

    worker = threading.Thread(target=spin)
    worker.start()
    worker.join(timeout=10)
    idle = threading.Event()
    waiter = threading.Thread(target=idle.wait, args=(0.1,))
    waiter.start()
    waiter.join(timeout=10)
    sampler.stop()
    assert sampler.totals["external"] == pytest.approx(0.2, rel=0.5)
    assert sum(sampler.totals.values()) < 0.5
