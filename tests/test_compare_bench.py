"""Unit tests for the CI benchmark-regression gate (compare_bench.py)."""

import json

import pytest

from benchmarks import compare_bench


def write_artifacts(directory, batched_tasks=40.0, task_cut=11.0,
                    macro_errs=(0.01, 0.03, 0.04), macro_speedup=50.0,
                    speedup_2=1.5, efficiency_4=0.8,
                    scaling_informational=False):
    (directory / "BENCH_fleet.json").write_text(json.dumps({
        "coordination": {
            "task_cut": task_cut,
            "variants": {"batched": {"tasks_per_sim_second": batched_tasks}},
        },
        "shards": {
            "2": {
                "speedup_vs_serial": speedup_2,
                "scaling_informational": scaling_informational,
            },
            "4": {
                "scaling_efficiency": efficiency_4,
                "scaling_informational": scaling_informational,
            },
        },
    }))
    p50_err, p95_err, throughput_err = macro_errs
    (directory / "BENCH_macro.json").write_text(json.dumps({
        "validation": {
            "max_p50_err": p50_err,
            "max_p95_err": p95_err,
            "max_throughput_err": throughput_err,
        },
        "speedup": {"macro_vs_discrete": macro_speedup},
    }))


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baselines"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    return baseline, current


def test_identical_artifacts_pass(dirs):
    baseline, current = dirs
    write_artifacts(baseline)
    write_artifacts(current)
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current)]) == 0


def test_within_tolerance_passes_and_improvement_passes(dirs):
    baseline, current = dirs
    write_artifacts(baseline)
    # A 5% smaller task cut and 7.5% more tasks stay inside the 10% band;
    # a faster macro speedup is an improvement.
    write_artifacts(current, batched_tasks=43.0, task_cut=10.45,
                    macro_speedup=60.0)
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current)]) == 0


def test_higher_is_better_regression_fails(dirs):
    baseline, current = dirs
    write_artifacts(baseline)
    write_artifacts(current, task_cut=8.47)  # task cut -23%
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "REGRESSED"]
    assert len(bad) == 1 and bad[0]["metric"].endswith("task_cut")
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current)]) == 1


def test_lower_is_better_regression_fails(dirs):
    baseline, current = dirs
    write_artifacts(baseline)
    # Coordination traffic ballooned 50%: a batching regression.
    write_artifacts(current, batched_tasks=60.0)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "REGRESSED"]
    assert bad[0]["metric"].endswith("tasks_per_sim_second")


def test_macro_error_envelope_widening_fails(dirs):
    baseline, current = dirs
    write_artifacts(baseline)
    # The macro approximation drifted: p50 error doubled past the band.
    write_artifacts(current, macro_errs=(0.02, 0.03, 0.04))
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "REGRESSED"]
    assert len(bad) == 1 and bad[0]["metric"].endswith("max_p50_err")


def test_macro_speedup_collapse_fails(dirs):
    baseline, current = dirs
    write_artifacts(baseline)
    write_artifacts(current, macro_speedup=4.0)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "REGRESSED"]
    assert len(bad) == 1 and bad[0]["metric"].endswith("macro_vs_discrete")


def test_missing_current_artifact_fails_loudly(dirs):
    baseline, current = dirs
    write_artifacts(baseline)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == len(compare_bench.TRACKED) + \
        len(compare_bench.FLOORS)
    assert all(row["status"] == "MISSING" for row in rows)


def test_zero_baseline_fails_instead_of_passing_vacuously(dirs):
    baseline, current = dirs
    write_artifacts(baseline, task_cut=0.0)
    write_artifacts(current, task_cut=0.0)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "BAD-BASELINE"]
    assert len(bad) == 1 and bad[0]["metric"].endswith("task_cut")


def test_missing_baseline_metric_reports_new_and_passes(dirs):
    baseline, current = dirs
    write_artifacts(current)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 0
    # Relative gates report "new"; the absolute floors need no baseline
    # and gate (or pass) on the fixed target regardless.
    tracked = rows[:len(compare_bench.TRACKED)]
    floors = rows[len(compare_bench.TRACKED):]
    assert all(row["status"] == "new" for row in tracked)
    assert all(row["status"] == "ok" for row in floors)


def test_scaling_floor_gates_capable_hosts(dirs):
    baseline, current = dirs
    write_artifacts(baseline)
    # A multi-core host (informational flag off) that lost its scaling:
    # efficiency 0.4 is below the 0.7 floor.
    write_artifacts(current, efficiency_4=0.4)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 1
    bad = [row for row in rows if row["status"] == "BELOW-FLOOR"]
    assert len(bad) == 1
    assert bad[0]["metric"] == "shards.4.scaling_efficiency"


def test_scaling_floor_is_informational_on_small_hosts(dirs):
    baseline, current = dirs
    write_artifacts(baseline)
    # The same terrible numbers, but the artifact says cpu_count < shards:
    # the floor reports info-only instead of failing the 1-core runner.
    write_artifacts(current, efficiency_4=0.1,
                    speedup_2=0.3, scaling_informational=True)
    rows, regressions = compare_bench.compare(baseline, current, 0.10)
    assert regressions == 0
    info = [row for row in rows if row["status"] == "info-only"]
    assert len(info) == len(compare_bench.FLOORS)


def test_summary_markdown_is_appended(dirs, tmp_path):
    baseline, current = dirs
    write_artifacts(baseline)
    write_artifacts(current, task_cut=8.47)
    summary = tmp_path / "summary.md"
    assert compare_bench.main(["--baseline-dir", str(baseline),
                               "--current-dir", str(current),
                               "--summary", str(summary)]) == 1
    text = summary.read_text()
    assert "| metric |" in text and "REGRESSED" in text and "FAIL" in text


def test_committed_baselines_cover_every_tracked_metric():
    """The real benchmarks/baselines/ artifacts must expose every tracked
    metric -- otherwise the gate silently loses coverage."""
    for artifact, metric, _direction in compare_bench.TRACKED:
        payload = compare_bench.load_artifact(compare_bench.BASELINE_DIR,
                                              artifact)
        assert payload is not None, f"missing baseline {artifact}"
        assert compare_bench.lookup(payload, metric) is not None, \
            f"{artifact} baseline lacks {metric}"
