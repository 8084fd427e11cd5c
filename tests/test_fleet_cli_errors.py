"""Error paths of the ``fleet`` CLI verb and of fleet documents on every
verb, and approximate-flag plumbing through sweep results and
``diff_results``.

Every malformed input must fail with exit code 2 and a single ``error:``
line on stderr -- never a traceback.  The diff half covers the macro
contract: ``approximate=True`` survives cache round-trips, save/load, and
result diffs, and a macro-vs-macro diff reports zero change (no false
regressions from the approximation itself).
"""

import json

import pytest

from repro.cluster import fleet, group, tenant
from repro.experiments.cli import main as cli_main
from repro.experiments.scenarios import get_scenario, register, scenario
from repro.experiments.sweep import SweepResult, SweepRunner, diff_results

MINI_CAPACITY = 1 << 24


def error_fleet():
    return fleet(
        "cli-errors-under-test",
        groups=[group("web", "LOOP", 3, capacity_bytes=MINI_CAPACITY)],
        tenants=[tenant("t", "web", pattern="randwrite", io_size=4096,
                        queue_depth=1, io_count=10)],
        epoch_us=200.0,
        seed=3,
    )


@pytest.fixture()
def error_scenario():
    spec = scenario(
        "cli-errors-under-test", "test-only error-path fleet",
        devices=("fleet",),
        fleet=error_fleet(),
    )
    register(spec, replace=True)
    return spec


def run_cli(args):
    return cli_main(["fleet", "cli-errors-under-test", "--serial",
                     "--no-cache", *args])


def assert_cli_error(capsys, args, needle):
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert needle in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# --faults error paths
# ---------------------------------------------------------------------------

def test_faults_file_missing_is_a_clean_error(error_scenario, tmp_path,
                                              capsys):
    missing = tmp_path / "nope.json"
    assert_cli_error(capsys, ["--faults", f"@{missing}"],
                     "cannot read --faults file")


def test_faults_malformed_json_is_a_clean_error(error_scenario, tmp_path,
                                                capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert_cli_error(capsys, ["--faults", f"@{bad}"], "bad --faults spec")
    # Inline specs hit the same parser.
    assert_cli_error(capsys, ["--faults", "{not json"], "bad --faults spec")


def test_faults_unknown_group_is_a_clean_error(error_scenario, capsys):
    spec = json.dumps([{"kind": "fail", "group": "nosuch", "at_us": 100.0}])
    assert_cli_error(capsys, ["--faults", spec], "nosuch")


def test_faults_unknown_device_index_is_a_clean_error(error_scenario, capsys):
    spec = json.dumps([{"kind": "fail", "group": "web", "device": 99,
                        "at_us": 100.0}])
    assert_cli_error(capsys, ["--faults", spec], "99")


def test_faults_wrong_spec_shape_is_a_clean_error(error_scenario, capsys):
    assert_cli_error(capsys, ["--faults", json.dumps({"events": 42})],
                     "bad --faults spec")


def test_faults_misspelled_key_is_a_clean_error(error_scenario, capsys):
    # Read leniently, the misspelled "device" left device=None: a failure
    # of every device in the group instead of one.
    spec = json.dumps([{"kind": "fail", "group": "web", "at_us": 100.0,
                        "devcie": 0}])
    assert_cli_error(capsys, ["--faults", spec],
                     "faults[0].devcie: unknown key")


# ---------------------------------------------------------------------------
# --macro error paths
# ---------------------------------------------------------------------------

def test_macro_unknown_group_is_a_clean_error(error_scenario, capsys):
    assert_cli_error(capsys, ["--macro", "nosuch"],
                     "unknown group 'nosuch'")


def test_macro_unknown_mode_is_a_clean_error(error_scenario, capsys):
    assert_cli_error(capsys, ["--macro", "web=quantum"],
                     "unknown group mode 'quantum'")


def test_macro_valid_override_still_succeeds(error_scenario, capsys):
    assert run_cli(["--macro", "web"]) == 0
    assert "error:" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Unknown-scenario and document-path error paths on every verb
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("verb", ["run", "fleet"])
def test_unknown_scenario_lists_known_choices(verb, capsys):
    assert cli_main([verb, "definitely-not-registered"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "unknown scenario" in captured.err
    assert "known:" in captured.err
    assert "fleet-smoke" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("verb", ["run", "fleet"])
def test_invalid_document_path_is_a_clean_error(verb, tmp_path, capsys):
    bad = tmp_path / "bad-fleet.json"
    bad.write_text(json.dumps({"kind": "fleet", "name": "bad",
                               "groups": [{"name": "g", "device": "LOOP",
                                           "count": -1}]}))
    assert cli_main([verb, str(bad)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "groups[0].count: expected positive int" in captured.err
    assert "Traceback" not in captured.err


def typo_axis_document(tmp_path):
    """A scenario document whose grid axis misspells the group key
    ``count`` as ``cont``, alone in its own directory."""
    directory = tmp_path / "documents"
    directory.mkdir()
    path = directory / "typo-axis.json"
    path.write_text(json.dumps({
        "kind": "scenario", "name": "typo-axis-under-test",
        "fleet": error_fleet().to_document(kind=None),
        "grid": {"fleet.web.cont": [1, 2]}}))
    return path


@pytest.mark.parametrize("argv", [["validate"], ["run", "--no-cache"]])
def test_misspelled_fleet_axis_is_a_clean_error(argv, tmp_path, capsys):
    path = typo_axis_document(tmp_path)
    assert cli_main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error:")
    assert "fleet.groups[0].cont: unknown key" in line


def test_list_survives_a_misspelled_fleet_axis(tmp_path, monkeypatch,
                                               capsys):
    from repro.experiments import scenarios

    monkeypatch.setattr(scenarios, "_REGISTRY", dict(scenarios._REGISTRY))
    monkeypatch.setenv("REPRO_SCENARIO_PATH",
                       str(typo_axis_document(tmp_path).parent))
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "typo-axis-under-test" in out
    assert "fleet-smoke" in out


# ---------------------------------------------------------------------------
# Job fields: typed wherever a document declares a job, on every verb
# ---------------------------------------------------------------------------

def job_scenario(name, base=None, **keys):
    return {"kind": "scenario", "name": name,
            "devices": keys.pop("devices", ["LOOP"]),
            "base": {"pattern": "randread", "io_count": 5, **(base or {})},
            **keys}


def job_fleet(name, workload):
    return {"kind": "fleet", "name": name,
            "groups": [{"name": "g", "device": "LOOP", "count": 1,
                        "capacity_bytes": MINI_CAPACITY}],
            "tenants": [{"name": "t", "group": "g", "workload": workload}]}


#: ``(document, the error's field path and message, whether the scenario
#: reads and only its cells fail)``.  Each passed ``validate`` and died in
#: ``run`` with a traceback (or, for the NaN think time, ran as if it
#: were 0, and for the trace cell with streams, dropped the streams)
#: before job fields were typed everywhere and every job was checked to
#: run.
BAD_JOB_DOCUMENTS = {
    "base-io-size": (job_scenario("base-io-size", {"io_size": "big"}),
                     "base.io_size: expected positive int", False),
    "base-think-nan": (job_scenario("base-think-nan",
                                    {"think_time_us": float("nan")}),
                       "base.think_time_us: expected finite number", False),
    "grid-queue-depth": (job_scenario("grid-queue-depth",
                                      grid={"queue_depth": [1, "two"]}),
                         "queue_depth: expected positive int", True),
    "stream-queue-depth": (job_scenario(
        "stream-queue-depth", streams={"a": {"queue_depth": "deep"}}),
        "streams.a.queue_depth: expected positive int", False),
    "stream-device": (job_scenario("stream-device",
                                   streams={"a": {"device": "SDD"}}),
                      "streams.a.device: unknown device 'SDD'", True),
    "tenant-io-size": (job_fleet("tenant-io-size", {
        "pattern": "randread", "io_count": 5, "io_size": "big"}),
        "tenants[0].workload.io_size: expected positive int", False),
    "ssd-device-params": (job_scenario("ssd-device-params",
                                       {"device_params": {"bogus": 1}},
                                       devices=["SSD"]),
                          "device_params.bogus: not a profile field of 'SSD'",
                          True),
    "pattern-typo": (job_scenario("pattern-typo", {"pattern": "randwirte"}),
                     "base.pattern: unknown pattern 'randwirte'", False),
    "trace-typo": (job_scenario("trace-typo", {"pattern": "trace-nope"}),
                   "base.pattern: unknown pattern 'trace-nope'", False),
    # Only a cell's own pattern replays a trace, and then runs no streams.
    "stream-trace": (job_scenario(
        "stream-trace", streams={"a": {"pattern": "trace-bursty"}}),
        "streams.a.pattern: unknown pattern 'trace-bursty': only a cell's "
        "own pattern replays a trace", False),
    "tenant-trace": (job_fleet("tenant-trace", {"pattern": "trace-bursty",
                                                "io_count": 5}),
                     "tenants[0].workload.pattern: unknown pattern "
                     "'trace-bursty'", False),
    "trace-with-streams": (job_scenario(
        "trace-with-streams",
        {"pattern": "trace-uniform", "io_size": 4096,
         "pattern_params": {"duration_us": 2000.0, "load_gbps": 0.1}},
        streams={"a": {"pattern": "randwrite", "io_count": 5}}),
        "streams: pattern 'trace-uniform' replays a trace, which runs no "
        "streams", True),
    # A mixed pattern needs a write ratio in [0, 1].
    "mixed-no-ratio": (job_scenario("mixed-no-ratio", {"pattern": "randrw"}),
                       "write_ratio: expected a number in [0, 1] for the "
                       "mixed pattern 'randrw'", True),
    "mixed-high-ratio": (job_scenario("mixed-high-ratio",
                                      {"pattern": "randrw",
                                       "write_ratio": 1.5}),
                         "write_ratio: expected a number in [0, 1] for the "
                         "mixed pattern 'randrw', got 1.5", True),
    "stream-mixed": (job_scenario("stream-mixed",
                                  streams={"a": {"pattern": "bursty-zipfrw"}}),
                     "streams.a.write_ratio: expected a number in [0, 1] for "
                     "the mixed pattern 'bursty-zipfrw'", True),
    "tenant-mixed": (job_fleet("tenant-mixed", {"pattern": "randrw",
                                                "io_count": 5}),
                     "tenants[0].workload.write_ratio: expected a number in "
                     "[0, 1] for the mixed pattern 'randrw'", False),
}


def write_job_document(tmp_path, case):
    """The case's document alone in its own directory, as YAML (which,
    unlike JSON, has a NaN literal)."""
    yaml = pytest.importorskip("yaml")
    directory = tmp_path / "documents"
    directory.mkdir()
    path = directory / f"{case}.yaml"
    path.write_text(yaml.safe_dump(BAD_JOB_DOCUMENTS[case][0]))
    return path


@pytest.mark.parametrize("case", sorted(BAD_JOB_DOCUMENTS))
@pytest.mark.parametrize("argv", [["validate"],
                                  ["run", "--serial", "--no-cache"]])
def test_mistyped_job_field_is_one_clean_error(case, argv, tmp_path, capsys):
    path = write_job_document(tmp_path, case)
    assert cli_main([argv[0], str(path), *argv[1:]]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")
    assert BAD_JOB_DOCUMENTS[case][1] in line
    if argv[0] == "validate":
        assert str(path) in line


@pytest.mark.parametrize("case", sorted(BAD_JOB_DOCUMENTS))
def test_list_shows_a_mistyped_job_field(case, tmp_path, monkeypatch,
                                         capsys):
    """A scenario whose cells cannot expand lists with ``?`` cells; one
    that cannot be read is skipped with a warning naming the field."""
    from repro.experiments import scenarios

    monkeypatch.setattr(scenarios, "_REGISTRY", dict(scenarios._REGISTRY))
    path = write_job_document(tmp_path, case)
    monkeypatch.setenv("REPRO_SCENARIO_PATH", str(path.parent))
    assert cli_main(["list"]) == 0
    captured = capsys.readouterr()
    if BAD_JOB_DOCUMENTS[case][2]:
        [row] = [line for line in captured.out.splitlines()
                 if line.startswith(f"{case} ")]
        assert row.split()[1] == "?"
    else:
        assert case not in captured.out
        assert f"skipped scenario document {path}" in captured.err
        assert BAD_JOB_DOCUMENTS[case][1] in captured.err


# ---------------------------------------------------------------------------
# Execution flags vs a document's run: block (one rule on run and fleet)
# ---------------------------------------------------------------------------

def run_block_document(tmp_path, **run) -> str:
    """The fleet-smoke scenario as a document whose ``run:`` block sets
    ``shards: 2`` plus ``run``."""
    document = get_scenario("fleet-smoke").to_document()
    document["run"] = {"shards": 2, **run}
    path = tmp_path / "fleet-smoke-run.json"
    path.write_text(json.dumps(document))
    return str(path)


def assert_run_block_conflict(capsys, argv, needle):
    assert cli_main([*argv, "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert f"error: {needle} contradicts the scenario document" \
        in captured.err
    assert "Traceback" not in captured.err


def test_run_transport_flag_contradicting_document_is_an_error(tmp_path,
                                                               capsys):
    # On run, --serial only keeps the sweep pool in-process; --transport
    # still has to agree with the document.
    path = run_block_document(tmp_path, transport="local")
    assert_run_block_conflict(
        capsys, ["run", path, "--serial", "--transport", "executor"],
        "run.transport: --transport executor")


def test_fleet_serial_contradicting_document_transport_is_an_error(
        tmp_path, capsys):
    # On fleet, --serial counts as --transport local.
    path = run_block_document(tmp_path, transport="executor")
    assert_run_block_conflict(capsys, ["fleet", path, "--serial"],
                              "run.transport: --serial")


def test_fleet_transport_flag_contradicting_document_is_an_error(tmp_path,
                                                                 capsys):
    path = run_block_document(tmp_path, transport="local")
    assert_run_block_conflict(capsys,
                              ["fleet", path, "--transport", "executor"],
                              "run.transport: --transport executor")


@pytest.mark.parametrize("verb", ["run", "fleet"])
def test_shards_flag_contradicting_document_is_an_error(verb, tmp_path,
                                                        capsys):
    path = run_block_document(tmp_path)
    assert_run_block_conflict(capsys, [verb, path, "--shards", "3"],
                              "run.shards: --shards 3")


@pytest.mark.parametrize("shards", [1, 2])
def test_a_run_block_field_at_its_default_still_contradicts_a_flag(
        shards, tmp_path, capsys):
    """``run: {shards: 1}`` sets ``shards`` as much as ``shards: 2`` does,
    so ``--shards 3`` contradicts both with the same line."""
    path = tmp_path / "two-loops.json"
    path.write_text(json.dumps({
        "kind": "fleet", "name": "two-loops",
        "groups": [{"name": "web", "device": "LOOP", "count": 2,
                    "capacity_bytes": MINI_CAPACITY}],
        "tenants": [{"name": "t", "group": "web",
                     "workload": {"pattern": "randread", "io_count": 5}}],
        "run": {"shards": shards}}))
    assert cli_main(["fleet", str(path), "--shards", "3", "--serial",
                     "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: run.shards: --shards 3 contradicts the scenario document's "
        f"run.shards = {shards} (drop the flag or edit the document)\n")


# ---------------------------------------------------------------------------
# serve/submit endpoint validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("verb", ["serve", "submit"])
@pytest.mark.parametrize("endpoint", [
    [],                                     # neither transport
    ["--socket", "/tmp/x.sock", "--port", "1"],  # both transports
])
def test_endpoint_must_be_exactly_one_transport(verb, endpoint, capsys):
    args = [verb] if verb == "serve" else [verb, "fleet-smoke"]
    assert cli_main([*args, *endpoint]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "exactly one of --socket" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# approximate=True through sweep results and diff_results
# ---------------------------------------------------------------------------

def _macro_sweep(tmp_path, name, macro):
    topology = error_fleet()
    if macro:
        topology = topology.with_modes({"web": "macro"})
    spec = scenario(name, "test-only diff fleet", devices=("fleet",),
                    fleet=topology)
    register(spec, replace=True)
    runner = SweepRunner(cache_dir=tmp_path / name)
    return runner.run_cells(spec.name, spec.cells())


def test_approximate_flag_survives_cache_save_load_and_diff(tmp_path):
    macro = _macro_sweep(tmp_path, "diff-macro-under-test", macro=True)
    exact = _macro_sweep(tmp_path, "diff-exact-under-test", macro=False)

    flagged = macro.outcomes[0].metrics
    assert flagged["approximate"] is True
    assert flagged["fleet"]["fleet"]["approximate"] is True
    assert "approximate" not in exact.outcomes[0].metrics

    # Save/load round-trip keeps the flag bit-exact.
    path = tmp_path / "macro-result.json"
    macro.save(path)
    reloaded = SweepResult.load(path)
    assert reloaded.outcomes[0].metrics == flagged

    # A macro run diffed against itself reports zero change everywhere:
    # the approximation flag must not read as a regression.
    rows = diff_results(macro, reloaded, metric="throughput_gbps")
    assert rows and all(row["relative_change"] == 0.0 for row in rows)

    # Macro vs discrete is a *different* cell (mode is part of the
    # topology, hence the cache key), so the diff reports both sides as
    # unmatched rather than inventing a regression.
    rows = diff_results(exact, macro, metric="throughput_gbps")
    assert all(row["relative_change"] is None for row in rows)


def test_cached_macro_rerun_is_a_cache_hit_with_flag_intact(tmp_path):
    first = _macro_sweep(tmp_path, "diff-cache-under-test", macro=True)
    second = _macro_sweep(tmp_path, "diff-cache-under-test", macro=True)
    assert first.cache_hits == 0
    assert second.cache_hits == len(second.outcomes)
    assert second.outcomes[0].metrics["approximate"] is True
    assert second.outcomes[0].metrics == first.outcomes[0].metrics


def test_diff_folds_a_saved_fleet_cells_faults_or_refuses_them_in_one_line(
        tmp_path, capsys):
    """A result file stores each cell as its document, so a saved fleet
    cell with ``faults`` beside its topology reads as any cell document
    does: the schedule folds into the topology, and one that does not fit
    the fleet makes ``diff`` say so in one line, exit 2."""
    result = _macro_sweep(tmp_path, "diff-faults-under-test", macro=False)
    path = tmp_path / "sweep.json"
    result.save(path)
    document = json.loads(path.read_text())
    schedule = [{"kind": "fail", "group": "web", "at_us": 1.0}]
    document["cells"][0]["cell"]["faults"] = schedule
    path.write_text(json.dumps(document))
    [outcome] = SweepResult.load(path).outcomes
    assert outcome.cell.faults is None
    assert json.loads(outcome.cell.fleet)["faults"] == schedule
    assert cli_main(["diff", str(path), str(path), "--fail-on-change"]) == 0
    capsys.readouterr()
    schedule[0]["group"] = "nosuch"
    path.write_text(json.dumps(document))
    assert cli_main(["diff", str(path), str(path)]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: not a sweep-result file")
    assert "cells[0].cell.faults" in line and "unknown group 'nosuch'" in line
