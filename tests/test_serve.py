"""Integration tests for the experiment service (repro.serve).

The core contracts under test:

* **Bit-identity** -- a fleet defined only as a document, submitted to a
  running server over a unix socket, produces metrics byte-identical to an
  independent batch run of the same document, hits the same sweep-cache
  key, and ``diff_results`` between the two runs is clean.
* **Streaming** -- watchers receive ``started``, one ``cell`` per finished
  cell, and a terminal ``done`` carrying the full result list; late
  watchers get the buffered history replayed.
* **Concurrency** -- two submissions of distinct scenarios on a
  two-worker server both complete, with interleaved event streams
  (observable through the server-global ``seq``).
* **Admission control** -- submissions beyond ``max_pending`` are rejected
  immediately with a reason.

Every server runs on a pytest tmp_path unix socket (or an ephemeral TCP
port) and is torn down via the context manager, so the suite never leaks
threads or sockets past a test -- teardown is deterministic and bounded.
"""

import json
import threading

import pytest

from repro.cluster import (
    FleetCoordinator,
    FleetRunConfig,
    FleetTopology,
    fleet,
    group,
    tenant,
)
from repro.config import scenario_for_document, topology_to_document
from repro.experiments.scenarios import register, scenario
from repro.experiments.sweep import (
    CellOutcome,
    SweepResult,
    SweepRunner,
    diff_results,
)
from repro.serve import ExperimentServer, ServeClient

MINI_CAPACITY = 1 << 24


def loop_fleet(name: str, io_count: int = 400, count: int = 3,
               seed: int = 17) -> FleetTopology:
    return fleet(
        name,
        groups=[group("grp", "LOOP", count, capacity_bytes=MINI_CAPACITY)],
        tenants=[tenant("t", "grp", pattern="randwrite", io_size=4096,
                        queue_depth=4, io_count=io_count)],
        seed=seed,
    )


def fleet_document(name: str, **kwargs) -> dict:
    return topology_to_document(loop_fleet(name, **kwargs))


@pytest.fixture
def server(tmp_path):
    instance = ExperimentServer(socket_path=tmp_path / "serve.sock",
                                cache_dir=tmp_path / "serve-cache",
                                job_workers=2, max_pending=4)
    with instance:
        yield instance


def client_for(server: ExperimentServer) -> ServeClient:
    return ServeClient(socket_path=server.socket_path, timeout=60.0)


# ---------------------------------------------------------------------------
# Protocol basics
# ---------------------------------------------------------------------------

def test_ping(server):
    with client_for(server) as client:
        response = client.ping()
    assert response["ok"]
    assert response["event"] == "pong"
    assert response["max_pending"] == 4


def test_unknown_op_reports_choices(server):
    with client_for(server) as client:
        response = client.request({"op": "frobnicate"})
    assert not response["ok"]
    assert "submit" in response["reason"]


def test_unknown_scenario_rejected_with_known_list(server):
    with client_for(server) as client:
        response = client.submit(scenario="no-such-scenario")
    assert not response["ok"]
    assert response["event"] == "rejected"
    assert "known" in response["reason"]


def test_invalid_document_rejected_with_path(server):
    doc = fleet_document("broken")
    doc["groups"][0]["count"] = 0
    with client_for(server) as client:
        response = client.submit(document=doc)
    assert not response["ok"]
    assert "groups[0].count: expected positive int" in response["reason"]


@pytest.mark.parametrize("kind", ["scenario", "fleet"])
@pytest.mark.parametrize("name", ["..", "absolute"])
def test_document_named_outside_the_cache_is_rejected(server, tmp_path,
                                                      kind, name):
    """A scenario's name is its sweep-cache directory, so a submitted
    document whose name would leave the cache is rejected before it
    queues, and nothing outside the cache is touched."""
    victim = tmp_path / "victim"
    (victim / "src").mkdir(parents=True)
    name = str(victim) if name == "absolute" else name
    document = (loop_scenario(name) if kind == "scenario"
                else fleet_document(name))
    with client_for(server) as client:
        response = client.submit(document=document)
        assert response["event"] == "rejected"
        assert "is not one path component" in response["reason"]
        assert client.ping()["ok"]
    assert [entry.name for entry in victim.iterdir()] == ["src"]
    assert not (tmp_path / "serve-cache").exists() \
        or list((tmp_path / "serve-cache").iterdir()) == []


def test_misspelled_fleet_axis_rejected_with_path(server):
    # The axis edits the topology document, so the one topology reader
    # rejects it; the connection thread stays alive to answer.
    document = {"kind": "scenario", "name": "typo-axis",
                "fleet": fleet_document("typo-axis"),
                "grid": {"fleet.grp.cont": [1, 2]}}
    with client_for(server) as client:
        response = client.submit(document=document)
        assert response["event"] == "rejected"
        assert "fleet.groups[0].cont: unknown key" in response["reason"]
        assert client.ping()["ok"]


def loop_scenario(name: str, **keys) -> dict:
    return {"kind": "scenario", "name": name, "devices": ["LOOP"],
            "base": {"pattern": "randread", "io_count": 5}, **keys}


@pytest.mark.parametrize("document, reason", [
    (loop_scenario("s", base={"io_count": 5, "io_size": "big"}),
     "document.base.io_size: expected positive int"),
    (loop_scenario("s", base={"io_count": 5, "think_time_us": float("nan")}),
     "document.base.think_time_us: expected finite number"),
    (loop_scenario("s", grid={"queue_depth": [1, "two"]}),
     "queue_depth: expected positive int"),
    (loop_scenario("s", streams={"a": {"queue_depth": "deep"}}),
     "document.streams.a.queue_depth: expected positive int"),
    (loop_scenario("s", streams={"a": {"device": "SDD"}}),
     "streams.a.device: unknown device 'SDD'"),
    (loop_scenario("s", devices=["SSD"],
                   base={"io_count": 5, "device_params": {"bogus": 1}}),
     "device_params.bogus: not a profile field of 'SSD'"),
    (loop_scenario("s", base={"io_count": 5, "pattern": "randwirte"}),
     "document.base.pattern: unknown pattern 'randwirte'"),
    (loop_scenario("s", base={"io_count": 5, "pattern": "trace-nope"}),
     "document.base.pattern: unknown pattern 'trace-nope'"),
    (loop_scenario("s", streams={"a": {"pattern": "trace-bursty"}}),
     "document.streams.a.pattern: unknown pattern 'trace-bursty'"),
    (loop_scenario("s", base={"pattern": "trace-uniform", "io_size": 4096},
                   streams={"a": {"pattern": "randwrite", "io_count": 5}}),
     "streams: pattern 'trace-uniform' replays a trace, which runs no "
     "streams"),
    (loop_scenario("s", base={"pattern": "randrw", "io_count": 5}),
     "write_ratio: expected a number in [0, 1] for the mixed pattern "
     "'randrw'"),
    (loop_scenario("s", base={"pattern": "randrw", "io_count": 5,
                              "write_ratio": 1.5}),
     "write_ratio: expected a number in [0, 1] for the mixed pattern "
     "'randrw', got 1.5"),
])
def test_mistyped_job_field_rejected_with_path(server, document, reason):
    with client_for(server) as client:
        response = client.submit(document=document)
    assert response["event"] == "rejected"
    assert reason in response["reason"]


def test_mistyped_tenant_workload_rejected_with_path(server):
    document = fleet_document("typed-tenant")
    document["tenants"][0]["workload"]["io_size"] = "big"
    with client_for(server) as client:
        response = client.submit(document=document)
    assert response["event"] == "rejected"
    assert "document.tenants[0].workload.io_size: expected positive int" \
        in response["reason"]


@pytest.mark.parametrize("pattern, reason", [
    ("trace-bursty",
     "document.tenants[0].workload.pattern: unknown pattern 'trace-bursty'"),
    ("randrw",
     "document.tenants[0].workload.write_ratio: expected a number in [0, 1] "
     "for the mixed pattern 'randrw'"),
])
def test_tenant_workload_that_cannot_run_rejected_with_path(server, pattern,
                                                            reason):
    document = fleet_document("unrunnable-tenant")
    document["tenants"][0]["workload"]["pattern"] = pattern
    with client_for(server) as client:
        response = client.submit(document=document)
    assert response["event"] == "rejected"
    assert reason in response["reason"]


def test_run_block_overrides_the_server_config_field_by_field(tmp_path,
                                                              monkeypatch):
    """A submitted document's ``run:`` block sets the fields it names; the
    server's ``fleet_config`` keeps the others."""
    configs = []

    class SpyCoordinator(FleetCoordinator):
        def run(self, topology):
            configs.append(self.config)
            return super().run(topology)

    monkeypatch.setattr("repro.cluster.FleetCoordinator", SpyCoordinator)
    document = {**fleet_document("precedence-fleet", io_count=60),
                "run": {"shards": 2}}
    with ExperimentServer(
            socket_path=tmp_path / "serve.sock", cache_dir=tmp_path / "cache",
            fleet_config=FleetRunConfig(run_ahead=4, transport="local")) \
            as server, client_for(server) as client:
        terminal, _ = client.run(document=document)
    assert terminal["event"] == "done"
    assert configs == [FleetRunConfig(shards=2, run_ahead=4,
                                      transport="local")]


def test_run_block_default_wins_over_the_server_config(tmp_path,
                                                      monkeypatch):
    """A block field set to its default is set: ``serve --shards 2`` runs a
    submission whose block says ``shards: 1`` at one shard."""
    configs = []

    class SpyCoordinator(FleetCoordinator):
        def run(self, topology):
            configs.append(self.config)
            return super().run(topology)

    monkeypatch.setattr("repro.cluster.FleetCoordinator", SpyCoordinator)
    document = {**fleet_document("default-block-fleet", io_count=60),
                "run": {"shards": 1}}
    with ExperimentServer(
            socket_path=tmp_path / "serve.sock", cache_dir=tmp_path / "cache",
            fleet_config=FleetRunConfig(shards=2, transport="local")) \
            as server, client_for(server) as client:
        terminal, _ = client.run(document=document)
    assert terminal["event"] == "done"
    assert configs == [FleetRunConfig(shards=1, transport="local")]


def test_tcp_transport(tmp_path):
    with ExperimentServer(port=0, cache_dir=tmp_path / "cache",
                          job_workers=1) as server:
        with ServeClient(port=server.port, timeout=60.0) as client:
            assert client.ping()["ok"]
            terminal, events = client.run(
                document=fleet_document("tcp-fleet", io_count=60))
    assert terminal["event"] == "done"
    assert len(terminal["results"]) == 1


def test_shutdown_op(tmp_path):
    server = ExperimentServer(socket_path=tmp_path / "s.sock",
                              cache_dir=tmp_path / "cache")
    server.start()
    with ServeClient(socket_path=server.socket_path, timeout=60.0) as client:
        assert client.shutdown()["event"] == "stopping"
    server._stop.wait(timeout=30.0)
    assert server._stop.is_set()
    server.stop()  # idempotent
    assert not server.socket_path.exists()


# ---------------------------------------------------------------------------
# Bit-identity with the batch path
# ---------------------------------------------------------------------------

def test_served_document_is_bit_identical_to_batch_run(server, tmp_path):
    """The acceptance criterion: document -> serve == batch fleet run."""
    doc = fleet_document("identity-fleet", io_count=200)
    with client_for(server) as client:
        terminal, events = client.run(document=doc)
    assert terminal["event"] == "done"
    [served] = terminal["results"]
    assert not served["cached"]

    # Independent batch run of the same document, in a *separate* cache.
    spec = scenario_for_document(doc)
    batch = SweepRunner(cache_dir=tmp_path / "batch-cache").run_cells(
        spec.name, spec.cells())
    [outcome] = batch.outcomes

    # Bit-identical metrics and the same cache key on both sides.
    assert served["metrics"] == outcome.metrics
    assert served["cache_key"] == outcome.cell.cache_key()

    # The server populated its cache under that key: the batch CLI pointed
    # at the server's cache directory gets a pure cache hit.
    rerun = SweepRunner(cache_dir=server._runner_kwargs["cache_dir"]).run_cells(
        spec.name, spec.cells())
    assert rerun.outcomes[0].cached
    assert rerun.outcomes[0].metrics == outcome.metrics

    # diff_results between the served and batch sweeps is clean.
    served_result = SweepResult(scenario=spec.name, outcomes=[
        CellOutcome(cell=spec.cells()[0], metrics=served["metrics"])])
    rows = diff_results(served_result, batch, metric="mean_us")
    assert all(row["relative_change"] == 0.0 for row in rows)


def test_repeat_submission_is_served_from_cache(server):
    doc = fleet_document("cache-fleet", io_count=100)
    with client_for(server) as client:
        first, _ = client.run(document=doc)
    with client_for(server) as client:
        second, events = client.run(document=doc)
    assert [entry["cached"] for entry in first["results"]] == [False]
    assert [entry["cached"] for entry in second["results"]] == [True]
    assert first["results"][0]["metrics"] == second["results"][0]["metrics"]


def test_registered_name_and_document_share_cache_entries(server):
    """Submitting by registered name == submitting the same document."""
    topology = loop_fleet("twin-fleet", io_count=100)
    register(scenario("twin-fleet", "python twin", devices=("fleet",),
                      fleet=topology, tags=("fleet",)), replace=True)
    with client_for(server) as client:
        by_name, _ = client.run(scenario="twin-fleet")
    with client_for(server) as client:
        by_doc, _ = client.run(document=topology_to_document(topology))
    assert by_name["event"] == by_doc["event"] == "done"
    # Same cache key, so the second submission was a pure hit.
    assert by_name["results"][0]["cache_key"] == \
        by_doc["results"][0]["cache_key"]
    assert by_doc["results"][0]["cached"]
    assert by_name["results"][0]["metrics"] == by_doc["results"][0]["metrics"]


# ---------------------------------------------------------------------------
# Streaming
# ---------------------------------------------------------------------------

def test_stream_carries_per_cell_metrics_and_terminal(server):
    register(scenario(
        "serve-grid", "multi-cell serve scenario", devices=("fleet",),
        fleet=loop_fleet("serve-grid-fleet", io_count=60),
        grid={"fleet.seed": (1, 2, 3)}, tags=("fleet",)), replace=True)
    with client_for(server) as client:
        terminal, events = client.run(scenario="serve-grid")
    kinds = [event["event"] for event in events]
    assert kinds == ["started", "cell", "cell", "cell", "done"]
    cells = [event for event in events if event["event"] == "cell"]
    assert [event["index"] for event in cells] == [0, 1, 2]
    for event in cells:
        assert event["total"] == 3
        assert event["metrics"]["ios_completed"] > 0
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs)
    assert len(terminal["results"]) == 3


def test_late_watcher_replays_buffered_events(server):
    doc = fleet_document("watch-fleet", io_count=60)
    with client_for(server) as client:
        response = client.submit(document=doc, watch=False)
        assert response["ok"]
        job = response["job"]
        # Poll until the job finishes, then watch: the full history replays.
        deadline_attempts = 300
        for _ in range(deadline_attempts):
            if client.status(job)["state"] == "done":
                break
            threading.Event().wait(0.05)
        assert client.status(job)["state"] == "done"
        client.send({"op": "watch", "job": job})
        events = list(client.stream())
    assert [event["event"] for event in events] == ["started", "cell", "done"]


# ---------------------------------------------------------------------------
# Concurrency and admission control
# ---------------------------------------------------------------------------

def test_concurrent_submissions_interleave(server):
    """Two distinct scenarios on a two-worker server: both complete, and
    their event streams interleave (global seq ranges overlap)."""
    for name in ("conc-a", "conc-b"):
        register(scenario(
            name, f"concurrency scenario {name}", devices=("fleet",),
            fleet=loop_fleet(f"{name}-fleet", io_count=4000),
            grid={"fleet.seed": (1, 2, 3, 4)}, tags=("fleet",)),
            replace=True)
    terminals: dict[str, dict] = {}
    streams: dict[str, list] = {}

    def run_one(name: str) -> None:
        with client_for(server) as client:
            terminal, events = client.run(scenario=name)
            terminals[name] = terminal
            streams[name] = events

    threads = [threading.Thread(target=run_one, args=(name,))
               for name in ("conc-a", "conc-b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90.0)
    assert terminals["conc-a"]["event"] == "done"
    assert terminals["conc-b"]["event"] == "done"
    assert len(terminals["conc-a"]["results"]) == 4
    assert len(terminals["conc-b"]["results"]) == 4

    seq_a = [event["seq"] for event in streams["conc-a"]]
    seq_b = [event["seq"] for event in streams["conc-b"]]
    # Interleaved: neither job's whole event range precedes the other's.
    assert min(seq_a) < max(seq_b) and min(seq_b) < max(seq_a)


def test_admission_control_rejects_beyond_max_pending(tmp_path, monkeypatch):
    # The one job worker parks in its first job until the test releases
    # it, so the queue behind it builds up deterministically until
    # admission control trips.
    running, release = threading.Event(), threading.Event()

    def park(_server, _job):
        running.set()
        release.wait(timeout=60.0)

    monkeypatch.setattr(ExperimentServer, "_run_job", park)
    with ExperimentServer(socket_path=tmp_path / "s.sock",
                          cache_dir=tmp_path / "cache",
                          job_workers=1, max_pending=2) as server:
        doc = fleet_document("shed-fleet", io_count=10)
        try:
            with ServeClient(socket_path=server.socket_path,
                             timeout=60.0) as client:
                parked = client.submit(document=doc, watch=False)
                assert running.wait(timeout=60.0)
                first = client.submit(document=doc, watch=False)
                second = client.submit(document=doc, watch=False)
                third = client.submit(document=doc, watch=False)
        finally:
            release.set()
    assert parked["ok"] and first["ok"] and second["ok"]
    assert not third["ok"]
    assert third["event"] == "rejected"
    assert "queue full" in third["reason"]
    assert "max-pending 2" in third["reason"]


def test_server_refuses_fewer_than_one_job_worker(tmp_path):
    """With no job worker, accepted jobs would wait forever."""
    with pytest.raises(ValueError, match="job_workers must be >= 1"):
        ExperimentServer(socket_path=tmp_path / "s.sock", job_workers=0)


@pytest.mark.parametrize("flag, value, message", [
    ("--max-pending", "-1", "max_pending must be >= 0"),
    ("--job-workers", "0", "job_workers must be >= 1"),
])
def test_serve_cli_refuses_a_bad_count_with_one_error_line(
        tmp_path, capsys, flag, value, message):
    from repro.experiments.cli import main

    socket_path = tmp_path / "s.sock"
    code = main(["serve", "--socket", str(socket_path), flag, value])
    captured = capsys.readouterr()
    assert code == 2
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {message}")
    assert not socket_path.exists()


def test_serve_refuses_the_path_of_a_live_server(server, capsys, monkeypatch):
    """A second ``serve`` on a live server's socket exits 2 with one error
    line and leaves the path to the first server, which still answers."""
    from repro.experiments.cli import main

    # A second server that did bind would serve until stopped: stop it at
    # once, so that a regression fails here instead of hanging.
    monkeypatch.setattr(ExperimentServer, "wait", ExperimentServer.stop)
    code = main(["serve", "--socket", str(server.socket_path)])
    [line] = capsys.readouterr().err.splitlines()
    assert code == 2
    assert line.startswith(f"error: cannot bind {server.socket_path}: ")
    assert "already listening" in line
    with client_for(server) as client:
        assert client.ping()["ok"]


def test_serve_refuses_a_path_that_is_not_a_socket(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("keep me")
    with pytest.raises(FileExistsError, match="not a socket"):
        ExperimentServer(socket_path=path).start()
    assert path.read_text() == "keep me"


def test_serve_replaces_a_stale_socket(tmp_path):
    """A socket file no server answers on (its server died without
    removing it) is removed, and the new server binds the path."""
    import socket

    path = tmp_path / "s.sock"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as dead:
        dead.bind(str(path))
    assert path.is_socket()
    with ExperimentServer(socket_path=path, cache_dir=tmp_path / "cache"):
        with ServeClient(socket_path=path, timeout=60.0) as client:
            assert client.ping()["ok"]
    assert not path.exists()


def test_empty_submission_rejected(server):
    with client_for(server) as client:
        response = client.request({"op": "submit"})
    assert not response["ok"]
    assert "exactly one" in response["reason"]


# ---------------------------------------------------------------------------
# The submit CLI verb against a live server
# ---------------------------------------------------------------------------

def test_submit_cli_verb_streams_and_saves(server, tmp_path, capsys):
    from repro.experiments.cli import main

    doc = fleet_document("cli-fleet", io_count=60)
    path = tmp_path / "cli-fleet.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "result.json"
    code = main(["submit", str(path), "--socket", str(server.socket_path),
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "accepted job-" in captured.out
    assert "cell 1/1" in captured.out
    assert "done" in captured.out
    saved = json.loads(out_path.read_text())
    assert saved["event"] == "done"
    assert len(saved["results"]) == 1


def test_submit_cli_rejection_exits_2(server, capsys):
    from repro.experiments.cli import main

    code = main(["submit", "no-such-scenario",
                 "--socket", str(server.socket_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "rejected" in captured.err
    assert "Traceback" not in captured.err


def test_submit_cli_unreachable_server_exits_2(tmp_path, capsys):
    from repro.experiments.cli import main

    code = main(["submit", "fleet-smoke",
                 "--socket", str(tmp_path / "absent.sock")])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot reach server" in captured.err
