"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in :meth:`setup`
(imports, topology or document construction, server start), then runs one
timed unit of real work per :meth:`iterate` call, closing a
:class:`~e2ebench.calibrate.Timer` step after each natural step of it.  An
iteration reports reference-host seconds (and the raw host seconds),
simulated I/Os, pass/fail verdicts and per-unit digests of its
deterministic outputs; the runner compares the digests.

Simulated results never enter a timing: they count only as correctness.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from e2ebench.calibrate import Timer
from e2ebench.digest import contract_digest, fleet_digest, sha256_of

#: The seed at which committed digests apply: scenarios keep their own
#: registered seeds.  Any other seed derives fresh topology/document seeds.
DEFAULT_SEED = 0


def bench_seed(base: int, seed: int) -> int:
    """The input seed for benchmark seed ``seed`` (``base`` at the default)."""
    if seed == DEFAULT_SEED:
        return base
    digest = hashlib.sha256(f"e2ebench:{base}:{seed}".encode()).hexdigest()
    return int(digest[:12], 16)


@dataclass
class Iteration:
    """One timed unit of work and what it produced."""

    #: Reference-host seconds for the timed section (see ``calibrate``).
    wall_s: float
    #: Reference-host seconds from the start of the timed section to its
    #: first result.
    first_result_s: float
    #: Simulated I/Os completed (deterministic).
    ios: int
    #: ``(label, passed)`` for every non-digest correctness unit.
    verdicts: list[tuple[str, bool]] = field(default_factory=list)
    #: One digest per deterministic output unit.
    digests: list[str] = field(default_factory=list)
    #: Per-layer values the workload observes itself (serve event timings).
    layers: dict[str, float] = field(default_factory=dict)
    #: Raw host seconds for the timed section, kept with the result.
    raw_wall_s: float = 0.0


class Workload:
    """Base class: a named workload bound to one benchmark seed."""

    name = ""
    #: Whether the seed reaches the inputs.  An unseeded workload's outputs
    #: are checked against the committed digests at every seed.
    seeded = True

    def __init__(self, seed: int):
        self.seed = seed
        #: The fleet transport the work actually ran on ("none" if no fleet).
        self.transport = "none"

    def setup(self) -> None:
        """Imports and input construction; everything before the first call."""

    def iterate(self, timer: Timer) -> Iteration:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` opened (idempotent)."""


class ContractWorkload(Workload):
    """The paper's core artifact: the default ContractChecker for ESSD-1 and
    ESSD-2 against the SSD.  Kernel-bound, and the Observation-2 GC floods
    add the SSD write path."""

    name = "contract"
    #: The checker has no seed input: it always runs its fixed jobs.
    seeded = False

    def setup(self) -> None:
        import repro.core.checker as checker_module
        import repro.workload.fio as fio
        from repro.ebs import alibaba_pl3_profile, aws_io2_profile

        self._checker_module = checker_module
        self._profiles = (aws_io2_profile, alibaba_pl3_profile)
        self._jobs: list[Any] = []
        self._timer: Timer | None = None

        # The checker keeps its job results private; count their I/Os at
        # the call site (one call per job, looked up late so a traced run's
        # wrapper on ``fio.run_job`` still sees every call).  Each job,
        # with the device build before it, is one timer step of about 1 s.
        def counted_run_job(*args, **kwargs):
            result = fio.run_job(*args, **kwargs)
            self._jobs.append(result)
            self._timer.lap()
            return result

        self._saved_run_job = checker_module.run_job
        checker_module.run_job = counted_run_job

    def iterate(self, timer: Timer) -> Iteration:
        ContractChecker = self._checker_module.ContractChecker
        self._jobs.clear()
        self._timer = timer
        reports = []
        timer.start()
        for profile in self._profiles:
            reports.append(ContractChecker(profile()).run())
            if len(reports) == 1:
                first = timer.lap()
        wall = timer.lap()
        verdicts = [(f"{report.essd_name} {item.observation.identifier}",
                     item.holds)
                    for report in reports for item in report.evidence]
        return Iteration(wall, first,
                         sum(job.ios_completed for job in self._jobs), verdicts,
                         [contract_digest(report) for report in reports],
                         raw_wall_s=timer.raw)

    def close(self) -> None:
        saved = getattr(self, "_saved_run_job", None)
        if saved is not None:
            self._checker_module.run_job = saved
            self._saved_run_job = None


class FleetWorkload(Workload):
    """Every grid cell of a registered fleet scenario through
    ``FleetCoordinator.run`` at a fixed shard count, on in-process shards
    (the ``local`` transport)."""

    scenario = ""
    shards = 1

    def setup(self) -> None:
        from repro.cluster import FleetCoordinator, FleetRunConfig, FleetTopology
        from repro.experiments.scenarios import get_scenario

        self._coordinator = FleetCoordinator
        self._config = FleetRunConfig(shards=self.shards, transport="local")
        self._topologies = []
        for cell in get_scenario(self.scenario).cells():
            topology = FleetTopology.from_json(cell.fleet)
            self._topologies.append(
                topology.scaled(seed=bench_seed(topology.seed, self.seed)))
        self.transport = self._config.resolve_transport()

    def iterate(self, timer: Timer) -> Iteration:
        payloads = []
        timer.start()
        for topology in self._topologies:
            payloads.append(self._coordinator(config=self._config).run(topology))
            wall = timer.lap()
            if len(payloads) == 1:
                first = wall
        self.transport = payloads[-1]["runtime"]["transport"]
        return Iteration(wall, first,
                         sum(payload["fleet"]["ios_completed"] for payload in payloads),
                         digests=[fleet_digest(payload) for payload in payloads],
                         raw_wall_s=timer.raw)


class FleetSmokeWorkload(FleetWorkload):
    """Both fleet-smoke cells, serial on the local transport: bound by SSD
    preconditioning, so a preconditioning cut shows and a kernel cut barely
    does."""

    name = "fleet-smoke"
    scenario = "fleet-smoke"


class FailoverShardedWorkload(FleetWorkload):
    """The three failover-storm cells at two shards: the only workload where
    the coordinator's lockstep rounds, replica routing and fault barriers do
    the work."""

    name = "failover-sharded"
    scenario = "failover-storm"
    #: In-process shards, not ``auto``.  On multi-core hosts ``auto`` picks
    #: ``shm``, whose worker now and then fails with "ring drain of N
    #: messages but only 0 published" (about one cell in 600 on a 2-core
    #: x86-64 VM under Python 3.11), and a benchmark workload must not fail.
    #: Either process transport also puts three busy processes on such a
    #: host, and their run-to-run spread (0.27) exceeded any usable bound.
    shards = 2


class ServeMacroWorkload(Workload):
    """fleet-macro-100k submitted cold, then warm, to a unix-socket
    ExperimentServer: the only workload for serve, sweep-cache writes and
    macro calibration."""

    name = "serve-macro"

    def setup(self) -> None:
        from repro.cluster import FleetRunConfig
        from repro.cluster.macro import clear_calibration_memo
        from repro.experiments.scenarios import get_scenario
        from repro.serve import ExperimentServer, ServeClient

        document = get_scenario("fleet-macro-100k").to_document()
        document["fleet"]["seed"] = bench_seed(document["fleet"]["seed"], self.seed)
        self._document = document
        self._clear_memo = clear_calibration_memo
        self._dir = Path(tempfile.mkdtemp(prefix="serve-"))
        self._cache_dir = self._dir / "cache"
        # Unix socket paths are capped near 108 bytes: bind a short
        # cwd-relative path whenever the checkout's absolute path is long.
        socket_path = str(self._dir / "s.sock")
        relative = os.path.relpath(socket_path)
        if len(relative) < len(socket_path):
            socket_path = relative
        self._server = ExperimentServer(socket_path=socket_path, job_workers=1,
                                        cache_dir=self._cache_dir).start()
        self._client = ServeClient(socket_path=socket_path).connect()
        self.transport = FleetRunConfig().resolve_transport()

    def _job(self, timer: Timer) -> list[tuple[float, dict[str, Any]]]:
        """Submit the document; every event with its client arrival time on
        ``timer``'s clock.  The step closes once the job has ended."""
        accepted = self._client.submit(document=self._document)
        events = [(timer.elapsed(), accepted)]
        if accepted.get("ok"):
            events.extend((timer.elapsed(), event) for event in self._client.stream())
        timer.lap()
        return events

    def iterate(self, timer: Timer) -> Iteration:
        # Cold means cold: no cache entries and no in-process calibrations.
        shutil.rmtree(self._cache_dir, ignore_errors=True)
        self._clear_memo()
        timer.start()
        cold = self._job(timer)
        # The cold job is the first step: its own factor scales its events.
        cold_scale = timer.scaled / timer.raw
        warm = self._job(timer)

        first = cold_scale * next((at for at, event in cold
                                   if event.get("event") == "cell"), timer.raw)
        cold_done, cold_results = _terminal(cold)
        warm_done, warm_results = _terminal(warm)
        cold_digests = [sha256_of(entry["metrics"]) for entry in cold_results]
        verdicts = [("cold job done", cold_done), ("warm job done", warm_done)]
        for index, digest in enumerate(cold_digests):
            warm_entry = warm_results[index] if index < len(warm_results) else None
            verdicts.append((
                f"warm cell {index} cached and identical",
                warm_entry is not None and warm_entry.get("cached") is True
                and sha256_of(warm_entry["metrics"]) == digest))
        layers = {"serve.queue_wait_s": 0.0, "serve.job_s": 0.0,
                  "serve.events": float(len(cold) + len(warm))}
        for events in (cold, warm):
            times = {event.get("event"): at for at, event in events}
            if {"accepted", "started"} <= times.keys():
                layers["serve.queue_wait_s"] += times["started"] - times["accepted"]
                end = times.get("done", times.get("failed", times["started"]))
                layers["serve.job_s"] += end - times["started"]
        ios = sum(entry["metrics"]["ios_completed"] for entry in cold_results)
        return Iteration(timer.scaled, first, ios, verdicts, cold_digests, layers,
                         raw_wall_s=timer.raw)

    def close(self) -> None:
        if getattr(self, "_server", None) is None:
            return
        self._client.close()
        self._server.stop()
        self._server = None
        shutil.rmtree(self._dir, ignore_errors=True)


def _terminal(events) -> tuple[bool, list[dict[str, Any]]]:
    """(job ended ``done``, its per-cell results) for one job's events."""
    last = events[-1][1] if events else {}
    if last.get("event") != "done":
        return False, []
    return True, list(last.get("results", ()))


WORKLOADS = {workload.name: workload for workload in (
    ContractWorkload, FleetSmokeWorkload, FailoverShardedWorkload,
    ServeMacroWorkload)}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
