"""Parallel scenario-sweep runner with deterministic JSON result caching.

This module turns a declarative :class:`~repro.experiments.scenarios.ScenarioSpec`
into measurements:

1. **Grid expansion** -- :func:`expand_grid` takes ``{axis: [values...]}``
   and yields the cartesian product as a deterministic list of dicts (axes
   sorted by name, values in the given order).
2. **Cell execution** -- every grid point becomes one :class:`CellSpec`
   (device x job parameters).  :func:`run_cell` builds a fresh simulator
   and, for a device cell, the devices it names (fault-injected when the
   cell has ``faults``), runs its workload -- one FIO-style job, concurrent
   streams, or an open-loop trace replay -- and returns a plain-``dict``
   metrics payload (latency summary, throughput, plus each workload kind's
   own metrics).  Fleet cells run through the cluster layer instead, and
   also hand back the coordinator's wall-clock ``runtime`` section, which
   stays out of the metrics and the cache.  Cells are fully independent, so
   they can run in worker processes.
3. **Caching** -- results are cached as one JSON file per cell under
   ``<cache_dir>/<scenario>/<fingerprint>/<hash>.json``.  The fingerprint
   is :func:`model_fingerprint`, a digest of every source file of the
   ``repro`` package, so any code edit invalidates every entry; the hash
   is a SHA-256 over the cell's document (:meth:`CellSpec.to_document`,
   labels left out) and the fingerprint.  The first store into a
   scenario removes its entries of every other fingerprint.
4. **Execution** -- :class:`SweepRunner` runs the missing cells serially or
   across worker processes (``concurrent.futures.ProcessPoolExecutor``).
   Because each cell seeds its own simulator from the spec, serial and
   parallel execution produce bit-identical metrics.

The paper figures (:mod:`repro.experiments.figure2` ...) are thin scenario
definitions executed through this runner; new characterization scenarios are
registered in :mod:`repro.experiments.scenarios`.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import json
import math
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.determinism import canonical_json, derive_seed, spec_hash, write_atomic


def default_cache_dir() -> str:
    """The sweep-cache directory: ``$REPRO_SWEEP_CACHE`` (read at call
    time, so every CLI verb sees the same environment) or
    ``.sweep-cache``."""
    return os.environ.get("REPRO_SWEEP_CACHE", ".sweep-cache")


@lru_cache(maxsize=1)
def model_fingerprint() -> str:
    """Digest of everything that computes a cell's metrics: every ``*.py``
    file of the ``repro`` package, the interpreter's bytecode tag and the
    numpy version.

    Metrics come from the device models and also from this module, the
    config readers and :func:`~repro.determinism.derive_seed`, so any edit
    to any module turns every cache key over.  The interpreter and numpy
    are part of it because they move float results (CPython 3.12 sums
    floats with compensation).
    """
    import numpy

    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256(
        f"{sys.implementation.cache_tag} numpy-{numpy.__version__}".encode())
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_scenario_name(name: str) -> str:
    """``name``, if it can name a scenario: one path component, since the
    sweep cache keeps a scenario's entries in the directory of that name.
    Raises ``ValueError`` for an empty name, ``.``, ``..`` or a name with
    a path separator (an absolute path has one)."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"scenario name {name!r} is not one path component "
                         f"(non-empty, no '/' or '\\', not '.' or '..')")
    return name


# ---------------------------------------------------------------------------
# Grid expansion and hashing
# ---------------------------------------------------------------------------

def expand_grid(grid: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """Cartesian product of ``{axis: values}`` as a deterministic list.

    Axes iterate in sorted-name order; values keep their given order.  An
    empty grid yields one empty point (a sweep of a single fixed cell).
    """
    if not grid:
        return [{}]
    axes = sorted(grid)
    for axis in axes:
        if not isinstance(grid[axis], (list, tuple)):
            raise TypeError(f"grid axis {axis!r} must be a list/tuple of values")
        if len(grid[axis]) == 0:
            raise ValueError(f"grid axis {axis!r} has no values")
    return [dict(zip(axes, combo))
            for combo in itertools.product(*(grid[axis] for axis in axes))]


# ---------------------------------------------------------------------------
# Cell specification and execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellSpec:
    """One independent simulation: a device plus a complete job description.

    All fields are JSON-serialisable so the spec itself is the cache key.
    How a fleet cell executes (shard count, transport, run-ahead window) is
    not part of the cell: no execution knob changes a result, so the
    runner holds them (``SweepRunner(fleet_config=...)``).
    """

    device: str                      # registered name ("SSD", "LOOP", ...)
    pattern: str = "randread"
    io_size: int = 4096
    queue_depth: int = 1
    write_ratio: Optional[float] = None
    io_count: Optional[int] = None
    total_bytes: Optional[int] = None
    runtime_us: Optional[float] = None
    ramp_ios: int = 0
    think_time_us: float = 0.0
    pattern_params: tuple = ()
    seed: int = 17
    preload: bool = True
    ssd_capacity_bytes: int = 256 * 1024 * 1024
    essd_capacity_bytes: int = 512 * 1024 * 1024
    #: Bin width for the throughput-over-time series ("auto" adapts to the
    #: run duration; None skips the series entirely).
    series_bin_us: Optional[float | str] = None
    #: Concurrent workload streams sharing this cell's simulation: a sorted
    #: tuple of ``(stream_name, overrides)`` pairs, each override a sorted
    #: tuple of (field, value) pairs.  Streams inherit the cell's job fields
    #: and may override any of them plus ``device`` -- several streams on
    #: one device model a noisy neighbor, streams on different devices a
    #: mixed fleet.  Empty = classic single-job cell.
    streams: tuple = ()
    #: Attach a request-path tracer and report the per-stage latency
    #: breakdown in the metrics (``metrics["trace"]``).
    trace: bool = False
    #: Device-profile overrides forwarded to ``create_device`` (e.g.
    #: ``replication_factor`` / ``chunk_size`` for the EBS cluster), as a
    #: sorted tuple of (field, value) pairs.
    device_params: tuple = ()
    #: A fleet-simulation cell: the canonical JSON of a topology document
    #: (:meth:`repro.cluster.FleetTopology.canonical`).  When set, the cell is
    #: executed through the cluster layer and the fleet/device/job fields
    #: above are ignored except for bookkeeping.
    fleet: Optional[str] = None
    #: Fault schedule of a device cell: canonical JSON of a fault-spec
    #: document (``{"events": [...]}`` plus a non-default ``"policy"``, see
    #: :func:`repro.cluster.faults.canonical_fault_spec`).  Each device is
    #: wrapped in a :class:`~repro.cluster.faults.FaultInjector` proxy with
    #: exact-time flips, and the cell reports its workload kind's metrics
    #: plus ``shed_ios`` and ``shed_bytes``.  Part of the cache key -- a
    #: different fault schedule is a different experiment.  A fleet cell
    #: keeps its schedule in its topology, the one home of a fleet's faults:
    #: a cell document with both keys folds ``faults`` into ``fleet``
    #: (:func:`repro.config.fold_faults`), and a cell built with both is
    #: refused.
    faults: Optional[str] = None
    #: Free-form labels carried through to the result (not part of the job).
    labels: tuple = ()

    def __post_init__(self) -> None:
        if self.fleet is not None and self.faults is not None:
            raise ValueError("a fleet cell keeps its fault schedule in its "
                             "topology: fold 'faults' into 'fleet' "
                             "(repro.config.fold_faults)")

    def stream_specs(self) -> list[tuple[str, dict[str, Any]]]:
        """The streams as ``(name, overrides-dict)`` pairs (run order)."""
        return [(name, dict(overrides)) for name, overrides in self.streams]

    def to_document(self) -> dict[str, Any]:
        """The cell's one serial form: its document without a ``kind`` key
        (defaults omitted, mappings instead of sorted pairs), which
        :meth:`from_document` reads back; see :mod:`repro.config`."""
        from repro.config import cell_to_document

        return cell_to_document(self, kind=None)

    @classmethod
    def from_document(cls, document: Mapping[str, Any],
                      path: str = "cell") -> "CellSpec":
        """Build from a document, validating with path-addressed errors."""
        from repro.config import cell_from_document

        return cell_from_document(document, path=path)

    def cache_key(self) -> str:
        # Labels are cosmetic (display only); leaving them out keeps the
        # cache warm across label renames and lets diff_results align cells
        # with identical physics.
        document = self.to_document()
        document.pop("labels", None)
        return spec_hash({"models": model_fingerprint(), "cell": document})


#: FioJob fields a cell (and a stream override) may set.
_JOB_FIELDS = ("pattern", "io_size", "queue_depth", "write_ratio", "io_count",
               "total_bytes", "runtime_us", "ramp_ios", "think_time_us",
               "pattern_params", "seed")


def _job_from_cell(cell: CellSpec, name: str, overrides: Mapping[str, Any]):
    """Build one FioJob: cell fields as defaults, overrides on top."""
    from repro.workload.fio import FioJob

    fields = {field_name: getattr(cell, field_name) for field_name in _JOB_FIELDS}
    for key, value in overrides.items():
        if key == "pattern_params":
            value = tuple(tuple(pair) for pair in value)
        fields[key] = value
    return FioJob(name=name, **fields)


def _headline(ios: int, bytes_read: int, bytes_written: int,
              duration_us: float, latency) -> dict[str, Any]:
    """The metrics every device cell reports: totals, rates over
    ``duration_us`` and the latency summary of ``latency`` (a
    :class:`~repro.metrics.latency.LatencyRecorder`)."""
    summary = latency.summary()
    return {
        "ios_completed": ios,
        "bytes_read": bytes_read,
        "bytes_written": bytes_written,
        "duration_us": duration_us,
        "throughput_gbps": (bytes_read + bytes_written) / duration_us / 1000.0
        if duration_us > 0 else 0.0,
        "iops": ios / duration_us * 1e6 if duration_us > 0 else 0.0,
        "mean_us": summary.mean_us,
        "p50_us": summary.p50_us,
        "p99_us": summary.p99_us,
        "p999_us": summary.p999_us,
        "max_us": summary.max_us,
    }


def _run_fleet_cell(cell: CellSpec, config=None
                    ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Execute a fleet cell through the cluster layer: its metrics (the
    headline numbers plus the coordinator payload under ``"fleet"``) and,
    apart, the payload's nondeterministic ``runtime`` section.

    ``config``, the runner's :class:`repro.cluster.FleetRunConfig`, picks
    the shard count, transport, and run-ahead window.  The default (None)
    runs the fleet in one in-process shard -- the sweep pool already
    parallelises across cells.  Sharded cells nest dedicated worker
    processes *inside* the pool worker (``ProcessPoolExecutor`` workers are
    non-daemonic, so both levels of parallelism nest); results are
    bit-identical for every layout and transport.
    """
    from repro.cluster import FleetCoordinator, FleetTopology, fleet_headline

    payload = FleetCoordinator(config=config).run(
        FleetTopology.from_json(cell.fleet))
    # Wall-clock data is nondeterministic; the cached metrics must not be.
    runtime = payload.pop("runtime")
    metrics = fleet_headline(payload)
    metrics["fleet"] = payload
    return metrics, runtime


def run_cell(cell: CellSpec, fleet_config=None
             ) -> tuple[dict[str, Any], Optional[dict[str, Any]]]:
    """Execute one cell on a fresh simulator: ``(metrics, runtime)``.

    Fleet cells run through the cluster layer under ``fleet_config``
    (:func:`_run_fleet_cell`), and ``runtime`` is the coordinator's
    wall-clock section, which no metrics payload or cache entry carries.
    Every other cell is a device cell, whose ``runtime`` is ``None``: each
    device it names is built once (at the cell's scale,
    preloaded, traced, and wrapped in a
    :class:`~repro.cluster.faults.FaultInjector` when the cell has
    ``faults``), then one workload runs on them -- an open-loop replay for
    a ``trace-<family>`` pattern, else the cell's concurrent ``streams``,
    else one FIO job.

    Top-level (picklable) so it can run inside a worker process.  The imports
    are local so that importing :mod:`repro.experiments.sweep` does not pull
    the whole device stack into processes that only expand grids.
    """
    from repro.experiments.common import ExperimentScale, build_device
    from repro.metrics.latency import LatencyRecorder
    from repro.sim import Simulator, Tracer
    from repro.workload.fio import run_job, run_streams

    if cell.fleet is not None:
        return _run_fleet_cell(cell, fleet_config)

    sim = Simulator()
    scale = ExperimentScale(ssd_capacity_bytes=cell.ssd_capacity_bytes,
                            essd_capacity_bytes=cell.essd_capacity_bytes)
    tracer = Tracer(sim) if cell.trace else None
    faults = None
    if cell.faults is not None:
        from repro.cluster.faults import parse_fault_spec, schedule_cell_faults

        faults = parse_fault_spec(cell.faults)
    models: dict[str, Any] = {}   # device name -> the device model itself
    devices: dict[str, Any] = {}  # device name -> what the workload submits to

    def device_for(name: str):
        if name not in devices:
            model = build_device(sim, name, scale,
                                 device_params=dict(cell.device_params))
            if cell.preload:
                model.preload()
            if tracer is not None:
                model.set_tracer(tracer)
            models[name] = model
            devices[name] = model if faults is None \
                else schedule_cell_faults(sim, model, *faults)
        return devices[name]

    if cell.pattern.startswith("trace-"):
        from repro.workload.trace import replay_trace, synthesize_trace

        device = device_for(cell.device)
        params = dict(cell.pattern_params)
        params.setdefault("duration_us", cell.runtime_us or 100_000.0)
        params.setdefault("io_size", cell.io_size)
        if cell.write_ratio is not None:
            params.setdefault("write_ratio", cell.write_ratio)
        params.setdefault("region_bytes", device.capacity_bytes)
        trace = synthesize_trace(cell.pattern[len("trace-"):], seed=cell.seed,
                                 **params)
        replay = replay_trace(sim, device, trace)
        # Trace cells measure over the completion span.
        metrics = _headline(replay.ios_completed, trace.read_bytes(),
                            trace.write_bytes(), replay.timeline.duration_us,
                            replay.latency)
        metrics["throughput_gbps"] = replay.timeline.average_gbps()
        metrics["unfinished"] = replay.unfinished
        metrics["offered_mean_gbps"] = trace.mean_load_gbps()
        metrics["offered_peak_gbps"] = trace.peak_load_gbps()
    elif cell.streams:
        streams = []
        for index, (name, overrides) in enumerate(cell.stream_specs()):
            device_name = overrides.pop("device", cell.device)
            # Unless a stream pins its own seed, derive one per stream so
            # concurrent streams never share an RNG sequence.  Hash-derived
            # (not additive): ``seed + k*index`` schemes collide across
            # cells whose base seeds differ by a multiple of k.
            seed = derive_seed(cell.seed, {"stream": name, "index": index})
            streams.append((device_name, _job_from_cell(
                cell, name, {"seed": seed, **overrides})))
        results = run_streams(sim, [(device_for(device_name), job)
                                    for device_name, job in streams])
        latency = LatencyRecorder()
        for result in results:
            latency = latency.merge(result.latency)
        metrics = _headline(
            sum(result.ios_completed for result in results),
            sum(result.bytes_read for result in results),
            sum(result.bytes_written for result in results),
            max(result.finished_us for result in results)
            - min(result.started_us for result in results),
            latency)
        metrics["streams"] = {}
        for (device_name, job), result in zip(streams, results):
            summary = result.latency.summary()
            metrics["streams"][job.name] = {
                "device": device_name,
                "pattern": job.pattern,
                "queue_depth": job.queue_depth,
                "ios_completed": result.ios_completed,
                "throughput_gbps": result.throughput_gbps,
                "iops": result.iops,
                "mean_us": summary.mean_us,
                "p99_us": summary.p99_us,
                "p999_us": summary.p999_us,
            }
    else:
        # run_job returns at the workers' join, where the device statistics
        # below describe the job's own I/O.
        result = run_job(sim, device_for(cell.device), _job_from_cell(
            cell, f"sweep-{cell.device}-{cell.pattern}", {}))
        metrics = _headline(result.ios_completed, result.bytes_read,
                            result.bytes_written, result.duration_us,
                            result.latency)
        metrics["read_throughput_gbps"] = result.read_throughput_gbps
        metrics["write_throughput_gbps"] = result.write_throughput_gbps
        if cell.series_bin_us is not None:
            # The requested width is an upper bound: the bin also shrinks so
            # the run spans >= 24 bins, otherwise short (test-scale) runs
            # could not locate throughput transitions like the GC cliff.
            bin_us = cell.series_bin_us
            if bin_us == "auto":
                bin_us = max(1000.0, result.duration_us / 24)
            else:
                bin_us = max(1000.0, min(float(bin_us), result.duration_us / 24))
            metrics["series"] = [
                [sample.bytes_completed, sample.gigabytes_per_second]
                for sample in result.timeline.binned(float(bin_us))
            ]
            metrics["series_bin_us"] = float(bin_us)
        # The FaultInjector proxy does not forward model statistics.
        model = models[cell.device]
        for attr in ("write_amplification", "flow_limited"):
            if hasattr(model, attr):
                metrics[attr] = getattr(model, attr)
    if faults is not None:
        metrics["shed_ios"] = sum(proxy.shed_ios for proxy in devices.values())
        metrics["shed_bytes"] = sum(proxy.shed_bytes
                                    for proxy in devices.values())
    if tracer is not None:
        metrics["trace"] = tracer.to_payload()
    return metrics, None


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

class SweepCache:
    """One JSON file per cell under
    ``<root>/<scenario>/<fingerprint>/<cell-hash>.json``, where
    ``<fingerprint>`` is :func:`model_fingerprint`.

    The first :meth:`store` into a scenario removes the scenario's entries
    of every other fingerprint (:meth:`prune`): no key this code computes
    can reach them again.  Two checkouts of different code that share a
    cache directory therefore remove each other's entries.  A scenario
    name that is not one path component (:func:`check_scenario_name`)
    raises ``ValueError``, so no entry lies outside ``<root>``.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: Scenarios this cache has pruned.
        self._pruned: set[str] = set()

    def path_for(self, scenario: str, cell: CellSpec) -> Path:
        return (self.root / check_scenario_name(scenario) / model_fingerprint()
                / f"{cell.cache_key()}.json")

    def load(self, scenario: str, cell: CellSpec) -> Optional[dict[str, Any]]:
        """The cell's cached metrics; ``None`` when there is no readable
        entry (a missing, torn or foreign file)."""
        path = self.path_for(scenario, cell)
        try:
            return json.loads(path.read_text())["metrics"]
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, scenario: str, cell: CellSpec, metrics: Mapping[str, Any]) -> Path:
        if scenario not in self._pruned:
            self._pruned.add(scenario)
            self.prune(scenario)
        path = self.path_for(scenario, cell)
        payload = {
            "scenario": scenario,
            "cell": cell.to_document(),
            "metrics": dict(metrics),
        }
        write_atomic(path, canonical_json(payload))
        return path

    def prune(self, scenario: str) -> None:
        """Remove ``scenario``'s entries of other fingerprints: their
        directories, and the ``<cell-hash>.json`` files an unversioned
        layout kept directly under the scenario.  A scenario directory
        that resolves outside the root (a symbolic link) is left alone."""
        current = model_fingerprint()
        directory = self.root / check_scenario_name(scenario)
        try:
            if directory.resolve().parent != self.root.resolve():
                return
            entries = list(directory.iterdir())
        except OSError:
            return
        for entry in entries:
            if entry.name == current or entry.is_symlink():
                continue
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            elif entry.suffix == ".json":
                entry.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellOutcome:
    """A cell spec together with its measured (or cached) metrics.

    ``runtime`` is a freshly run fleet cell's coordinator section (shards,
    epochs, coordinator rounds, wall clock): ``None`` on a cache hit and
    for device cells.  It never enters ``metrics`` or a cache entry.
    """

    cell: CellSpec
    metrics: dict[str, Any]
    cached: bool = False
    runtime: Optional[dict[str, Any]] = None

    @property
    def params(self) -> dict[str, Any]:
        return dict(self.cell.labels)


@dataclass
class SweepResult:
    """All cell outcomes of one scenario sweep."""

    scenario: str
    outcomes: list[CellOutcome] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def save(self, path: str | Path) -> Path:
        """Write the outcomes as JSON, each cell as its document."""
        cells = []
        for outcome in self.outcomes:
            entry = {"cell": outcome.cell.to_document(),
                     "metrics": outcome.metrics, "cached": outcome.cached}
            if outcome.runtime is not None:
                entry["runtime"] = outcome.runtime
            cells.append(entry)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"scenario": self.scenario, "cells": cells},
                                   indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SweepResult":
        """Read a saved result back, each cell through its document reader
        (a malformed cell raises :class:`repro.config.ConfigError`)."""
        payload = json.loads(Path(path).read_text())
        return cls(payload["scenario"], [
            CellOutcome(
                cell=CellSpec.from_document(entry["cell"],
                                            path=f"cells[{index}].cell"),
                metrics=entry["metrics"],
                cached=entry.get("cached", False),
                runtime=entry.get("runtime"))
            for index, entry in enumerate(payload["cells"])])


def _comparable(value) -> bool:
    """A measured number: present (a missing cell or metric is ``None``)
    and not NaN (NaN != NaN would otherwise always read as a change)."""
    return value is not None and not (isinstance(value, float)
                                      and math.isnan(value))


def diff_results(a: SweepResult, b: SweepResult,
                 metric: str = "throughput_gbps") -> list[dict[str, Any]]:
    """Per-cell metric comparison between two sweeps keyed by cell hash.

    Returns one row per cell present in either sweep: its document, the
    metric on each side, the relative change (``None`` unless both sides
    hold a comparable number) and ``one_sided``, true when exactly one
    side does -- a cell or metric missing (or NaN) on the other side is a
    change too.
    """
    def index(result: SweepResult) -> dict[str, CellOutcome]:
        return {outcome.cell.cache_key(): outcome for outcome in result.outcomes}

    left, right = index(a), index(b)
    rows = []
    for key in sorted(set(left) | set(right)):
        outcome = left.get(key) or right.get(key)
        value_a = left[key].metrics.get(metric) if key in left else None
        value_b = right[key].metrics.get(metric) if key in right else None
        change = None
        if _comparable(value_a) and _comparable(value_b):
            if value_a == 0:
                # A zero baseline going nonzero is an infinite relative
                # change -- it must still trip --fail-on-change.
                change = 0.0 if value_b == 0 else math.inf
            else:
                change = (value_b - value_a) / abs(value_a)
        rows.append({
            "cell": outcome.cell.to_document(),
            f"{metric}_a": value_a,
            f"{metric}_b": value_b,
            "relative_change": change,
            "one_sided": _comparable(value_a) != _comparable(value_b),
        })
    return rows


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

#: Process pool shared by every SweepRunner in this interpreter.  Spawning a
#: pool per sweep dominated the cost of many-small-cell sweeps; the pool is
#: created lazily on the first parallel run, grown (recreated) if a later
#: run wants more workers, and torn down at interpreter exit.
_SHARED_POOL: Optional[ProcessPoolExecutor] = None
_SHARED_POOL_WORKERS = 0


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent worker pool, (re)created with >= ``workers`` workers."""
    global _SHARED_POOL, _SHARED_POOL_WORKERS
    if _SHARED_POOL is None or _SHARED_POOL_WORKERS < workers:
        if _SHARED_POOL is not None:
            _SHARED_POOL.shutdown(wait=False)
        _SHARED_POOL = ProcessPoolExecutor(max_workers=workers)
        _SHARED_POOL_WORKERS = workers
    return _SHARED_POOL


def shutdown_shared_pool() -> None:
    """Tear down the persistent pool (no-op when none exists)."""
    global _SHARED_POOL, _SHARED_POOL_WORKERS
    if _SHARED_POOL is not None:
        _SHARED_POOL.shutdown(wait=True)
        _SHARED_POOL = None
        _SHARED_POOL_WORKERS = 0


atexit.register(shutdown_shared_pool)


class SweepRunner:
    """Executes the cells of a scenario, optionally in parallel, with caching.

    Parameters
    ----------
    parallel:
        Run independent cells across worker processes.  Results are identical
        to serial execution (each cell owns its simulator and seed).
    max_workers:
        Worker-process count (default: ``os.cpu_count()`` capped at the cell
        count).
    cache_dir:
        Directory for the JSON result cache; ``None`` disables caching.
    force:
        Ignore cached results and re-run every cell.
    fleet_config:
        The :class:`repro.cluster.FleetRunConfig` every fleet cell runs
        under (nested inside the sweep pool's cell-level parallelism);
        ``None`` is the default config.  Whoever builds the runner decides
        it once per scenario: ``run`` and ``fleet`` apply their flags over
        the scenario's ``run:`` block, and ``serve`` applies a submission's
        block over its own flags.  Metrics are bit-identical for every
        layout and transport, so caching is unaffected.
    """

    def __init__(self, parallel: bool = False, max_workers: Optional[int] = None,
                 cache_dir: Optional[str | Path] = None, force: bool = False,
                 fleet_config=None):
        self.parallel = parallel
        self.max_workers = max_workers
        self.cache = SweepCache(cache_dir) if cache_dir is not None else None
        self.force = force
        self.fleet_config = fleet_config

    def run_cells(self, scenario: str, cells: Sequence[CellSpec]) -> SweepResult:
        """Run (or load from cache) every cell and return the sweep result."""
        result = SweepResult(scenario=scenario)
        outcomes: list[Optional[CellOutcome]] = [None] * len(cells)
        pending: list[tuple[int, CellSpec]] = []
        for index, cell in enumerate(cells):
            cached = None if (self.cache is None or self.force) \
                else self.cache.load(scenario, cell)
            if cached is not None:
                outcomes[index] = CellOutcome(cell=cell, metrics=cached, cached=True)
            else:
                pending.append((index, cell))

        if pending:
            fresh = self._execute([cell for _, cell in pending])
            for (index, cell), (metrics, runtime) in zip(pending, fresh):
                if self.cache is not None:
                    self.cache.store(scenario, cell, metrics)
                outcomes[index] = CellOutcome(cell=cell, metrics=metrics,
                                              runtime=runtime)

        result.outcomes = [outcome for outcome in outcomes if outcome is not None]
        return result

    # -- internals ---------------------------------------------------------
    def _execute(self, cells: Sequence[CellSpec]) -> list[tuple]:
        if not self.parallel or len(cells) <= 1:
            return [run_cell(cell, self.fleet_config) for cell in cells]
        workers = self.max_workers or os.cpu_count() or 2
        workers = max(1, min(workers, len(cells)))
        # The pool persists across run() calls (and runners); see shared_pool.
        return list(shared_pool(workers).map(
            run_cell, cells, [self.fleet_config] * len(cells)))


def _quick_stop(io_count: Optional[int], total_bytes: Optional[int],
                io_size: int, quick_count: int) -> dict[str, int]:
    """The quick form of a job's stop condition: ``io_count`` capped at
    ``quick_count``, or else ``total_bytes`` cut to an eighth of its volume,
    floored at ``quick_count`` I/Os."""
    if io_count is not None:
        return {"io_count": min(io_count, quick_count)}
    if total_bytes is not None:
        return {"total_bytes": min(total_bytes, max(io_size * quick_count,
                                                    total_bytes // 8))}
    return {}


def quick_cells(cells: Sequence[CellSpec], io_count: int = 60) -> list[CellSpec]:
    """Shrink every cell's I/O budget (used by ``--quick`` CLI runs).

    Every job -- a cell's, a stream override's and a fleet tenant's -- keeps
    its stop condition in quick form (:func:`_quick_stop`).  Trace-replay
    cells and trace tenants cap the synthesized duration instead.
    """
    QUICK_TRACE_DURATION_US = 100_000.0

    def shrink_fleet(fleet_json: str) -> str:
        document = json.loads(fleet_json)
        for tenant in document.get("tenants", ()):
            workload = tenant["workload"]
            if workload.get("duration_us") is not None:
                workload["duration_us"] = min(workload["duration_us"],
                                              QUICK_TRACE_DURATION_US)
            workload.update(_quick_stop(
                workload.get("io_count"), workload.get("total_bytes"),
                workload.get("io_size", 4096), io_count))
        return canonical_json(document)

    def shrink_streams(cell: CellSpec) -> tuple:
        shrunk_streams = []
        for name, overrides in cell.streams:
            fields = dict(overrides)
            # A stream without its own io_size inherits the cell's.
            fields.update(_quick_stop(
                fields.get("io_count"), fields.get("total_bytes"),
                fields.get("io_size", cell.io_size), io_count))
            shrunk_streams.append((name, tuple(sorted(fields.items()))))
        return tuple(shrunk_streams)

    shrunk = []
    for cell in cells:
        changes: dict[str, Any] = {}
        if cell.fleet is not None:
            changes["fleet"] = shrink_fleet(cell.fleet)
        elif cell.pattern.startswith("trace-"):
            params = dict(cell.pattern_params)
            duration = params.get("duration_us", cell.runtime_us or 100_000.0)
            params["duration_us"] = min(duration, QUICK_TRACE_DURATION_US)
            changes["pattern_params"] = tuple(sorted(params.items()))
        else:
            changes.update(_quick_stop(cell.io_count, cell.total_bytes,
                                       cell.io_size, io_count))
        if cell.streams:
            changes["streams"] = shrink_streams(cell)
        shrunk.append(replace(cell, **changes) if changes else cell)
    return shrunk
