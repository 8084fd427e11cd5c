"""Declarative scenario registry for the sweep subsystem.

A *scenario* is a named, reproducible description of a characterization
experiment: which devices to simulate, which workload pattern to run, and a
parameter grid (I/O size x queue depth x pattern knobs x ...) to sweep.
Scenarios expand to independent :class:`~repro.experiments.sweep.CellSpec`
cells and execute through :class:`~repro.experiments.sweep.SweepRunner`,
which parallelises across worker processes and caches results as JSON.

Adding a scenario
-----------------
Call :func:`register` (usually at import time) with a spec built by
:func:`scenario`::

    register(scenario(
        "my-sweep", "what it characterises",
        devices=("SSD", "ESSD-2"),
        base={"pattern": "randwrite", "io_count": 400, "preload": False},
        grid={"io_size": (4096, 65536), "queue_depth": (1, 16)},
    ))

Grid axes whose names match :class:`CellSpec` fields (``io_size``,
``queue_depth``, ``write_ratio``, ...) set those fields; any other axis name
(``theta``, ``duty_cycle``, ``hot_fraction``, ...) is forwarded to the
pattern through ``pattern_params``.  Every expanded cell carries its grid
point in ``labels``, which tables, reports and ``diff`` print.

The paper's figures are registered too (``figure2`` ... ``figure5``,
``table1``): their modules define the cells, this registry makes them
runnable from the CLI (``python -m repro.experiments run figure4``).

Cache layout: see :mod:`repro.experiments.sweep` -- one JSON file per cell
under ``<cache-dir>/<scenario>/<sha256>.json``, keyed by the cell's document
(labels left out) and a fingerprint of the ``repro`` source.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from repro.cluster.transport import FleetRunConfig
from repro.determinism import derive_seed
from repro.experiments.sweep import CellSpec, check_scenario_name, expand_grid
from repro.host.io import KiB, MiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import FleetTopology

#: CellSpec field names a grid axis may target directly.
_CELL_FIELDS = {f.name for f in dataclasses.fields(CellSpec)}

#: Axes routed into ``CellSpec.device_params`` (device-profile overrides)
#: rather than the job or the pattern.
_DEVICE_PARAM_AXES = {"replication_factor", "write_quorum", "chunk_size"}

#: Default scaled capacities for registry scenarios (kept small so a CLI
#: sweep of dozens of cells finishes in seconds per worker).
DEFAULT_SSD_CAPACITY = 96 * MiB
DEFAULT_ESSD_CAPACITY = 192 * MiB


@dataclass(frozen=True)
class ScenarioSpec:
    """A named sweep: devices x parameter grid over one workload family.

    With ``streams`` set, every cell runs several concurrent workload
    streams in one simulation (noisy neighbor / mixed fleet): each stream
    inherits the cell's job fields and applies its own overrides, including
    an optional per-stream ``device``.  A grid axis named
    ``<stream>.<field>`` targets that stream's override instead of the cell.
    """

    name: str
    description: str
    devices: tuple[str, ...]
    base: tuple[tuple[str, Any], ...] = ()
    grid: tuple[tuple[str, tuple], ...] = ()
    #: Concurrent streams per cell: tuple of (name, overrides) pairs.
    streams: tuple[tuple[str, tuple], ...] = ()
    #: A fleet scenario: :meth:`repro.cluster.FleetTopology.canonical`,
    #: the canonical JSON of the topology's document.  Grid axes named
    #: ``fleet.<key>`` edit a top-level key of that document, and
    #: ``fleet.<group-or-tenant>.<key>`` a group key / tenant workload
    #: knob -- that is how a sweep explores fleet *shape* axes.
    fleet: Optional[str] = None
    #: How the fleet cells execute: the document ``run:`` block as read, the
    #: :class:`~repro.cluster.FleetRunConfig` fields it sets as sorted
    #: ``(field, value)`` pairs.  A field set to its default stays set, so
    #: the entry point that runs the scenario applies exactly these fields
    #: when it builds the runner's config, once
    #: (``SweepRunner(fleet_config=...)``).  It stays on the scenario, never
    #: on a cell: no execution knob changes a result or a cache key.
    run: tuple[tuple[str, Any], ...] = ()
    seed: int = 17
    #: "fixed" uses ``seed`` for every cell (paper-figure behaviour);
    #: "derived" derives a per-cell seed from the grid point, so no two cells
    #: share an RNG stream.
    seed_mode: str = "fixed"
    tags: tuple[str, ...] = ()
    #: Escape hatch for scenarios whose cells need per-cell logic (the paper
    #: figures).  Not part of the declarative payload.
    cell_builder: Optional[Callable[[], list[CellSpec]]] = field(
        default=None, compare=False)

    def grid_points(self) -> list[dict[str, Any]]:
        return expand_grid({axis: values for axis, values in self.grid})

    def cells(self) -> list[CellSpec]:
        """Expand the scenario into independent cell specs.

        Each device x grid point becomes a cell document -- the scenario
        document's ``base``, ``streams`` and ``fleet``, then the point's
        axes (:func:`_apply_axis`) -- read back through
        :func:`repro.config.cell_from_document`.  So grid values are typed
        by the cell readers, and a bad one fails here, named by its key in
        the cell document (``queue_depth: expected positive int``).  The
        ``run`` block is not copied: it is an execution knob, which the
        scenario keeps for its runner.
        """
        if self.cell_builder is not None:
            return self.cell_builder()
        from repro.config import cell_from_document

        cells = []
        for device in self.devices:
            for point in self.grid_points():
                labels = {"device": device, **point}
                seed = self.seed if self.seed_mode == "fixed" \
                    else derive_seed(self.seed, labels)
                # The axes edit the document in place, so each cell gets a
                # fresh one.  The base comes after the defaults, so a base
                # entry named "device" or "seed" stays authoritative (and a
                # grid axis after it: one may sweep seeds, for example).
                scenario_document = self.to_document()
                document = {"device": device, "seed": seed,
                            "ssd_capacity_bytes": DEFAULT_SSD_CAPACITY,
                            "essd_capacity_bytes": DEFAULT_ESSD_CAPACITY,
                            **scenario_document.get("base", {}),
                            "labels": labels}
                for key in ("streams", "fleet"):
                    if key in scenario_document:
                        document[key] = scenario_document[key]
                for axis, value in point.items():
                    _apply_axis(document, axis, value)
                cells.append(cell_from_document(document, path=""))
        return cells

    def to_document(self) -> dict[str, Any]:
        """The YAML/JSON document form (see :mod:`repro.config`).

        ``cell_builder`` scenarios (the paper figures) have no declarative
        form and raise :class:`repro.config.ConfigError`.
        """
        from repro.config import scenario_to_document

        return scenario_to_document(self)

    @classmethod
    def from_document(cls, document: Mapping[str, Any],
                      path: str = "scenario") -> "ScenarioSpec":
        """Build from a document, validating with path-addressed errors."""
        from repro.config import scenario_from_document

        return scenario_from_document(document, path=path)


def _apply_axis(document: dict, axis: str, value: Any) -> None:
    """Write one grid axis into a cell document (in place).

    ``fleet.*`` edits the fleet topology (:func:`_apply_fleet_axis`),
    ``<stream>.<field>`` sets that stream's override, a device-profile knob
    (:data:`_DEVICE_PARAM_AXES`) sets ``device_params``, a
    :class:`CellSpec` field sets the field, and any other axis is a pattern
    knob in ``pattern_params``.
    """
    if axis.startswith("fleet."):
        if "fleet" not in document:
            raise ValueError(f"grid axis {axis!r} needs a fleet topology "
                             f"(scenario(..., fleet=...))")
        _apply_fleet_axis(document["fleet"], axis, value)
    elif "." in axis:
        stream, _, key = axis.partition(".")
        streams = document.get("streams", {})
        if stream not in streams:
            raise ValueError(f"grid axis {axis!r} targets unknown stream "
                             f"{stream!r} (streams: {sorted(streams)})")
        streams[stream][key] = value
    elif axis in _DEVICE_PARAM_AXES:
        document.setdefault("device_params", {})[axis] = value
    elif axis in _CELL_FIELDS:
        document[axis] = value
    else:
        document.setdefault("pattern_params", {})[axis] = value


def _apply_fleet_axis(document: dict, axis: str, value: Any) -> None:
    """Apply a ``fleet.*`` grid axis onto a topology document (in place).

    ``fleet.<key>`` sets a top-level key (``epoch_us``, ``seed``, ...);
    ``fleet.<name>.<key>`` sets a key of the device group ``<name>`` or, when
    ``<name>`` is a tenant, a workload knob.  Groups win name collisions.
    Any other path walks the document's mappings, so
    ``fleet.fault_policy.<key>`` sets a :class:`~repro.cluster.FaultPolicy`
    knob and ``fleet.<group>.device_params.<key>`` a device-profile override
    such as the SSD's over-provisioning ratio.  Beyond refusing the two
    document-only keys, the axis code checks no key itself: the edited
    document goes back through :func:`repro.config.topology_from_document`,
    so a misspelled axis fails there with its document path
    (``fleet.groups[0].cont: unknown key``).
    """
    from repro.config import ConfigError

    keys = axis.split(".")[1:]
    named = {tenant["name"]: tenant["workload"]
             for tenant in document.get("tenants", ())}
    named.update((group["name"], group) for group in document["groups"])
    node = document
    if len(keys) > 1 and keys[0] in named:
        node = named[keys.pop(0)]
    elif keys[0] in ("kind", "profiles"):
        # The reader accepts both, but neither is a topology field (profiles
        # are expanded into device_params on load), so such an axis would
        # change nothing.
        raise ConfigError(f"fleet.{keys[0]}", "not a topology field, so "
                                              "not a grid axis")
    *parents, leaf = keys
    for key in parents:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[leaf] = value


def scenario(name: str, description: str, devices: Sequence[str],
             base: Optional[Mapping[str, Any]] = None,
             grid: Optional[Mapping[str, Sequence[Any]]] = None,
             streams: Optional[Mapping[str, Mapping[str, Any]]] = None,
             fleet: Optional["FleetTopology"] = None,
             run: Optional[Mapping[str, Any]] = None,
             seed: int = 17, seed_mode: str = "fixed",
             tags: Sequence[str] = (),
             cell_builder: Optional[Callable[[], list[CellSpec]]] = None,
             ) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from plain dicts (normalised to tuples).

    ``run`` is the fields of a ``run:`` block (checked as one
    :class:`~repro.cluster.FleetRunConfig`).  ``name`` must be one path
    component (:func:`~repro.experiments.sweep.check_scenario_name`).
    """
    check_scenario_name(name)
    if seed_mode not in ("fixed", "derived"):
        raise ValueError(f"unknown seed_mode {seed_mode!r}")
    FleetRunConfig(**(run or {}))
    return ScenarioSpec(
        name=name,
        description=description,
        devices=tuple(devices),
        base=tuple(sorted((base or {}).items())),
        grid=tuple((axis, tuple(values)) for axis, values in (grid or {}).items()),
        streams=tuple(sorted(
            (stream_name, tuple(sorted(overrides.items())))
            for stream_name, overrides in (streams or {}).items())),
        fleet=None if fleet is None else fleet.canonical(),
        run=tuple(sorted((run or {}).items())),
        seed=seed,
        seed_mode=seed_mode,
        tags=tuple(tags),
        cell_builder=cell_builder,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add a scenario to the registry (error on duplicate unless ``replace``)."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    load_user_scenarios()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def all_scenarios() -> list[ScenarioSpec]:
    load_user_scenarios()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# ---------------------------------------------------------------------------
# User scenario documents ($REPRO_SCENARIO_PATH)
# ---------------------------------------------------------------------------

#: The ``$REPRO_SCENARIO_PATH`` value last scanned (``None`` = never) and
#: the warnings that scan produced.  The scan re-runs whenever the variable
#: changes (tests flip it per-case) and is otherwise a no-op.
_SCANNED_PATH: Optional[str] = None
_SCAN_WARNINGS: list[tuple[str, str]] = []


def load_user_scenarios(force: bool = False) -> list[tuple[str, str]]:
    """Register scenario documents from ``$REPRO_SCENARIO_PATH``.

    Every ``*.yaml`` / ``*.yml`` / ``*.json`` file in the listed directories
    is loaded through :mod:`repro.config` and registered with
    ``replace=True`` (user documents may shadow built-ins deliberately).
    Returns ``(file, message)`` warnings for files that failed to load --
    callers surface them; a bad file never aborts the scan.  Memoized on the
    environment value; pass ``force=True`` to rescan (e.g. after editing a
    document in a live ``serve`` process).
    """
    global _SCANNED_PATH

    import os

    raw = os.environ.get("REPRO_SCENARIO_PATH", "")
    if raw == _SCANNED_PATH and not force:
        return list(_SCAN_WARNINGS)
    _SCANNED_PATH = raw
    _SCAN_WARNINGS.clear()
    if not raw:
        return []
    from repro.config import scan_scenario_dirs

    specs, warnings = scan_scenario_dirs()
    for spec in specs:
        register(spec, replace=True)
    _SCAN_WARNINGS.extend(warnings)
    return list(warnings)


# ---------------------------------------------------------------------------
# Built-in characterization scenarios
# ---------------------------------------------------------------------------

_ALL_DEVICES = ("SSD", "ESSD-1", "ESSD-2")
_ESSDS = ("ESSD-1", "ESSD-2")

register(scenario(
    "latency-grid",
    "Latency vs I/O size and queue depth for all devices (Figure 2 family)",
    devices=_ALL_DEVICES,
    base={"pattern": "randwrite", "io_count": 120, "preload": False},
    grid={"io_size": (4 * KiB, 64 * KiB, 256 * KiB), "queue_depth": (1, 4, 16)},
    tags=("latency", "paper-adjacent"),
))

register(scenario(
    "rand-vs-seq-write",
    "Random vs sequential write throughput grid (Figure 4 family)",
    devices=_ALL_DEVICES,
    base={"io_count": 300, "ramp_ios": 16, "preload": False},
    grid={"pattern": ("randwrite", "write"),
          "io_size": (16 * KiB, 64 * KiB), "queue_depth": (8, 32)},
    seed=43,
    tags=("throughput", "paper-adjacent"),
))

register(scenario(
    "rw-ratio-sweep",
    "Mixed read/write ratio sweep at fixed I/O size (Figure 5 family)",
    devices=_ALL_DEVICES,
    base={"pattern": "randrw", "io_size": 128 * KiB, "queue_depth": 16,
          "io_count": 250, "ramp_ios": 16, "preload": True},
    grid={"write_ratio": (0.0, 0.25, 0.5, 0.75, 1.0)},
    seed=57,
    tags=("throughput", "mixed"),
))

register(scenario(
    "zipf-hotspot",
    "Zipf-skewed random access: how hot-spot skew shapes latency and IOPS",
    devices=_ESSDS,
    base={"pattern": "zipfrw", "io_size": 4 * KiB, "queue_depth": 8,
          "io_count": 300, "preload": True},
    grid={"theta": (1.05, 1.2, 1.5), "write_ratio": (0.0, 0.5)},
    seed=11,
    seed_mode="derived",
    tags=("skew",),
))

register(scenario(
    "hot-cold",
    "Hot/cold locality sweep: a small hot set absorbs most of the traffic",
    devices=_ALL_DEVICES,
    base={"pattern": "hotcoldwrite", "io_size": 16 * KiB, "queue_depth": 8,
          "io_count": 300, "preload": False},
    grid={"hot_fraction": (0.05, 0.2), "hot_access_fraction": (0.7, 0.95)},
    seed=23,
    seed_mode="derived",
    tags=("skew",),
))

register(scenario(
    "bursty-duty-cycle",
    "On/off bursty writes: duty cycle vs sustained throughput and tail",
    devices=_ESSDS,
    # queue_depth stays 1: the on/off phases are per worker stream (see
    # BurstyPattern), so a single closed-loop worker is what actually makes
    # the device-level arrival process bursty.
    base={"pattern": "bursty-randwrite", "io_size": 64 * KiB, "queue_depth": 1,
          "io_count": 300, "preload": False,
          "pattern_params": (("burst_ios", 32), ("service_estimate_us", 150.0))},
    grid={"duty_cycle": (0.25, 0.5, 0.9)},
    seed=31,
    seed_mode="derived",
    tags=("bursty",),
))

register(scenario(
    "noisy-neighbor",
    "Latency-sensitive 4K random reads vs a bulk sequential writer sharing "
    "one device; sweeps the neighbor's queue depth, traces the request path",
    devices=("SSD", "ESSD-2"),
    base={"io_count": 200, "preload": True, "trace": True},
    streams={
        "victim": {"pattern": "randread", "io_size": 4 * KiB,
                   "queue_depth": 1, "io_count": 200},
        "neighbor": {"pattern": "randwrite", "io_size": 256 * KiB,
                     "io_count": 120},
    },
    grid={"neighbor.queue_depth": (1, 8, 32)},
    seed=61,
    seed_mode="derived",
    tags=("multi-tenant", "trace"),
))

register(scenario(
    "mixed-fleet",
    "SSD + ESSD-1 + ESSD-2 serving the same workload under one clock, with "
    "per-stage latency breakdowns from the trace layer",
    devices=("fleet",),
    base={"pattern": "randwrite", "queue_depth": 8, "io_count": 150,
          "preload": True, "trace": True},
    streams={
        "on-ssd": {"device": "SSD"},
        "on-essd1": {"device": "ESSD-1"},
        "on-essd2": {"device": "ESSD-2"},
    },
    grid={"io_size": (16 * KiB, 128 * KiB)},
    seed=67,
    seed_mode="derived",
    tags=("multi-tenant", "fleet", "trace"),
))

register(scenario(
    "replication",
    "Replication-factor x chunk-size grid over the EBS cluster: how much "
    "write latency and throughput the durability level and striping "
    "granularity cost",
    devices=_ESSDS,
    base={"pattern": "randwrite", "io_size": 64 * KiB, "queue_depth": 8,
          "io_count": 200, "ramp_ios": 8, "preload": False},
    grid={"replication_factor": (1, 2, 3),
          "chunk_size": (512 * KiB, 2 * MiB)},
    seed=71,
    seed_mode="derived",
    tags=("ebs", "replication"),
))

register(scenario(
    "trace-arrivals",
    "Open-loop bursty arrivals (workload/trace.py) replayed against the "
    "ESSDs: offered load and burst factor vs completion tail",
    devices=_ESSDS,
    base={"pattern": "trace-bursty", "io_size": 64 * KiB, "preload": False,
          "pattern_params": (("duration_us", 150_000.0),
                             ("period_us", 20_000.0))},
    grid={"mean_load_gbps": (0.4, 1.2), "burst_factor": (4.0, 8.0)},
    seed=83,
    seed_mode="derived",
    tags=("bursty", "trace"),
))


def _fleet_smoke_topology():
    """64+ devices across mixed SSD/ESSD groups with one replication edge."""
    from repro.cluster import edge, fleet, group, tenant

    return fleet(
        "fleet-smoke",
        groups=[
            group("web", "SSD", 16),
            group("db", "SSD", 12),
            group("db-mirror", "SSD", 12),
            group("cache", "ESSD-2", 12),
            group("bulk", "ESSD-1", 12),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4 * KiB,
                   queue_depth=2, io_count=60),
            tenant("oltp", "db", pattern="randwrite", io_size=16 * KiB,
                   queue_depth=4, io_count=60),
            tenant("lookup", "cache", pattern="randrw", io_size=16 * KiB,
                   queue_depth=4, write_ratio=0.3, io_count=40),
            tenant("ingest", "bulk", pattern="write", io_size=256 * KiB,
                   queue_depth=8, io_count=40),
        ],
        edges=[edge("db", "db-mirror", replication_factor=2)],
        epoch_us=1000.0,
        seed=101,
    )


register(scenario(
    "fleet-smoke",
    "Cluster-scale smoke fleet: 64+ mixed SSD/ESSD devices, four tenants, "
    "a 2-way replication edge; sweeps the web tier's size",
    devices=("fleet",),
    fleet=_fleet_smoke_topology(),
    grid={"fleet.web.count": (16, 24)},
    tags=("fleet", "cluster"),
))


def _datacenter_diurnal_topology():
    """Trace-driven fleet: diurnal + bursty arrival processes on ESSDs."""
    from repro.cluster import edge, fleet, group, tenant

    return fleet(
        "datacenter-diurnal",
        groups=[
            group("pl3", "ESSD-2", 16),
            group("pl3-mirror", "ESSD-2", 8),
            group("io2", "ESSD-1", 8),
        ],
        tenants=[
            tenant("diurnal", "pl3", trace="diurnal",
                   duration_us=200_000.0, mean_load_gbps=0.2,
                   peak_to_trough=4.0, io_size=64 * KiB, write_ratio=0.7),
            tenant("bursty", "io2", trace="bursty",
                   duration_us=200_000.0, mean_load_gbps=0.25,
                   burst_factor=6.0, burst_fraction=0.1,
                   period_us=25_000.0, io_size=64 * KiB),
        ],
        # The diurnal writers mirror asynchronously onto a second ESSD-2
        # tier: a long trace-driven fleet with steady replica traffic, the
        # shape the coordinator's batched run-ahead windows target.
        edges=[edge("pl3", "pl3-mirror")],
        epoch_us=5000.0,
        seed=131,
    )


register(scenario(
    "datacenter-diurnal",
    "Trace-driven fleet (workload/trace.py): a diurnal day/night curve on "
    "16 PL3 volumes next to on/off bursts on 8 io2 volumes",
    devices=("fleet",),
    fleet=_datacenter_diurnal_topology(),
    grid={"fleet.diurnal.mean_load_gbps": (0.2, 0.4)},
    tags=("fleet", "cluster", "trace"),
))

def _failover_storm_topology():
    """Replicated ESSD store with a hot spare: one device fails mid-run and
    is rebuilt onto the promoted spare while a second device drains."""
    from repro.cluster import FaultPolicy, edge, fault, fleet, group, tenant

    return fleet(
        "failover-storm",
        groups=[
            group("store", "ESSD-2", 8),
            group("mirror", "ESSD-2", 8),
            # The spare tier sits idle until a failure promotes it; no
            # preload so its first writes are the rebuild chunks.
            group("spare", "ESSD-2", 2, preload=False),
        ],
        tenants=[
            tenant("oltp", "store", pattern="randwrite", io_size=64 * KiB,
                   queue_depth=8, io_count=300),
            tenant("reads", "mirror", pattern="randread", io_size=4 * KiB,
                   queue_depth=2, io_count=300),
        ],
        edges=[edge("store", "mirror", replication_factor=2)],
        faults=[
            fault("fail", "store", at_us=1_500.0, device=0,
                  repair_after_us=8_000.0, spare="spare"),
            fault("drain", "mirror", at_us=2_500.0, device=3,
                  repair_after_us=4_000.0),
        ],
        fault_policy=FaultPolicy(rebuild_chunk_bytes=128 * KiB,
                                 shed_penalty_us=150.0),
        epoch_us=500.0,
        seed=211,
    )


register(scenario(
    "failover-storm",
    "Device failure in a replicated ESSD store: re-replication onto a hot "
    "spare competes with foreground traffic while a mirror device drains; "
    "sweeps the rebuild admission rate (chunks released per epoch)",
    devices=("fleet",),
    fleet=_failover_storm_topology(),
    grid={"fleet.fault_policy.rebuild_chunks_per_epoch": (2, 8, 32)},
    tags=("fleet", "cluster", "faults"),
))


def _gc_cliff_topology():
    """Mirrored SSD tier filling toward its GC cliff when a device fails:
    rebuild traffic lands on the survivors exactly as garbage collection
    starts charging for every foreground write."""
    from repro.cluster import FaultPolicy, edge, fault, fleet, group, tenant

    capacity = 96 * MiB
    return fleet(
        "gc-cliff",
        groups=[
            group("store", "SSD", 4, capacity_bytes=capacity, preload=False),
            group("mirror", "SSD", 4, capacity_bytes=capacity, preload=False),
        ],
        tenants=[
            # A 1.5x-capacity random-write flood: the device crosses its GC
            # cliff mid-run, and the fault below lands while it is climbing.
            tenant("flood", "store", pattern="randwrite", io_size=128 * KiB,
                   queue_depth=16, total_bytes=int(1.5 * capacity)),
        ],
        edges=[edge("store", "mirror")],
        # No spare: the rebuild storm round-robins onto the surviving store
        # devices, which are themselves deep into their flood.
        faults=[fault("fail", "store", at_us=30_000.0, device=1,
                      repair_after_us=60_000.0)],
        fault_policy=FaultPolicy(rebuild_chunk_bytes=256 * KiB,
                                 rebuild_chunks_per_epoch=4),
        epoch_us=2_000.0,
        seed=223,
    )


register(scenario(
    "gc-cliff",
    "Rebuild storm vs garbage collection: a mirrored SSD tier fails one "
    "device mid-flood; sweeps over-provisioning ratio x write-footprint "
    "utilization to map how much OP headroom the rebuild window needs",
    devices=("fleet",),
    fleet=_gc_cliff_topology(),
    grid={"fleet.store.device_params.op_ratio": (0.07, 0.2),
          "fleet.flood.region_bytes": (48 * MiB, 96 * MiB)},
    tags=("fleet", "cluster", "faults", "gc"),
))


def _macro_100k_topology():
    """100k devices as four calibrated macro groups: fleet size is a
    constant-cost parameter, so the whole run is four aggregate processes
    plus their per-tenant calibration probes."""
    from repro.cluster import fleet, group, tenant

    return fleet(
        "fleet-macro-100k",
        groups=[
            group("web", "SSD", 40_000, mode="macro"),
            group("db", "SSD", 25_000, mode="macro"),
            group("cache", "ESSD-2", 20_000, mode="macro"),
            group("bulk", "ESSD-1", 15_000, mode="macro"),
        ],
        tenants=[
            tenant("frontend", "web", pattern="randread", io_size=4 * KiB,
                   queue_depth=4, io_count=400),
            tenant("oltp", "db", pattern="randwrite", io_size=16 * KiB,
                   queue_depth=8, io_count=300),
            tenant("lookup", "cache", pattern="randrw", io_size=16 * KiB,
                   queue_depth=4, write_ratio=0.3, io_count=300),
            tenant("ingest", "bulk", pattern="write", io_size=256 * KiB,
                   queue_depth=8, io_count=300),
        ],
        # No edges or faults: each macro group steps one window per busy
        # epoch at a cost independent of its device count, which is what
        # makes 100k devices run in seconds.  fleet --macro on fleet-smoke
        # covers the edged case.
        epoch_us=1000.0,
        seed=241,
    )


register(scenario(
    "fleet-macro-100k",
    "Mean-field fleet at datacenter scale: 100k devices across four macro "
    "groups, advanced as calibrated aggregates (metrics approximate=True); "
    "sweeps the web tier from 40k to 60k devices",
    devices=("fleet",),
    fleet=_macro_100k_topology(),
    grid={"fleet.web.count": (40_000, 60_000)},
    tags=("fleet", "cluster", "macro"),
))


register(scenario(
    "sustained-write-flood",
    "Sustained random-write flood: GC cliff vs provider flow limit "
    "(Figure 3 family)",
    devices=_ALL_DEVICES,
    base={"pattern": "randwrite", "io_size": 128 * KiB, "queue_depth": 32,
          "total_bytes": int(1.6 * DEFAULT_SSD_CAPACITY), "preload": False,
          "series_bin_us": "auto"},
    grid={},
    seed=29,
    tags=("gc", "paper-adjacent"),
))
