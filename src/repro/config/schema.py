"""Document <-> object converters with path-addressed validation errors.

A *document* is the plain-data (YAML/JSON) form of a topology, a scenario,
or a sweep cell: mappings and lists of scalars, friendly to write by hand
(``device_params`` is a mapping, not the sorted-pairs tuple the frozen
dataclasses store).  Every ``*_from_document`` function validates the
document shape *before* constructing objects, so a malformed file fails
with the exact path of the offending value::

    fleet.groups[2].count: expected positive int
    scenario.streams.victim.queue_deth: unknown key (expected: ...)

Every mapping reads through :func:`_read_fields` and a table of one reader
per key, and a job field (``io_size``, ...) reads with the same reader
wherever a document declares a job (:data:`_JOB_READERS`).  Scenario cells
read back through :func:`cell_from_document`, which types grid values too.

Cross-field invariants (a tenant naming an unknown group, a replication
factor exceeding the target group) are enforced by the dataclasses
themselves; those errors are re-raised as :class:`ConfigError` carrying the
document path of the enclosing element.

The converters are lossless: ``topology -> document -> topology`` (and the
scenario / cell equivalents) is an identity, which is what lets a fleet
defined only in YAML produce metrics bit-identical to its Python-built
twin -- both sides collapse to the same canonical JSON and therefore the
same sweep-cache key.  The document is the only serial form of a fleet, of
a fault schedule and of a sweep cell: :meth:`FleetTopology.canonical
<repro.cluster.FleetTopology.canonical>` and
:func:`~repro.cluster.faults.canonical_fault_spec` write the canonical JSON
of a document, a cell's cache key, cache entry and result-file entry hold
its document, and every reader goes through the validating converters here.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from functools import partial
from typing import Any, Callable, Collection, Mapping, Optional, Sequence

__all__ = [
    "ConfigError",
    "cell_from_document",
    "cell_to_document",
    "document_kind",
    "fault_spec_from_document",
    "fault_spec_to_document",
    "fold_faults",
    "run_config_from_document",
    "scenario_for_document",
    "scenario_from_document",
    "scenario_to_document",
    "topology_from_document",
    "topology_to_document",
]


class ConfigError(ValueError):
    """A document validation failure at a specific path.

    ``str(error)`` reads ``<path>: <message>`` -- e.g.
    ``fleet.groups[2].count: expected positive int`` -- so CLI verbs can
    print it verbatim.  A document read at the empty root path (a scenario
    cell, see :func:`cell_from_document`) names its keys bare.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


# ---------------------------------------------------------------------------
# Typed accessors (every validation error speaks in document paths)
# ---------------------------------------------------------------------------

_SCALAR_TYPES = (str, bool, int, float, type(None))


def _type_name(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, Mapping):
        return "mapping"
    if isinstance(value, (list, tuple)):
        return "list"
    return type(value).__name__


def _as_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, Mapping):
        raise ConfigError(path, f"expected mapping, got {_type_name(value)}")
    return dict(value)


def _as_list(value: Any, path: str) -> list:
    if isinstance(value, Mapping) or not isinstance(value, (list, tuple)):
        raise ConfigError(path, f"expected list, got {_type_name(value)}")
    return list(value)


def _as_text(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected str, got {_type_name(value)}")
    return value


def _as_str(value: Any, path: str, choices: Optional[Sequence[str]] = None) -> str:
    if not _as_text(value, path):
        raise ConfigError(path, "expected non-empty str")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"expected one of {', '.join(choices)}; "
                                f"got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected bool, got {_type_name(value)}")
    return value


def _as_int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected int, got {_type_name(value)}")
    if minimum is not None and value < minimum:
        kind = "positive int" if minimum == 1 else f"int >= {minimum}"
        raise ConfigError(path, f"expected {kind}")
    return value


def _as_positive_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(path, "expected positive int")
    return value


def _as_number(value: Any, path: str, positive: bool = False,
               minimum: Optional[float] = None) -> float:
    """A finite number, returned as given: an int stays an int, so a stored
    value reads back to the same canonical JSON."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected number, got {_type_name(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"expected finite number, got {value}")
    if positive and value <= 0:
        raise ConfigError(path, "expected positive number")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"expected number >= {minimum}")
    return value


def _as_scalar(value: Any, path: str) -> Any:
    if not isinstance(value, _SCALAR_TYPES):
        raise ConfigError(path, f"expected scalar (str/number/bool/null), "
                                f"got {_type_name(value)}")
    return value


def _join(path: str, key: Any) -> str:
    """The path of ``key`` inside ``path`` (the root path may be empty)."""
    return f"{path}.{key}" if path else str(key)


def _check_keys(mapping: Mapping[str, Any], path: str,
                allowed: Collection[str], required: Sequence[str] = ()) -> None:
    for key in mapping:
        if not isinstance(key, str):
            raise ConfigError(path, f"expected str keys, got {_type_name(key)}")
        if key not in allowed:
            raise ConfigError(_join(path, key),
                              f"unknown key (expected: {', '.join(sorted(allowed))})")
    for key in required:
        if key not in mapping:
            raise ConfigError(path, f"missing required key {key!r}")


def _scalar_mapping(value: Any, path: str) -> dict[str, Any]:
    """A mapping of str -> scalar (device_params, labels, grid points)."""
    mapping = _as_mapping(value, path)
    return {_as_str(key, path): _as_scalar(entry, f"{path}.{key}")
            for key, entry in mapping.items()}


def _sorted_pairs(mapping: Mapping[str, Any]) -> tuple:
    return tuple(sorted(mapping.items()))


def _scalar_pairs(value: Any, path: str) -> tuple:
    """A str -> scalar mapping in the sorted-pairs form dataclasses store."""
    return _sorted_pairs(_scalar_mapping(value, path))


def _optional(reader: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """``reader`` for a field whose value may also be ``null``."""
    def read(value: Any, path: str) -> Any:
        return None if value is None else reader(value, path)
    return read


def _read_fields(value: Any, path: str,
                 readers: Mapping[str, Callable[..., Any]],
                 required: Sequence[str] = ()) -> dict[str, Any]:
    """Validate a mapping key by key, each key with its own reader (called
    as ``reader(value, path=...)``); keys without a reader are rejected and
    absent keys stay absent."""
    mapping = _as_mapping(value, path)
    _check_keys(mapping, path, readers, required=required)
    return {key: readers[key](entry, path=_join(path, key))
            for key, entry in mapping.items()}


def _read_list(value: Any, path: str,
               read: Callable[[Any, str], Any]) -> tuple:
    return tuple(read(entry, f"{path}[{index}]")
                 for index, entry in enumerate(_as_list(value, path)))


def _read_nonempty_list(value: Any, path: str,
                        read: Callable[[Any, str], Any]) -> tuple:
    values = _read_list(value, path, read)
    if not values:
        raise ConfigError(path, "expected at least one value")
    return values


def _construct(cls, fields: dict[str, Any], path: str):
    """``cls(**fields)``, with the dataclass's own invariant errors
    re-raised as a :class:`ConfigError` at ``path``."""
    try:
        return cls(**fields)
    except ValueError as error:
        raise ConfigError(path, str(error)) from None


# ---------------------------------------------------------------------------
# Device registry hooks
# ---------------------------------------------------------------------------

def _known_devices() -> list[str]:
    from repro.devices import device_names

    return device_names()


def _check_device(name: Any, path: str, extra: Sequence[str] = ()) -> str:
    name = _as_str(name, path)
    known = _known_devices()
    if name not in known and name not in extra:
        raise ConfigError(path, f"unknown device {name!r} "
                                f"(known: {', '.join(sorted([*known, *extra]))})")
    return name


def _check_device_params(params: Mapping[str, Any], device: str,
                         path: str) -> None:
    """Validate override keys against the family's profile fields."""
    from repro.devices import profile_fields

    fields = profile_fields(device)
    if fields is None:
        return
    for key in params:
        if key not in fields:
            raise ConfigError(f"{path}.{key}",
                              f"not a profile field of {device!r} "
                              f"(known: {', '.join(sorted(fields))})")


# ---------------------------------------------------------------------------
# Job fields
# ---------------------------------------------------------------------------

def _as_pattern(value: Any, path: str, trace: bool = False) -> str:
    """A pattern name that runs: one :func:`~repro.workload.make_pattern`
    builds (``bursty-`` prefixes included), the pattern of every FIO job.
    With ``trace``, also ``trace-<family>``, a trace family's open-loop
    replay, which only a cell's own pattern runs."""
    from repro.workload.patterns import PATTERN_NAMES, known_pattern
    from repro.workload.trace import TRACE_FAMILIES

    name = _as_str(value, path)
    if name.startswith("trace-"):
        if not trace:
            raise ConfigError(path, f"unknown pattern {name!r}: only a "
                                    f"cell's own pattern replays a trace (a "
                                    f"fleet tenant sets trace: <family>)")
        if name[len("trace-"):] in TRACE_FAMILIES:
            return name
    elif known_pattern(name):
        return name
    expected = f"{', '.join(PATTERN_NAMES)}, each also as bursty-<name>"
    if trace:
        expected += (f"; or trace-<family> for "
                     f"{', '.join(sorted(TRACE_FAMILIES))}")
    raise ConfigError(path, f"unknown pattern {name!r} (expected: {expected})")


def _check_write_ratio(pattern: str, write_ratio: Optional[float],
                       path: str) -> None:
    """A job whose pattern is mixed draws each I/O's kind with its write
    ratio, so it needs one in [0, 1] (``path`` is the job's).  Any other
    FIO pattern ignores the ratio, and a trace replay reads one above 1 as
    all writes, so the ``write_ratio`` reader alone checks only ``>= 0``."""
    from repro.workload.patterns import mixed_pattern

    if mixed_pattern(pattern) and (write_ratio is None or write_ratio > 1):
        got = "" if write_ratio is None else f", got {write_ratio}"
        raise ConfigError(_join(path, "write_ratio"),
                          f"expected a number in [0, 1] for the mixed "
                          f"pattern {pattern!r}{got}")


#: One reader per :class:`~repro.workload.fio.FioJob` field (``name`` aside:
#: whoever runs a job names it).  A key naming a job field reads with this
#: reader wherever it appears: a cell, a scenario ``base``, a stream
#: override, or a FIO or trace tenant's workload.  Only a cell's own
#: ``pattern`` reads differently, since only a cell replays a trace.
_JOB_READERS: dict[str, Callable[[Any, str], Any]] = {
    "pattern": _as_pattern,
    "io_size": _as_positive_int,
    "queue_depth": _as_positive_int,
    "write_ratio": _optional(partial(_as_number, minimum=0.0)),
    "io_count": _optional(_as_positive_int),
    "total_bytes": _optional(_as_positive_int),
    "runtime_us": _optional(partial(_as_number, positive=True)),
    "region_bytes": _optional(_as_positive_int),
    "ramp_ios": partial(_as_int, minimum=0),
    "think_time_us": partial(_as_number, minimum=0.0),
    "pattern_params": _scalar_pairs,
    "seed": _as_int,
}


def _field_to_document(key: str, value: Any) -> Any:
    """The document form of a stored job or cell field: mappings for
    sorted pairs and stream overrides, and the documents behind the
    canonical JSON that ``fleet`` and ``faults`` store.  Always a fresh
    object, so the caller may edit it."""
    if key in ("pattern_params", "device_params", "labels"):
        return dict(value)
    if key == "streams":
        return {name: {field: _field_to_document(field, entry)
                       for field, entry in dict(overrides).items()}
                for name, overrides in dict(value).items()}
    if key in ("fleet", "faults"):
        return json.loads(value)
    return value


# ---------------------------------------------------------------------------
# Dataclass documents (topologies and fault specs)
# ---------------------------------------------------------------------------
#
# A writer leaves out every field equal to its dataclass default, and a
# reader leaves every absent key to that default, so the defaults live only
# on the ``repro.cluster`` dataclasses (whose source the sweep cache's model
# fingerprint hashes) and never in this module.

def _non_default_fields(obj) -> dict[str, Any]:
    """The dataclass fields of ``obj`` that differ from their defaults."""
    return {field.name: getattr(obj, field.name)
            for field in dataclasses.fields(obj)
            if field.default is dataclasses.MISSING
            or getattr(obj, field.name) != field.default}


_FAULT_EVENT_READERS = {
    "kind": _as_str,
    "group": _as_str,
    "at_us": partial(_as_number, minimum=0.0),
    "device": _optional(partial(_as_int, minimum=0)),
    "repair_after_us": _optional(partial(_as_number, positive=True)),
    "spare": _optional(_as_str),
}

_FAULT_POLICY_READERS = {
    "rebuild_chunk_bytes": _as_positive_int,
    "rebuild_chunks_per_epoch": _as_positive_int,
    "shed_penalty_us": partial(_as_number, minimum=0.0),
    "max_inflight": _optional(_as_positive_int),
}


def _fault_event_from_document(value: Any, path: str):
    from repro.cluster.faults import FaultEvent

    return _construct(FaultEvent, _read_fields(
        value, path, _FAULT_EVENT_READERS,
        required=("kind", "group", "at_us")), path)


def _fault_policy_from_document(value: Any, path: str):
    from repro.cluster.faults import FaultPolicy

    return _construct(FaultPolicy,
                      _read_fields(value, path, _FAULT_POLICY_READERS), path)


def fault_spec_to_document(events, policy) -> dict:
    """The document form of a fault schedule: ``{"events": [...]}`` plus
    ``"policy"`` when the :class:`~repro.cluster.FaultPolicy` is not the
    default one.  Its canonical JSON is what ``CellSpec.faults`` stores."""
    document: dict[str, Any] = {
        "events": [_non_default_fields(event) for event in events]}
    policy_document = _non_default_fields(policy)
    if policy_document:
        document["policy"] = policy_document
    return document


def fault_spec_from_document(value: Any, *, path: str = "faults") -> tuple:
    """``(events, policy)`` from a fault-spec document: a bare list of
    fault events, or ``{"events": [...], "policy": {...}}``.  Events and
    policy read exactly like a topology document's ``faults`` and
    ``fault_policy``."""
    from repro.cluster.faults import FaultPolicy

    if isinstance(value, Mapping):
        spec = _read_fields(value, path, {
            "events": partial(_read_list, read=_fault_event_from_document),
            "policy": _fault_policy_from_document})
    else:
        spec = {"events": _read_list(value, path, _fault_event_from_document)}
    return spec.get("events", ()), spec.get("policy", FaultPolicy())


def topology_to_document(topology, *, kind: Optional[str] = "fleet") -> dict:
    """The document form of a :class:`~repro.cluster.FleetTopology`.

    Defaults are omitted for readability; :func:`topology_from_document`
    reapplies them, so the round trip is exact.  With ``kind=None`` its
    canonical JSON is :meth:`FleetTopology.canonical`.
    """
    document: dict[str, Any] = {} if kind is None else {"kind": kind}
    document.update(_non_default_fields(topology))
    groups = []
    for group in topology.groups:
        entry = _non_default_fields(group)
        if group.device_params:
            entry["device_params"] = dict(group.device_params)
        groups.append(entry)
    document["groups"] = groups
    if topology.tenants:
        document["tenants"] = [
            {"name": tenant.name, "group": tenant.group,
             "workload": {key: _field_to_document(key, value)
                          for key, value in tenant.workload}}
            for tenant in topology.tenants]
    for key in ("edges", "faults"):
        if key in document:
            document[key] = [_non_default_fields(entry)
                             for entry in document[key]]
    if "fault_policy" in document:
        document["fault_policy"] = _non_default_fields(topology.fault_policy)
    return document


def _workload_readers(workload: Mapping[str, Any], path: str) -> dict:
    """The readers of a tenant workload: the FioJob fields' for a FIO
    tenant; for a trace tenant, its family's synthesis knobs, each a number
    unless it names a job field (the shard supplies ``name`` itself)."""
    from repro.workload.trace import TRACE_FAMILIES

    if "trace" not in workload:
        return _JOB_READERS
    family = _as_str(workload["trace"], f"{path}.trace",
                     choices=sorted(TRACE_FAMILIES))
    knobs = inspect.signature(TRACE_FAMILIES[family]).parameters
    return {"trace": _as_str,
            **{knob: _JOB_READERS.get(knob, _as_number)
               for knob in knobs if knob != "name"}}


def _workload_from_document(value: Any, path: str) -> tuple:
    from repro.workload.fio import FioJob

    workload = _as_mapping(value, path)
    fields = _read_fields(workload, path, _workload_readers(workload, path))
    if "trace" not in fields:
        _check_write_ratio(fields.get("pattern", FioJob.pattern),
                           fields.get("write_ratio"), path)
    return _sorted_pairs(fields)


_TENANT_READERS = {"name": _as_str, "group": _as_str,
                   "workload": _workload_from_document}

_EDGE_READERS = {"source": _as_str, "target": _as_str,
                 "replication_factor": _as_positive_int}


def _tenant_from_document(value: Any, path: str):
    from repro.cluster.topology import Tenant

    return _construct(Tenant, _read_fields(
        value, path, _TENANT_READERS,
        required=("name", "group", "workload")), path)


def _edge_from_document(value: Any, path: str):
    from repro.cluster.topology import ReplicationEdge

    return _construct(ReplicationEdge, _read_fields(
        value, path, _EDGE_READERS, required=("source", "target")), path)


def _expand_profiles(document: Mapping[str, Any], path: str) -> dict[str, dict]:
    """Validate the ``profiles`` section: named device-profile presets.

    A profile is load-time sugar -- groups referencing one are rewritten to
    the underlying registered family with the preset's ``params`` merged
    under their own ``device_params`` (the group wins key collisions).  The
    canonical topology therefore only ever names registered families, which
    keeps worker processes (which import the registry, not the document)
    able to build every device.
    """
    profiles: dict[str, dict] = {}
    section = _as_mapping(document.get("profiles", {}), f"{path}.profiles")
    for name, entry in section.items():
        name = _as_str(name, f"{path}.profiles")
        profile_path = f"{path}.profiles.{name}"
        profile = _read_fields(entry, profile_path,
                               {"device": _check_device,
                                "params": _scalar_mapping},
                               required=("device",))
        params = profile.get("params", {})
        _check_device_params(params, profile["device"], f"{profile_path}.params")
        profiles[name] = {"device": profile["device"], "params": params}
    return profiles


def topology_from_document(document: Any, *, path: str = "fleet"):
    """Build a validated :class:`~repro.cluster.FleetTopology` from a document.

    Besides the topology's fields a document may carry ``kind`` and
    ``profiles``; the wrapper keys of a standalone fleet document
    (``description``, ``tags``, ``run``) are read by
    :func:`scenario_for_document` and rejected here.
    """
    from repro.cluster.topology import GROUP_MODES, DeviceGroup, FleetTopology

    document = _as_mapping(document, path)
    profiles = _expand_profiles(document, path)
    group_readers = {
        "name": _as_str,
        "device": partial(_check_device, extra=tuple(profiles)),
        "count": _as_positive_int,
        "capacity_bytes": _optional(_as_positive_int),
        "device_params": _scalar_mapping,
        "preload": _as_bool,
        "mode": partial(_as_str, choices=GROUP_MODES),
    }

    def read_group(value: Any, group_path: str):
        fields = _read_fields(value, group_path, group_readers,
                              required=("name", "device", "count"))
        preset = profiles.get(fields["device"])
        if preset is not None:
            fields["device"] = preset["device"]
            fields["device_params"] = {**preset["params"],
                                       **fields.get("device_params", {})}
        if "device_params" in fields:
            _check_device_params(fields["device_params"], fields["device"],
                                 f"{group_path}.device_params")
            fields["device_params"] = _sorted_pairs(fields["device_params"])
        return _construct(DeviceGroup, fields, group_path)

    fields = _read_fields(document, path, {
        "kind": partial(_as_str, choices=("fleet", "topology")),
        "profiles": _as_mapping,  # read above by _expand_profiles
        "name": _as_str,
        "groups": partial(_read_list, read=read_group),
        "tenants": partial(_read_list, read=_tenant_from_document),
        "edges": partial(_read_list, read=_edge_from_document),
        "faults": partial(_read_list, read=_fault_event_from_document),
        "fault_policy": _fault_policy_from_document,
        "epoch_us": partial(_as_number, positive=True),
        "seed": _as_int,
    }, required=("name", "groups"))
    fields.pop("kind", None)
    fields.pop("profiles", None)
    return _construct(FleetTopology, fields, path)


# ---------------------------------------------------------------------------
# Run-config documents (the ``run:`` block)
# ---------------------------------------------------------------------------

def _as_transport(value: Any, path: str) -> str:
    from repro.cluster.transport import TRANSPORTS

    return _as_str(value, path, choices=TRANSPORTS)


_RUN_CONFIG_READERS = {"shards": _as_positive_int,
                       "run_ahead": _as_positive_int,
                       "transport": _as_transport,
                       "max_epochs": _as_positive_int}


def run_config_from_document(document: Any, *, path: str = "run"
                             ) -> dict[str, Any]:
    """The ``run:`` block of a fleet or scenario document as read: the
    :class:`~repro.cluster.FleetRunConfig` fields it sets, checked as one
    config.  A field set to its default stays set, so whoever applies the
    block (``ScenarioSpec.run``) applies exactly the fields it names."""
    from repro.cluster.transport import FleetRunConfig

    fields = _read_fields(document, path, _RUN_CONFIG_READERS)
    _construct(FleetRunConfig, fields, path)
    return fields


# ---------------------------------------------------------------------------
# Cell documents
# ---------------------------------------------------------------------------

def _as_series_bin(value: Any, path: str) -> Any:
    if value is None or value == "auto":
        return value
    return _as_number(value, path, positive=True)


def _read_streams(value: Any, path: str) -> tuple:
    """Stream overrides in the form cells store: sorted ``(name, pairs)``."""
    return tuple(sorted(
        (_as_str(name, path), _sorted_pairs(
            _read_fields(overrides, f"{path}.{name}", _STREAM_READERS)))
        for name, overrides in _as_mapping(value, path).items()))


def _read_fleet(value: Any, path: str) -> str:
    return topology_from_document(value, path=path).canonical()


def _read_faults(value: Any, path: str) -> str:
    from repro.cluster.faults import canonical_fault_spec

    return canonical_fault_spec(*fault_spec_from_document(value, path=path))


def fold_faults(fleet: str, faults: str) -> str:
    """The topology ``fleet`` with the fault spec ``faults`` as its schedule
    and policy, replacing any it declares; both are the canonical JSON a
    :class:`~repro.experiments.sweep.CellSpec` stores, and so is the result.

    This is how a fleet cell's faults get their one home, the topology: a
    cell document with both keys reads through it, and so does ``fleet
    --faults``.  Raises ``ValueError`` when the topology rejects the
    schedule (an unknown group, a device index out of range).
    """
    from repro.cluster import FleetTopology
    from repro.cluster.faults import parse_fault_spec

    events, policy = parse_fault_spec(faults)
    return FleetTopology.from_json(fleet).scaled(
        faults=events, fault_policy=policy).canonical()


#: A stream override: any job field its cell carries (every FioJob field
#: but the region, since a cell's jobs span their devices), plus the device
#: the stream runs on.
_STREAM_READERS = {
    **{key: reader for key, reader in _JOB_READERS.items()
       if key != "region_bytes"},
    "device": _as_str,
}

#: One reader per :class:`~repro.experiments.sweep.CellSpec` field, each
#: returning the form the cell stores.
_CELL_READERS = {
    **_STREAM_READERS,
    "pattern": partial(_as_pattern, trace=True),
    "preload": _as_bool,
    "ssd_capacity_bytes": _optional(_as_positive_int),
    "essd_capacity_bytes": _optional(_as_positive_int),
    "series_bin_us": _as_series_bin,
    "streams": _read_streams,
    "trace": _as_bool,
    "device_params": _scalar_pairs,
    "fleet": _read_fleet,
    "faults": _read_faults,
    "labels": _scalar_pairs,
}


def cell_to_document(cell, *, kind: Optional[str] = "cell") -> dict:
    """The document form of a :class:`~repro.experiments.sweep.CellSpec`."""
    document: dict[str, Any] = {}
    if kind is not None:
        document["kind"] = kind
    for field in dataclasses.fields(type(cell)):
        value = getattr(cell, field.name)
        if field.name == "device" or value != field.default:
            document[field.name] = _field_to_document(field.name, value)
    return document


def _check_cell(cell, path: str) -> None:
    """Check what a cell runs, as a topology checks its groups and tenants.

    A fleet cell runs its topology, which its reader checked.  Any other
    cell runs one workload: a trace replay for a ``trace-<family>``
    pattern, which runs no streams, so a cell may not have both; else its
    streams, each with the job fields it inherits; else its own job.  Each
    job with a mixed pattern needs a write ratio in [0, 1].

    The devices a cell builds are every stream's pinned ``device`` and the
    cell's own device when its single job, its trace replay or some
    unpinned stream runs on it; ``device_params`` must fit each of them.
    So a cell whose streams all pin a device may carry any label as its
    device (``mixed-fleet`` calls its cells ``fleet``).
    """
    if cell.fleet is not None:
        return
    streams = cell.stream_specs()
    pins = {name: overrides.get("device") for name, overrides in streams}
    built = {_join(path, f"streams.{name}.device"): pin
             for name, pin in pins.items() if pin is not None}
    if not pins or None in pins.values():
        built[_join(path, "device")] = cell.device
    params = dict(cell.device_params)
    for device_path, device in built.items():
        _check_device(device, device_path)
        _check_device_params(params, device, _join(path, "device_params"))
    if cell.pattern.startswith("trace-"):
        if streams:
            raise ConfigError(_join(path, "streams"),
                              f"pattern {cell.pattern!r} replays a trace, "
                              f"which runs no streams")
    elif not streams:
        _check_write_ratio(cell.pattern, cell.write_ratio, path)
    for name, overrides in streams:
        _check_write_ratio(overrides.get("pattern", cell.pattern),
                           overrides.get("write_ratio", cell.write_ratio),
                           _join(path, f"streams.{name}"))


def cell_from_document(document: Any, *, path: str = "cell"):
    """Build a validated :class:`~repro.experiments.sweep.CellSpec`.

    Every key reads with its :data:`_CELL_READERS` entry, a fleet cell's
    ``faults`` fold into its ``fleet`` (:func:`fold_faults`), then what the
    cell runs is checked (:func:`_check_cell`).  ``ScenarioSpec.cells``
    reads its cells at the empty root path, so their errors name keys bare
    (``queue_depth: expected positive int``,
    ``fleet.groups[0].cont: unknown key``).
    """
    from repro.experiments.sweep import CellSpec

    fields = _read_fields(document, path, {
        "kind": partial(_as_str, choices=("cell",)), **_CELL_READERS})
    fields.pop("kind", None)
    if "fleet" in fields:
        fields.setdefault("device", "fleet")
        if "faults" in fields:
            try:
                fields["fleet"] = fold_faults(fields["fleet"],
                                              fields.pop("faults"))
            except ValueError as error:
                raise ConfigError(_join(path, "faults"), str(error)) from None
    elif "device" not in fields:
        raise ConfigError(path, "missing required key 'device'")
    cell = CellSpec(**fields)
    _check_cell(cell, path)
    return cell


# ---------------------------------------------------------------------------
# Scenario documents
# ---------------------------------------------------------------------------

#: What a scenario's ``base`` may set: every cell field but those the
#: expansion itself fills in.
_BASE_READERS = {key: reader for key, reader in _CELL_READERS.items()
                 if key not in ("labels", "streams", "fleet")}


def _read_grid(value: Any, path: str) -> dict[str, tuple]:
    """Each axis's non-empty list of scalars; ``ScenarioSpec.cells`` types
    the values with the cell readers."""
    return {_as_str(axis, path): _read_nonempty_list(values, f"{path}.{axis}",
                                                     _as_scalar)
            for axis, values in _as_mapping(value, path).items()}


#: The keys a standalone fleet document shares with a scenario document:
#: :func:`scenario_for_document` reads them for the scenario it wraps the
#: fleet in, and the topology reader rejects them.
_WRAPPER_READERS = {
    "description": _optional(_as_text),
    "tags": partial(_read_list, read=_as_str),
    "run": run_config_from_document,
}

_SCENARIO_READERS = {
    "kind": partial(_as_str, choices=("scenario",)),
    "name": _as_str,
    "devices": partial(_read_nonempty_list, read=_as_str),
    "base": partial(_read_fields, readers=_BASE_READERS),
    "grid": _read_grid,
    "streams": _read_streams,
    "fleet": topology_from_document,
    "seed": _as_int,
    "seed_mode": partial(_as_str, choices=("fixed", "derived")),
    **_WRAPPER_READERS,
}


def scenario_to_document(spec) -> dict:
    """The document form of a :class:`~repro.experiments.scenarios.ScenarioSpec`.

    Scenarios defined with a ``cell_builder`` (the paper figures) have no
    declarative form and raise :class:`ConfigError`.
    """
    if spec.cell_builder is not None:
        raise ConfigError(
            "scenario", f"scenario {spec.name!r} is defined with a "
                        f"cell_builder and has no document form")
    document: dict[str, Any] = {
        "kind": "scenario",
        "name": spec.name,
        "description": spec.description,
        "devices": list(spec.devices),
    }
    if spec.base:
        document["base"] = {key: _field_to_document(key, value)
                            for key, value in spec.base}
    if spec.grid:
        document["grid"] = {axis: list(values) for axis, values in spec.grid}
    if spec.streams:
        document["streams"] = _field_to_document("streams", spec.streams)
    if spec.fleet is not None:
        document["fleet"] = json.loads(spec.fleet)
    if spec.run:
        document["run"] = dict(spec.run)
    if spec.seed != 17:
        document["seed"] = spec.seed
    if spec.seed_mode != "fixed":
        document["seed_mode"] = spec.seed_mode
    if spec.tags:
        document["tags"] = list(spec.tags)
    return document


def scenario_from_document(document: Any, *, path: str = "scenario"):
    """Build a validated :class:`~repro.experiments.scenarios.ScenarioSpec`.

    Grid values and the devices the cells build are checked when the
    scenario expands (:meth:`ScenarioSpec.cells
    <repro.experiments.scenarios.ScenarioSpec.cells>`).
    """
    from repro.experiments.scenarios import scenario

    fields = _read_fields(document, path, _SCENARIO_READERS,
                          required=("name",))
    fields.pop("kind", None)
    if "run" in fields and "fleet" not in fields:
        raise ConfigError(f"{path}.run", "a run block requires a fleet topology")
    if "devices" not in fields:
        if "fleet" not in fields:
            raise ConfigError(path, "missing required key 'devices' "
                                    "(or an inline 'fleet' topology)")
        fields["devices"] = ("fleet",)
    fields["description"] = fields.get("description") or ""
    fields["streams"] = {name: dict(overrides)
                         for name, overrides in fields.get("streams", ())}
    return _construct(scenario, fields, path)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def document_kind(document: Any, *, path: str = "document") -> str:
    """The normalized kind of a standalone document.

    An explicit ``kind`` key wins; otherwise the kind is inferred from the
    structure (``groups`` -> fleet, ``devices``/``base``/``grid`` ->
    scenario, ``device`` -> cell).
    """
    document = _as_mapping(document, path)
    kind = document.get("kind")
    if kind is not None:
        kind = _as_str(kind, f"{path}.kind",
                       choices=("scenario", "fleet", "topology", "cell"))
        return "fleet" if kind == "topology" else kind
    if "groups" in document:
        return "fleet"
    if "devices" in document or "base" in document or "grid" in document:
        return "scenario"
    if "device" in document:
        return "cell"
    raise ConfigError(path, "cannot infer document kind "
                            "(add kind: scenario | fleet | cell)")


def scenario_for_document(document: Any, *, path: str = "document"):
    """A runnable :class:`ScenarioSpec` for a scenario *or* fleet document.

    A bare fleet document registers as a single-cell fleet scenario named
    after the topology (its optional top-level ``description``, ``tags``
    and ``run`` feed the wrapper), so user fleets appear beside the
    built-ins in ``list`` / ``run`` / ``fleet`` with no scenario
    boilerplate.
    """
    from repro.experiments.scenarios import scenario

    kind = document_kind(document, path=path)
    if kind == "scenario":
        return scenario_from_document(document, path=path)
    if kind == "cell":
        raise ConfigError(path, "a cell document is not runnable as a "
                                "scenario (wrap it in kind: scenario)")
    document = _as_mapping(document, path)
    wrapper = _read_fields({key: document.pop(key) for key in _WRAPPER_READERS
                            if key in document}, path, _WRAPPER_READERS)
    topology = topology_from_document(document, path=path)
    tags = list(wrapper.get("tags", ()))
    tags += [tag for tag in ("fleet", "config") if tag not in tags]
    return _construct(scenario, {
        "name": topology.name,
        "description": wrapper.get("description")
        or f"user fleet {topology.name!r} (config document)",
        "devices": ("fleet",), "fleet": topology,
        "run": wrapper.get("run"), "tags": tags}, path)
