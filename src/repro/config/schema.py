"""Document <-> object converters with path-addressed validation errors.

A *document* is the plain-data (YAML/JSON) form of a topology, a scenario,
or a sweep cell: mappings and lists of scalars, friendly to write by hand
(``device_params`` is a mapping, not the sorted-pairs tuple the frozen
dataclasses store).  Every ``*_from_document`` function validates the
document shape *before* constructing objects, so a malformed file fails
with the exact path of the offending value::

    fleet.groups[2].count: expected positive int
    scenario.streams.victim.queue_deth: not a stream override field (...)

Cross-field invariants (a tenant naming an unknown group, a replication
factor exceeding the target group) are enforced by the dataclasses
themselves; those errors are re-raised as :class:`ConfigError` carrying the
document path of the enclosing element.

The converters are lossless: ``topology -> document -> topology`` (and the
scenario / cell equivalents) is an identity, which is what lets a fleet
defined only in YAML produce metrics bit-identical to its Python-built
twin -- both sides collapse to the same canonical JSON and therefore the
same sweep-cache key.  The document is the only serial form of a fleet and
of a fault schedule: :meth:`FleetTopology.canonical
<repro.cluster.FleetTopology.canonical>` and
:func:`~repro.cluster.faults.canonical_fault_spec` write the canonical JSON
of a document, and their readers go through the validating converters here.
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
    "run_config_from_document",
    "run_config_to_document",
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
    print it verbatim.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


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


def _as_str(value: Any, path: str, choices: Optional[Sequence[str]] = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected str, got {_type_name(value)}")
    if not value:
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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected number, got {_type_name(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"expected finite number, got {value}")
    if positive and value <= 0:
        raise ConfigError(path, "expected positive number")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"expected number >= {minimum}")
    return float(value)


def _as_scalar(value: Any, path: str) -> Any:
    if not isinstance(value, _SCALAR_TYPES):
        raise ConfigError(path, f"expected scalar (str/number/bool/null), "
                                f"got {_type_name(value)}")
    return value


def _check_keys(mapping: Mapping[str, Any], path: str,
                allowed: Collection[str], required: Sequence[str] = ()) -> None:
    for key in mapping:
        if not isinstance(key, str):
            raise ConfigError(path, f"expected str keys, got {_type_name(key)}")
        if key not in allowed:
            raise ConfigError(f"{path}.{key}",
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


def _optional(reader: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """``reader`` for a field whose value may also be ``null``."""
    def read(value: Any, path: str) -> Any:
        return None if value is None else reader(value, path)
    return read


def _read_fields(value: Any, path: str,
                 readers: Mapping[str, Callable[[Any, str], Any]],
                 required: Sequence[str] = ()) -> dict[str, Any]:
    """Validate a mapping key by key, each key with its own reader; keys
    without a reader are rejected and absent keys stay absent."""
    mapping = _as_mapping(value, path)
    _check_keys(mapping, path, readers, required=required)
    return {key: readers[key](entry, f"{path}.{key}")
            for key, entry in mapping.items()}


def _read_list(value: Any, path: str,
               read: Callable[[Any, str], Any]) -> tuple:
    return tuple(read(entry, f"{path}[{index}]")
                 for index, entry in enumerate(_as_list(value, path)))


def _construct(cls, fields: dict[str, Any], path: str):
    """``cls(**fields)``, with the dataclass's own invariant errors
    re-raised as a :class:`ConfigError` at ``path``."""
    try:
        return cls(**fields)
    except ValueError as error:
        raise ConfigError(path, str(error)) from None


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


#: Keys only a *standalone* fleet document carries: they feed the wrapper
#: scenario built by :func:`scenario_for_document` (``run`` maps to a
#: :class:`~repro.cluster.FleetRunConfig`), never the topology itself.
_WRAPPER_KEYS = ("description", "tags", "run")


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
             "workload": _workload_to_document(tenant.workload_dict())}
            for tenant in topology.tenants]
    for key in ("edges", "faults"):
        if key in document:
            document[key] = [_non_default_fields(entry)
                             for entry in document[key]]
    if "fault_policy" in document:
        document["fault_policy"] = _non_default_fields(topology.fault_policy)
    return document


def _workload_to_document(workload: Mapping[str, Any]) -> dict:
    document = dict(workload)
    params = document.get("pattern_params")
    if isinstance(params, (tuple, list)):
        document["pattern_params"] = dict(tuple(pair) for pair in params)
    return document


def _workload_keys(workload: Mapping[str, Any], path: str) -> list[str]:
    """The keys a tenant workload may set: the synthesis knobs of its trace
    family for a trace tenant, else the FioJob fields.  The shard supplies
    ``name`` itself."""
    from repro.workload.fio import FioJob
    from repro.workload.trace import TRACE_FAMILIES

    if "trace" not in workload:
        return [field.name for field in dataclasses.fields(FioJob)
                if field.name != "name"]
    family = _as_str(workload["trace"], f"{path}.trace",
                     choices=sorted(TRACE_FAMILIES))
    knobs = inspect.signature(TRACE_FAMILIES[family]).parameters
    return ["trace", *(knob for knob in knobs if knob != "name")]


def _workload_from_document(value: Any, path: str) -> tuple:
    workload = _as_mapping(value, path)
    _check_keys(workload, path, _workload_keys(workload, path))
    normalised: dict[str, Any] = {}
    for key, entry in workload.items():
        if key == "pattern_params":
            normalised[key] = _sorted_pairs(
                _scalar_mapping(entry, f"{path}.{key}"))
        else:
            normalised[key] = _as_scalar(entry, f"{path}.{key}")
    return _sorted_pairs(normalised)


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

_RUN_CONFIG_KEYS = ("shards", "run_ahead", "transport", "max_epochs")


def run_config_to_document(config) -> dict:
    """The document form of a :class:`~repro.cluster.FleetRunConfig`:
    non-default fields only, so the round trip is exact."""
    return dict(config.to_pairs())


def run_config_from_document(document: Any, *, path: str = "run"):
    """Build a validated :class:`~repro.cluster.FleetRunConfig` from the
    ``run:`` block of a fleet/scenario/cell document."""
    from repro.cluster.transport import TRANSPORTS, FleetRunConfig

    document = _as_mapping(document, path)
    _check_keys(document, path, _RUN_CONFIG_KEYS)
    fields: dict[str, Any] = {}
    for key, value in document.items():
        key_path = f"{path}.{key}"
        if key == "transport":
            fields[key] = _as_str(value, key_path, choices=TRANSPORTS)
        else:
            fields[key] = _as_positive_int(value, key_path)
    try:
        return FleetRunConfig(**fields)
    except ValueError as error:
        raise ConfigError(path, str(error)) from None


# ---------------------------------------------------------------------------
# Cell documents
# ---------------------------------------------------------------------------

def _cell_fields() -> dict:
    from repro.experiments.sweep import CellSpec

    return {field.name: field for field in dataclasses.fields(CellSpec)}


#: Stream overrides may set any FioJob field plus the target device.
def _stream_override_fields() -> tuple[str, ...]:
    from repro.experiments.sweep import _JOB_FIELDS

    return (*_JOB_FIELDS, "device")


def _streams_from_document(value: Any, path: str) -> tuple:
    streams = _as_mapping(value, path)
    allowed = _stream_override_fields()
    normalised = []
    for name, overrides in streams.items():
        name = _as_str(name, path)
        stream_path = f"{path}.{name}"
        overrides = _as_mapping(overrides, stream_path)
        fields: dict[str, Any] = {}
        for key, entry in overrides.items():
            key = _as_str(key, stream_path)
            if key not in allowed:
                raise ConfigError(
                    f"{stream_path}.{key}",
                    f"not a stream override field "
                    f"(known: {', '.join(sorted(allowed))})")
            if key == "pattern_params":
                fields[key] = _sorted_pairs(
                    _scalar_mapping(entry, f"{stream_path}.{key}"))
            else:
                fields[key] = _as_scalar(entry, f"{stream_path}.{key}")
        normalised.append((name, _sorted_pairs(fields)))
    return tuple(sorted(normalised))


def _streams_to_document(streams: tuple) -> dict:
    document = {}
    for name, overrides in streams:
        fields = dict(overrides)
        params = fields.get("pattern_params")
        if isinstance(params, (tuple, list)):
            fields["pattern_params"] = dict(tuple(pair) for pair in params)
        document[name] = fields
    return document


def cell_to_document(cell, *, kind: Optional[str] = "cell") -> dict:
    """The document form of a :class:`~repro.experiments.sweep.CellSpec`."""
    document: dict[str, Any] = {}
    if kind is not None:
        document["kind"] = kind
    for field in dataclasses.fields(type(cell)):
        value = getattr(cell, field.name)
        if field.name != "device" and value == field.default:
            continue
        if field.name in ("pattern_params", "device_params", "labels"):
            document[field.name] = dict(value)
        elif field.name == "streams":
            document[field.name] = _streams_to_document(value)
        elif field.name in ("fleet", "faults"):
            # Both store the canonical JSON of their document form.
            document[field.name] = json.loads(value)
        elif field.name == "fleet_run":
            document[field.name] = dict(value)
        else:
            document[field.name] = value
    return document


def cell_from_document(document: Any, *, path: str = "cell"):
    """Build a validated :class:`~repro.experiments.sweep.CellSpec`."""
    from repro.experiments.sweep import CellSpec

    document = _as_mapping(document, path)
    fields_by_name = _cell_fields()
    _check_keys(document, path, ["kind", *fields_by_name])
    if "kind" in document:
        _as_str(document["kind"], f"{path}.kind", choices=("cell",))
        document.pop("kind")
    if "device" not in document and "fleet" not in document:
        raise ConfigError(path, "missing required key 'device'")

    fields: dict[str, Any] = {}
    for key, value in document.items():
        key_path = f"{path}.{key}"
        if key in ("pattern_params", "device_params"):
            fields[key] = _sorted_pairs(_scalar_mapping(value, key_path))
        elif key == "labels":
            fields[key] = _sorted_pairs(_scalar_mapping(value, key_path))
        elif key == "streams":
            fields[key] = _streams_from_document(value, key_path)
        elif key == "fleet":
            fields[key] = topology_from_document(value, path=key_path).canonical()
        elif key == "faults":
            from repro.cluster.faults import canonical_fault_spec

            fields[key] = canonical_fault_spec(
                *fault_spec_from_document(value, path=key_path))
        elif key == "fleet_run":
            fields[key] = run_config_from_document(
                value, path=key_path).to_pairs()
        elif key in ("io_size", "queue_depth"):
            fields[key] = _as_positive_int(value, key_path)
        elif key in ("io_count", "total_bytes",
                     "ssd_capacity_bytes", "essd_capacity_bytes"):
            if value is not None:
                value = _as_positive_int(value, key_path)
            fields[key] = value
        elif key == "write_ratio":
            if value is not None:
                value = _as_number(value, key_path, minimum=0.0)
            fields[key] = value
        elif key == "runtime_us":
            if value is not None:
                value = _as_number(value, key_path, positive=True)
            fields[key] = value
        elif key == "ramp_ios":
            fields[key] = _as_int(value, key_path, minimum=0)
        elif key == "think_time_us":
            fields[key] = _as_number(value, key_path, minimum=0.0)
        elif key == "seed":
            fields[key] = _as_int(value, key_path)
        elif key in ("preload", "trace"):
            fields[key] = _as_bool(value, key_path)
        elif key == "series_bin_us":
            if value is not None and value != "auto":
                value = _as_number(value, key_path, positive=True)
            fields[key] = value
        elif key == "pattern":
            fields[key] = _as_str(value, key_path)
        elif key == "device":
            fields[key] = _as_str(value, key_path)
        else:  # pragma: no cover - _check_keys rejects unknown keys
            fields[key] = value
    if "fleet" in fields:
        fields.setdefault("device", "fleet")
    else:
        _check_device(fields["device"], f"{path}.device")
    return CellSpec(**fields)


# ---------------------------------------------------------------------------
# Scenario documents
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = ("kind", "name", "description", "devices", "base", "grid",
                  "streams", "fleet", "run", "seed", "seed_mode", "tags")


def _base_fields() -> tuple[str, ...]:
    """Keys a scenario ``base`` mapping may set: every cell field that is
    not reserved for the expansion machinery, plus the two params
    mappings."""
    reserved = ("labels", "streams", "fleet", "fleet_run")
    return tuple(name for name in _cell_fields() if name not in reserved)


def _base_from_document(value: Any, path: str) -> dict[str, Any]:
    base = _as_mapping(value, path)
    allowed = _base_fields()
    fields: dict[str, Any] = {}
    for key, entry in base.items():
        key = _as_str(key, path)
        if key not in allowed:
            raise ConfigError(f"{path}.{key}",
                              f"not a cell field "
                              f"(known: {', '.join(sorted(allowed))})")
        if key in ("pattern_params", "device_params"):
            fields[key] = _sorted_pairs(_scalar_mapping(entry, f"{path}.{key}"))
        else:
            fields[key] = _as_scalar(entry, f"{path}.{key}")
    return fields


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
        base = dict(spec.base)
        for key in ("pattern_params", "device_params"):
            if isinstance(base.get(key), (tuple, list)):
                base[key] = dict(tuple(pair) for pair in base[key])
        document["base"] = base
    if spec.grid:
        document["grid"] = {axis: list(values) for axis, values in spec.grid}
    if spec.streams:
        document["streams"] = _streams_to_document(spec.streams)
    if spec.fleet is not None:
        document["fleet"] = json.loads(spec.fleet)
    if spec.fleet_run:
        document["run"] = dict(spec.fleet_run)
    if spec.seed != 17:
        document["seed"] = spec.seed
    if spec.seed_mode != "fixed":
        document["seed_mode"] = spec.seed_mode
    if spec.tags:
        document["tags"] = list(spec.tags)
    return document


def scenario_from_document(document: Any, *, path: str = "scenario"):
    """Build a validated :class:`~repro.experiments.scenarios.ScenarioSpec`."""
    from repro.experiments.scenarios import scenario

    document = _as_mapping(document, path)
    _check_keys(document, path, _SCENARIO_KEYS, required=("name",))
    if "kind" in document:
        _as_str(document["kind"], f"{path}.kind", choices=("scenario",))
    name = _as_str(document["name"], f"{path}.name")
    description = document.get("description", "")
    if description:
        description = _as_str(description, f"{path}.description")

    fleet = document.get("fleet")
    if fleet is not None:
        fleet = topology_from_document(fleet, path=f"{path}.fleet")

    run = document.get("run")
    if run is not None:
        if fleet is None:
            raise ConfigError(f"{path}.run",
                              "a run block requires a fleet topology")
        run = run_config_from_document(run, path=f"{path}.run")

    if "devices" in document:
        devices = [_as_str(entry, f"{path}.devices[{index}]")
                   for index, entry in enumerate(
                       _as_list(document["devices"], f"{path}.devices"))]
        if not devices:
            raise ConfigError(f"{path}.devices",
                              "expected at least one device")
        if fleet is None:
            for index, device in enumerate(devices):
                _check_device(device, f"{path}.devices[{index}]")
    elif fleet is not None:
        devices = ["fleet"]
    else:
        raise ConfigError(path, "missing required key 'devices' "
                                "(or an inline 'fleet' topology)")

    base = _base_from_document(document.get("base", {}), f"{path}.base")

    grid: dict[str, Sequence[Any]] = {}
    for axis, values in _as_mapping(document.get("grid", {}),
                                    f"{path}.grid").items():
        axis = _as_str(axis, f"{path}.grid")
        axis_path = f"{path}.grid.{axis}"
        values = _as_list(values, axis_path)
        if not values:
            raise ConfigError(axis_path, "expected at least one value")
        grid[axis] = [_as_scalar(value, f"{axis_path}[{index}]")
                      for index, value in enumerate(values)]

    streams = _streams_from_document(document.get("streams", {}),
                                     f"{path}.streams")

    seed = _as_int(document.get("seed", 17), f"{path}.seed")
    seed_mode = _as_str(document.get("seed_mode", "fixed"),
                        f"{path}.seed_mode", choices=("fixed", "derived"))
    tags = [_as_str(entry, f"{path}.tags[{index}]")
            for index, entry in enumerate(
                _as_list(document.get("tags", []), f"{path}.tags"))]

    try:
        return scenario(
            name=name, description=description, devices=devices, base=base,
            grid=grid,
            streams={stream: dict(overrides) for stream, overrides in streams},
            fleet=fleet, run=run, seed=seed, seed_mode=seed_mode, tags=tags)
    except ValueError as error:
        raise ConfigError(path, str(error)) from None


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
    after the topology (its optional top-level ``description`` and ``tags``
    feed the wrapper), so user fleets appear beside the built-ins in
    ``list`` / ``run`` / ``fleet`` with no scenario boilerplate.
    """
    from repro.experiments.scenarios import scenario

    kind = document_kind(document, path=path)
    if kind == "scenario":
        return scenario_from_document(document, path=path)
    if kind == "cell":
        raise ConfigError(path, "a cell document is not runnable as a "
                                "scenario (wrap it in kind: scenario)")
    document = _as_mapping(document, path)
    wrapper = {key: document.pop(key) for key in _WRAPPER_KEYS
               if key in document}
    topology = topology_from_document(document, path=path)
    description = wrapper.get("description") or \
        f"user fleet {topology.name!r} (config document)"
    description = _as_str(description, f"{path}.description")
    run = wrapper.get("run")
    if run is not None:
        run = run_config_from_document(run, path=f"{path}.run")
    tags = [_as_str(entry, f"{path}.tags[{index}]")
            for index, entry in enumerate(
                _as_list(wrapper.get("tags", []), f"{path}.tags"))]
    if "fleet" not in tags:
        tags.append("fleet")
    if "config" not in tags:
        tags.append("config")
    return scenario(name=topology.name, description=description,
                    devices=("fleet",), fleet=topology, run=run, tags=tags)
