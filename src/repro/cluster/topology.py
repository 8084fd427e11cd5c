"""Declarative fleet topology: device groups, tenants, replication edges.

A :class:`FleetTopology` describes a cluster-scale simulation the way a
:class:`~repro.experiments.sweep.CellSpec` describes a single-device cell:

* **Device groups** -- ``count`` instances of one registered device family
  (``"SSD"``, ``"ESSD-2"``, ...) sharing a capacity and optional
  profile overrides (``device_params``).
* **Tenants** -- a workload bound to every device of one group.  The
  workload is either a closed-loop FIO job (plain
  :class:`~repro.workload.fio.FioJob` fields) or an open-loop trace replay
  (``{"trace": "<family>", ...}`` with knobs forwarded to
  :func:`repro.workload.trace.synthesize_trace`).  Each (tenant, device)
  pair derives its own deterministic seed, so results never depend on how
  the fleet is later partitioned into shards.
* **Replication edges** -- asynchronous cross-group mirroring reusing
  :class:`repro.ebs.replication.ReplicationPolicy` semantics: every tenant
  write completed on a device of ``source`` fans out to
  ``replication_factor`` devices of ``target``.  Deliveries are quantized
  to the topology's ``epoch_us`` boundary, which is exactly the
  conservative synchronization window the shard runner uses -- so replica
  timing (and therefore every metric) is independent of the shard layout.

A topology's one serial form is its validated document
(:mod:`repro.config`): :meth:`FleetTopology.canonical` is the canonical
JSON of that document -- what a ``CellSpec.fleet`` field stores and what
the sweep cache hashes -- and :meth:`FleetTopology.from_json` reads it back
through the same validation as a hand-written document.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Mapping, Optional, Sequence

from repro.cluster.faults import FaultEvent, FaultPolicy
from repro.determinism import canonical_json
from repro.ebs.replication import ReplicationPolicy
from repro.host.io import MiB

#: Default per-device capacities at fleet scale (kept small: a fleet cell
#: instantiates dozens of devices, so each one stays cheap to build).
DEFAULT_FLEET_SSD_CAPACITY = 32 * MiB
DEFAULT_FLEET_ESSD_CAPACITY = 64 * MiB

#: Default conservative synchronization window (us).  Replica deliveries are
#: quantized to this boundary; the shard runner advances in epochs of the
#: same width, so no cross-shard message ever has to travel into the past.
DEFAULT_EPOCH_US = 1000.0


def _pairs(mapping: Optional[Mapping[str, Any]]) -> tuple:
    """Normalise a mapping to the sorted-pairs form frozen dataclasses use."""
    return tuple(sorted((mapping or {}).items()))


#: Device-group simulation modes: ``"discrete"`` instantiates one real
#: :class:`repro.devices.Device` per count; ``"macro"`` replaces the whole
#: group with one calibrated mean-field aggregate
#: (:class:`repro.cluster.macro.MacroGroup`) whose cost is independent of
#: ``count`` -- metrics from macro groups are flagged ``approximate``.
GROUP_MODES = ("discrete", "macro")


@dataclass(frozen=True)
class DeviceGroup:
    """``count`` devices of one registered family under a shared config."""

    name: str
    device: str
    count: int
    capacity_bytes: Optional[int] = None
    #: Extra kwargs for :func:`repro.devices.create_device` (profile
    #: overrides such as ``replication_factor`` or ``chunk_size``), as
    #: sorted pairs.
    device_params: tuple = ()
    preload: bool = True
    #: ``"discrete"`` (default) or ``"macro"`` -- see :data:`GROUP_MODES`.
    mode: str = "discrete"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"group {self.name!r} needs count >= 1")
        if self.mode not in GROUP_MODES:
            raise ValueError(f"group {self.name!r} has unknown mode "
                             f"{self.mode!r} (expected one of {GROUP_MODES})")

    @property
    def device_capacity(self) -> int:
        """Per-device capacity: ``capacity_bytes``, else the fleet default
        for the device family."""
        if self.capacity_bytes:
            return self.capacity_bytes
        return DEFAULT_FLEET_SSD_CAPACITY if self.device == "SSD" \
            else DEFAULT_FLEET_ESSD_CAPACITY

    @property
    def recipe(self) -> tuple:
        """What :meth:`build` makes a device from: groups with equal recipes
        build equal devices."""
        return (self.device, self.device_capacity, self.device_params,
                self.preload)

    def build(self, sim, name: str, like=None):
        """One device of this group on ``sim``, preloaded when the group
        says so -- the recipe every discrete device and every macro
        calibration probe shares.  ``like`` is a device built earlier by
        the same recipe: an SSD copies its preload from it when that is
        exact (:meth:`~repro.ssd.SsdDevice.preload`)."""
        from repro.devices import create_device
        from repro.ssd import SsdDevice

        device = create_device(sim, self.device,
                               capacity_bytes=self.device_capacity,
                               name=name, **dict(self.device_params))
        if self.preload:
            if isinstance(device, SsdDevice):
                device.preload(like=like)
            else:
                device.preload()
        return device


@dataclass(frozen=True)
class Tenant:
    """One workload bound to every device of ``group``.

    ``workload`` is a sorted tuple of (field, value) pairs.  Without a
    ``trace`` key the fields describe a closed-loop
    :class:`~repro.workload.fio.FioJob` (``pattern``, ``io_size``,
    ``queue_depth``, ``io_count``, ...).  With ``trace`` set to a family
    name the remaining fields are synthesis knobs forwarded to
    :func:`repro.workload.trace.synthesize_trace` and the replay is
    open-loop.
    """

    name: str
    group: str
    workload: tuple

    def workload_dict(self) -> dict[str, Any]:
        return dict(self.workload)

    @property
    def is_trace(self) -> bool:
        return "trace" in dict(self.workload)


@dataclass(frozen=True)
class ReplicationEdge:
    """Asynchronous mirroring of ``source`` tenant writes onto ``target``.

    Each completed write on source device ``i`` produces
    ``replication_factor`` replica writes on target devices ``(i + r) %
    target.count``.  The factor is validated through the same
    :class:`~repro.ebs.replication.ReplicationPolicy` the intra-volume EBS
    path uses; cross-group mirroring is asynchronous, so the policy's write
    quorum never gates the primary acknowledgement (quorum 1).
    """

    source: str
    target: str
    replication_factor: int = 1

    def policy(self) -> ReplicationPolicy:
        return ReplicationPolicy(replication_factor=self.replication_factor,
                                 write_quorum=1)

    def __post_init__(self) -> None:
        self.policy()  # validates the factor
        if self.source == self.target:
            raise ValueError(f"edge {self.source!r} -> {self.target!r} "
                             "may not target its own group")


@dataclass(frozen=True)
class FleetTopology:
    """A named fleet: device groups x tenants x replication edges."""

    name: str
    groups: tuple[DeviceGroup, ...]
    tenants: tuple[Tenant, ...] = ()
    edges: tuple[ReplicationEdge, ...] = ()
    #: Declarative fault schedule: device/node failures, drains, repairs.
    #: Fault state flips are quantized to ``epoch_us`` barriers (see
    #: :mod:`repro.cluster.faults`), so faulted runs stay bit-identical
    #: across shard layouts exactly like replica deliveries do.
    faults: tuple[FaultEvent, ...] = ()
    #: Rebuild pacing + overload-shedding knobs for the fault schedule.
    fault_policy: FaultPolicy = FaultPolicy()
    #: Conservative synchronization window; also the replica-delivery
    #: quantum (see module docstring).
    epoch_us: float = DEFAULT_EPOCH_US
    seed: int = 17

    def __post_init__(self) -> None:
        # A float whatever number it was given as, like the fault times.
        object.__setattr__(self, "epoch_us", float(self.epoch_us))
        names = [group.name for group in self.groups]
        if not names:
            raise ValueError("a fleet needs at least one device group")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate group names in {names}")
        known = set(names)
        for tenant in self.tenants:
            if tenant.group not in known:
                raise ValueError(f"tenant {tenant.name!r} targets unknown "
                                 f"group {tenant.group!r}")
        tenant_names = [tenant.name for tenant in self.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ValueError(f"duplicate tenant names in {tenant_names}")
        by_name = {group.name: group for group in self.groups}
        for edge in self.edges:
            for end in (edge.source, edge.target):
                if end not in known:
                    raise ValueError(f"edge references unknown group {end!r}")
            if edge.replication_factor > by_name[edge.target].count:
                raise ValueError(
                    f"edge {edge.source!r} -> {edge.target!r} replicates "
                    f"{edge.replication_factor}-way onto a group of only "
                    f"{by_name[edge.target].count} devices")
        if self.epoch_us <= 0:
            raise ValueError("epoch_us must be positive")
        for fault in self.faults:
            if fault.group not in known:
                raise ValueError(f"fault targets unknown group {fault.group!r}")
            if fault.device is not None and \
                    fault.device >= by_name[fault.group].count:
                raise ValueError(
                    f"fault device index {fault.device} out of range for "
                    f"group {fault.group!r} of {by_name[fault.group].count}")
            if fault.spare is not None:
                if fault.spare not in known:
                    raise ValueError(
                        f"fault names unknown spare group {fault.spare!r}")
                if fault.spare == fault.group:
                    raise ValueError(
                        f"fault spare group {fault.spare!r} may not be the "
                        "failed group itself")

    # -- enumeration -------------------------------------------------------
    @property
    def total_devices(self) -> int:
        return sum(group.count for group in self.groups)

    def group(self, name: str) -> DeviceGroup:
        for group in self.groups:
            if group.name == name:
                return group
        raise KeyError(name)

    @cached_property
    def _starts(self) -> tuple[int, ...]:
        """Global index of each group's first device, in declaration order."""
        starts, offset = [], 0
        for group in self.groups:
            starts.append(offset)
            offset += group.count
        return tuple(starts)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {group.name: position
                for position, group in enumerate(self.groups)}

    def group_indices(self, name: str) -> range:
        """Global indices of every device in group ``name`` (local order).

        Devices are numbered group by group in declaration order, so a
        group is always one contiguous range.  The **global index** is the
        identity every layer (sharding, replication routing, metric
        merges) keys on; it never depends on the shard layout.
        """
        position = self._positions[name]
        start = self._starts[position]
        return range(start, start + self.groups[position].count)

    def locate(self, index: int) -> tuple[DeviceGroup, int]:
        """``(group, local index)`` of global device ``index``."""
        if not 0 <= index < self.total_devices:
            raise IndexError(f"device index {index} out of range for fleet "
                             f"{self.name!r} of {self.total_devices}")
        position = bisect_right(self._starts, index) - 1
        return self.groups[position], index - self._starts[position]

    def fault_span(self, event: FaultEvent) -> range:
        """Global indices ``event`` takes offline (layout-independent)."""
        indices = self.group_indices(event.group)
        return indices if event.device is None else \
            indices[event.device:event.device + 1]

    def edges_from(self, group_name: str) -> list[ReplicationEdge]:
        return [edge for edge in self.edges if edge.source == group_name]

    @property
    def has_macro(self) -> bool:
        return any(group.mode == "macro" for group in self.groups)

    def with_modes(self, modes: Mapping[str, str]) -> "FleetTopology":
        """Copy with per-group simulation modes overridden.

        This is the ``fleet --macro`` override: any topology can be
        re-run with chosen groups approximated (``"macro"``) or forced
        back to the discrete path (``"discrete"``).
        """
        known = {group.name for group in self.groups}
        for name, mode in modes.items():
            if name not in known:
                raise ValueError(f"mode override names unknown group {name!r}")
            if mode not in GROUP_MODES:
                raise ValueError(f"unknown group mode {mode!r} for "
                                 f"{name!r} (expected one of {GROUP_MODES})")
        groups = tuple(replace(group, mode=modes.get(group.name, group.mode))
                       for group in self.groups)
        return replace(self, groups=groups)

    # -- serialization -----------------------------------------------------
    def canonical(self) -> str:
        """Canonical JSON of the document form (what ``CellSpec.fleet``
        stores and the sweep cache hashes)."""
        return canonical_json(self.to_document(kind=None))

    @classmethod
    def from_json(cls, text: str) -> "FleetTopology":
        """Read :meth:`canonical` (or any document as JSON) back."""
        return cls.from_document(json.loads(text))

    def to_document(self, kind: Optional[str] = "fleet") -> dict[str, Any]:
        """The YAML/JSON document form: mappings instead of sorted pairs,
        fields equal to their defaults left out.  ``topology -> document
        -> topology`` is lossless; see :mod:`repro.config`.
        """
        from repro.config import topology_to_document

        return topology_to_document(self, kind=kind)

    @classmethod
    def from_document(cls, document: Mapping[str, Any],
                      path: str = "fleet") -> "FleetTopology":
        """Build from a document, validating with path-addressed errors."""
        from repro.config import topology_from_document

        return topology_from_document(document, path=path)

    def scaled(self, **changes) -> "FleetTopology":
        """Copy with some top-level fields changed (e.g. ``epoch_us``)."""
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# Convenience builders (plain dicts in, normalised tuples out; every default
# is the dataclass field's own)
# ---------------------------------------------------------------------------

def group(name: str, device: str, count: int,
          capacity_bytes: Optional[int] = None,
          device_params: Optional[Mapping[str, Any]] = None,
          preload: bool = DeviceGroup.preload,
          mode: str = DeviceGroup.mode) -> DeviceGroup:
    return DeviceGroup(name=name, device=device, count=count,
                       capacity_bytes=capacity_bytes,
                       device_params=_pairs(device_params), preload=preload,
                       mode=mode)


def tenant(name: str, group_name: str, **workload) -> Tenant:
    return Tenant(name=name, group=group_name, workload=_pairs(workload))


def edge(source: str, target: str,
         replication_factor: int = ReplicationEdge.replication_factor,
         ) -> ReplicationEdge:
    return ReplicationEdge(source=source, target=target,
                           replication_factor=replication_factor)


def fault(kind: str, group_name: str, at_us: float,
          device: Optional[int] = None,
          repair_after_us: Optional[float] = None,
          spare: Optional[str] = None) -> FaultEvent:
    return FaultEvent(kind=kind, group=group_name, at_us=at_us,
                      device=device, repair_after_us=repair_after_us,
                      spare=spare)


def fleet(name: str, groups: Sequence[DeviceGroup],
          tenants: Sequence[Tenant] = (),
          edges: Sequence[ReplicationEdge] = (),
          faults: Sequence[FaultEvent] = (),
          fault_policy: Optional[FaultPolicy] = None,
          epoch_us: float = FleetTopology.epoch_us,
          seed: int = FleetTopology.seed) -> FleetTopology:
    return FleetTopology(name=name, groups=tuple(groups),
                         tenants=tuple(tenants), edges=tuple(edges),
                         faults=tuple(faults),
                         fault_policy=fault_policy or FaultPolicy(),
                         epoch_us=epoch_us, seed=seed)
