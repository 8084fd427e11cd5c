"""Host-side I/O stack: block-device abstraction and requests.

Both device models (:class:`repro.ssd.SsdDevice` and
:class:`repro.ebs.EssdDevice`) implement the :class:`BlockDevice` interface
defined here, so workloads, experiments, and the contract checker are written
once against the abstraction.
"""

from repro.host.device import BlockDevice, DeviceStats
from repro.host.io import IOKind, IORequest

__all__ = [
    "BlockDevice",
    "DeviceStats",
    "IOKind",
    "IORequest",
]
