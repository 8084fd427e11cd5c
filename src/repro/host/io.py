"""I/O request types shared by all device models."""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

#: Bytes in a kibibyte / mebibyte / gibibyte, used throughout the repo.
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

_next_request_id = itertools.count().__next__


class IOKind(enum.Enum):
    """The kind of a block I/O request."""

    READ = "read"
    WRITE = "write"
    FLUSH = "flush"
    TRIM = "trim"


class IORequest:
    """A single block I/O request.

    Offsets and sizes are in bytes.  ``submit_time`` and ``complete_time``
    are filled in by the device (simulation microseconds), so a completed
    request carries its own latency.

    A slotted hand-written class rather than a dataclass: request creation
    sits on the device-model hot path (one per I/O round trip), and the
    dataclass ``__init__``/``__post_init__`` pair plus per-field descriptor
    machinery measurably shows up in the roundtrip profile
    (``benchmarks/profile_roundtrip.py``).
    """

    __slots__ = ("kind", "offset", "size", "request_id", "submit_time",
                 "complete_time", "shed")

    def __init__(self, kind: IOKind, offset: int, size: int,
                 request_id: Optional[int] = None,
                 submit_time: Optional[float] = None,
                 complete_time: Optional[float] = None,
                 shed: bool = False):
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if size < 0:
            raise ValueError(f"negative size: {size}")
        if size == 0 and (kind is IOKind.READ or kind is IOKind.WRITE):
            raise ValueError("read/write requests must have a positive size")
        self.kind = kind
        self.offset = offset
        self.size = size
        self.request_id = _next_request_id() if request_id is None else request_id
        self.submit_time = submit_time
        self.complete_time = complete_time
        #: Set by :class:`repro.cluster.faults.FaultInjector` when the request
        #: was shed (refused fast) instead of served -- downstream hooks such
        #: as replication mirroring skip shed writes.
        self.shed = shed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IORequest(kind={self.kind!r}, offset={self.offset}, "
                f"size={self.size}, request_id={self.request_id}, "
                f"submit_time={self.submit_time}, "
                f"complete_time={self.complete_time}, shed={self.shed})")

    @property
    def end_offset(self) -> int:
        """First byte past the end of the request."""
        return self.offset + self.size

    @property
    def latency(self) -> float:
        """Completion latency in microseconds.

        Only valid once the device has completed the request.
        """
        if self.submit_time is None or self.complete_time is None:
            raise ValueError("request has not completed yet")
        return self.complete_time - self.submit_time

    @classmethod
    def read(cls, offset: int, size: int, **kwargs: Any) -> "IORequest":
        """Convenience constructor for a read request."""
        return cls(IOKind.READ, offset, size, **kwargs)

    @classmethod
    def write(cls, offset: int, size: int, **kwargs: Any) -> "IORequest":
        """Convenience constructor for a write request."""
        return cls(IOKind.WRITE, offset, size, **kwargs)

    @classmethod
    def flush(cls, **kwargs: Any) -> "IORequest":
        """Convenience constructor for a flush (cache barrier) request."""
        return cls(IOKind.FLUSH, 0, 0, **kwargs)
