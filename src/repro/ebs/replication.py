"""Replication policy: how many replicas, how many acknowledgements.

Cloud block stores replicate every chunk (three-way in the systems the paper
cites) for durability.  Writes are acknowledged once ``write_quorum``
replicas have persisted the data; reads are served by a single replica.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReplicationPolicy:
    """Synchronous replication configuration for a volume."""

    replication_factor: int = 3
    write_quorum: int = 3

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if not 1 <= self.write_quorum <= self.replication_factor:
            raise ValueError("write_quorum must be between 1 and replication_factor")

    def acknowledgements_needed(self) -> int:
        return self.write_quorum

    def describe(self) -> str:
        return f"{self.replication_factor}-way replication, quorum {self.write_quorum}"
