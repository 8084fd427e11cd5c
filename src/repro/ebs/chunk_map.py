"""Mapping from the volume's logical address space to placement groups.

The volume is divided into fixed-size *chunks*.  Each chunk is assigned a
*placement group*: an ordered list of ``replication_factor`` distinct storage
nodes chosen by a deterministic pseudo-random hash of the chunk index.  The
first node of the group acts as the read preference (reads round-robin over
the group to spread load).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

#: Knuth's multiplicative hash constant, used for deterministic placement.
_HASH_MULTIPLIER = 2654435761

_tuple_new = tuple.__new__


class SubRequest(NamedTuple):
    """A chunk-aligned piece of a host request."""

    chunk_index: int
    offset_in_chunk: int
    size: int


class ChunkMap:
    """Chunk-granular placement of a volume over a storage cluster."""

    def __init__(self, capacity_bytes: int, chunk_size: int,
                 num_nodes: int, replication_factor: int, seed: int = 0):
        if chunk_size <= 0 or capacity_bytes <= 0:
            raise ValueError("capacity and chunk size must be positive")
        if replication_factor > num_nodes:
            raise ValueError("replication factor cannot exceed the node count")
        self.capacity_bytes = capacity_bytes
        self.chunk_size = chunk_size
        self.num_nodes = num_nodes
        self.replication_factor = replication_factor
        self.seed = seed
        self.num_chunks = -(-capacity_bytes // chunk_size)
        #: Placement group per chunk, computed on first use (one pointer per
        #: chunk; a dict would cost more than twice that per entry).
        self._groups: list[Optional[tuple[int, ...]]] = [None] * self.num_chunks

    # -- placement -------------------------------------------------------------
    def chunk_of(self, offset: int) -> int:
        """Chunk index containing byte ``offset``."""
        if not 0 <= offset < self.capacity_bytes:
            raise ValueError(f"offset {offset} outside the volume")
        return offset // self.chunk_size

    def placement_group(self, chunk_index: int) -> tuple[int, ...]:
        """The ordered node ids storing replicas of ``chunk_index``."""
        if not 0 <= chunk_index < self.num_chunks:
            raise ValueError(f"chunk {chunk_index} out of range")
        group = self._groups[chunk_index]
        if group is None:
            group = self._groups[chunk_index] = self._place(chunk_index)
        return group

    def _place(self, chunk_index: int) -> tuple[int, ...]:
        start = ((chunk_index + self.seed) * _HASH_MULTIPLIER) % self.num_nodes
        # The walk from ``start`` visits nodes at a fixed stride.  A stride
        # sharing a factor with ``num_nodes`` only ever reaches the coset
        # ``{start + k*gcd(stride, num_nodes)}`` -- for example stride 2 on 8
        # nodes touches 4 of them -- so a replication factor above that coset
        # size would loop forever.  Strides co-prime with ``num_nodes``
        # generate the full cyclic group (every node is reached within
        # ``num_nodes`` steps), so we derive a candidate stride from the hash
        # and then advance it until ``gcd(stride, num_nodes) == 1``; stride 1
        # (linear probing) is always co-prime, so the search terminates.
        if self.num_nodes > self.replication_factor:
            stride = 1 + (((chunk_index + self.seed) * 40503)
                          % (self.num_nodes - 1))
            while math.gcd(stride, self.num_nodes) != 1:
                stride = stride % self.num_nodes + 1
        else:
            stride = 1
        group = []
        node = start
        while len(group) < self.replication_factor:
            if node % self.num_nodes not in group:
                group.append(node % self.num_nodes)
            node += stride
        return tuple(group)

    def read_replica(self, chunk_index: int, salt: int = 0) -> int:
        """Pick one replica of the chunk to serve a read (load spreading)."""
        group = self.placement_group(chunk_index)
        return group[salt % len(group)]

    # -- request splitting ---------------------------------------------------------
    def split(self, offset: int, size: int) -> list[SubRequest]:
        """Split a host request into chunk-aligned sub-requests."""
        if size <= 0:
            raise ValueError("size must be positive")
        if offset < 0 or offset + size > self.capacity_bytes:
            raise ValueError("request outside the volume")
        chunk_size = self.chunk_size
        subrequests = []
        position = offset
        remaining = size
        while remaining > 0:
            chunk_index = position // chunk_size
            offset_in_chunk = position - chunk_index * chunk_size
            take = min(remaining, chunk_size - offset_in_chunk)
            # ``SubRequest(...)`` without its Python-level ``__new__``.
            subrequests.append(_tuple_new(SubRequest, (chunk_index, offset_in_chunk, take)))
            position += take
            remaining -= take
        return subrequests
