"""Page-level address mapping between logical blocks and flash slots.

A *slot* is one logical-block-sized (4 KiB) piece of a flash page.  The FTL
maps each logical block number (LBN) to a physical slot number (PSN); the
reverse map is kept so garbage collection can find the owner of every valid
slot in a victim block.
"""

from __future__ import annotations

import numpy as np

#: Sentinel for "unmapped" entries in the L2P / P2S tables.
UNMAPPED = -1


class PageMapping:
    """L2P / P2L tables plus per-block valid-slot counters."""

    def __init__(self, logical_blocks: int, total_slots: int, slots_per_block: int):
        if logical_blocks <= 0 or total_slots <= 0 or slots_per_block <= 0:
            raise ValueError("all sizes must be positive")
        if total_slots < logical_blocks:
            raise ValueError("physical slots must be >= logical blocks")
        if total_slots % slots_per_block != 0:
            raise ValueError("total_slots must be a multiple of slots_per_block")
        self.logical_blocks = logical_blocks
        self.total_slots = total_slots
        self.slots_per_block = slots_per_block
        self.num_blocks = total_slots // slots_per_block
        self._l2p = np.full(logical_blocks, UNMAPPED, dtype=np.int64)
        self._p2l = np.full(total_slots, UNMAPPED, dtype=np.int64)
        self._valid_per_block = np.zeros(self.num_blocks, dtype=np.int64)
        self.mapped_blocks = 0

    # -- queries --------------------------------------------------------------
    def lookup(self, lbn: int) -> int:
        """Physical slot of ``lbn``, or :data:`UNMAPPED`."""
        return int(self._l2p[lbn])

    def reverse_lookup(self, psn: int) -> int:
        """Logical block stored in slot ``psn``, or :data:`UNMAPPED`."""
        return int(self._p2l[psn])

    def is_mapped(self, lbn: int) -> bool:
        return self._l2p[lbn] != UNMAPPED

    def valid_slots_in_block(self, block_id: int) -> int:
        """Number of valid slots in the given flash block."""
        return int(self._valid_per_block[block_id])

    def valid_lbns_in_block(self, block_id: int) -> list[int]:
        """Logical blocks whose current copy lives in ``block_id``."""
        start = block_id * self.slots_per_block
        end = start + self.slots_per_block
        segment = self._p2l[start:end]
        return [int(lbn) for lbn in segment[segment != UNMAPPED]]

    def valid_block_counts(self) -> np.ndarray:
        """Read-only view of the per-block valid-slot counters."""
        return self._valid_per_block

    @property
    def utilization(self) -> float:
        """Fraction of logical blocks currently mapped."""
        return self.mapped_blocks / self.logical_blocks

    def block_of_slot(self, psn: int) -> int:
        return psn // self.slots_per_block

    # -- updates --------------------------------------------------------------
    def map(self, lbn: int, psn: int) -> int:
        """Point ``lbn`` at ``psn``; returns the previous slot (or UNMAPPED).

        The previous slot, if any, is invalidated (its block's valid counter
        is decremented and its reverse mapping cleared).
        """
        if not 0 <= lbn < self.logical_blocks:
            raise ValueError(f"lbn {lbn} out of range")
        if not 0 <= psn < self.total_slots:
            raise ValueError(f"psn {psn} out of range")
        if self._p2l[psn] != UNMAPPED:
            raise ValueError(f"slot {psn} is already occupied by lbn {self._p2l[psn]}")
        previous = int(self._l2p[lbn])
        if previous != UNMAPPED:
            self._invalidate_slot(previous)
        else:
            self.mapped_blocks += 1
        self._l2p[lbn] = psn
        self._p2l[psn] = lbn
        self._valid_per_block[psn // self.slots_per_block] += 1
        return previous

    def map_range(self, start_lbn: int, psns: np.ndarray) -> None:
        """Point ``start_lbn + i`` at ``psns[i]`` for every ``i``: :meth:`map`
        over a run of logical blocks in one pass.

        Earlier copies of the remapped blocks are invalidated.  The target
        slots must be distinct and free before the call; the LBN range, the
        slot range and the occupancy are all checked before anything changes.
        """
        count = len(psns)
        end = start_lbn + count
        if start_lbn < 0 or end > self.logical_blocks:
            raise ValueError(f"lbn range [{start_lbn}, {end}) out of range")
        if count == 0:
            return
        self._check_free_targets(psns)
        spb = self.slots_per_block
        window = self._l2p[start_lbn:end]
        previous = window[window != UNMAPPED]
        self._p2l[previous] = UNMAPPED
        self._valid_per_block -= np.bincount(previous // spb, minlength=self.num_blocks)
        self.mapped_blocks += count - len(previous)
        window[:] = psns
        self._p2l[psns] = np.arange(start_lbn, end, dtype=np.int64)
        self._valid_per_block += np.bincount(psns // spb, minlength=self.num_blocks)

    def _check_free_targets(self, psns: np.ndarray) -> None:
        """Raise ``ValueError`` unless ``psns`` are distinct, in-range, free slots."""
        low, high = int(psns.min()), int(psns.max())
        if low < 0 or high >= self.total_slots:
            raise ValueError(f"psn {low if low < 0 else high} out of range")
        owners = self._p2l[psns]
        occupied = np.flatnonzero(owners != UNMAPPED)
        if len(occupied):
            first = occupied[0]
            raise ValueError(f"slot {psns[first]} is already occupied by lbn {owners[first]}")
        ordered = np.sort(psns)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("a slot appears more than once in the run")

    def unmap(self, lbn: int) -> int:
        """Remove the mapping of ``lbn`` (TRIM); returns the freed slot."""
        previous = int(self._l2p[lbn])
        if previous == UNMAPPED:
            return UNMAPPED
        self._invalidate_slot(previous)
        self._l2p[lbn] = UNMAPPED
        self.mapped_blocks -= 1
        return previous

    def _invalidate_slot(self, psn: int) -> None:
        block_id = psn // self.slots_per_block
        self._p2l[psn] = UNMAPPED
        self._valid_per_block[block_id] -= 1
        if self._valid_per_block[block_id] < 0:  # pragma: no cover - invariant guard
            raise AssertionError(f"negative valid count for block {block_id}")

    def clear_block(self, block_id: int) -> None:
        """Reset bookkeeping for an erased block.

        All slots in the block must already be invalid; erasing a block with
        valid data would lose it, so this raises instead.
        """
        if self._valid_per_block[block_id] != 0:
            raise ValueError(
                f"block {block_id} still holds {self._valid_per_block[block_id]} valid slots")
        start = block_id * self.slots_per_block
        self._p2l[start:start + self.slots_per_block] = UNMAPPED
