"""Page-level address mapping between logical blocks and flash slots.

A *slot* is one logical-block-sized (4 KiB) piece of a flash page.  The FTL
maps each logical block number (LBN) to a physical slot number (PSN); the
reverse map is kept so garbage collection can find the owner of every valid
slot in a victim block.

The tables are int32: every entry is a slot, an LBN or a count, and
:class:`~repro.ssd.config.SsdConfig` keeps the slot count below 2**31.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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
        self._l2p = np.full(logical_blocks, UNMAPPED, dtype=np.int32)
        self._p2l = np.full(total_slots, UNMAPPED, dtype=np.int32)
        self._valid_per_block = np.zeros(self.num_blocks, dtype=np.int32)
        # The per-block methods read and write the same memory through
        # memoryviews: an element costs ~50 ns that way against ~270 ns for
        # ``int(array[i])``.  The bulk paths keep numpy.
        self._l2p_view = memoryview(self._l2p)
        self._p2l_view = memoryview(self._p2l)
        self._valid_view = memoryview(self._valid_per_block)
        self.mapped_blocks = 0

    # -- queries --------------------------------------------------------------
    def lookup_many(self, lbns: Iterable[int]) -> list[int]:
        """Physical slot of each block of ``lbns``, in order, with
        :data:`UNMAPPED` for a block that has none."""
        l2p = self._l2p_view
        return [l2p[lbn] for lbn in lbns]

    def reverse_lookup(self, psn: int) -> int:
        """Logical block stored in slot ``psn``, or :data:`UNMAPPED`."""
        return self._p2l_view[psn]

    def is_mapped(self, lbn: int) -> bool:
        return self._l2p_view[lbn] != UNMAPPED

    def valid_slots_in_block(self, block_id: int) -> int:
        """Number of valid slots in the given flash block."""
        return self._valid_view[block_id]

    def valid_lbns_in_block(self, block_id: int) -> list[int]:
        """Logical blocks whose current copy lives in ``block_id``."""
        start = block_id * self.slots_per_block
        end = start + self.slots_per_block
        segment = self._p2l[start:end]
        return segment[segment != UNMAPPED].tolist()

    def valid_block_counts(self) -> np.ndarray:
        """Read-only view of the per-block valid-slot counters."""
        return self._valid_per_block

    @property
    def utilization(self) -> float:
        """Fraction of logical blocks currently mapped."""
        return self.mapped_blocks / self.logical_blocks

    # -- updates --------------------------------------------------------------
    def map(self, lbn: int, psn: int) -> int:
        """Point ``lbn`` at ``psn``; returns the previous slot (or UNMAPPED).

        The previous slot, if any, is invalidated (its block's valid counter
        is decremented and its reverse mapping cleared).
        """
        previous = self._l2p_view[lbn] if 0 <= lbn < self.logical_blocks else UNMAPPED
        self.map_run((lbn,), psn)
        return previous

    def map_run(self, lbns: Sequence[int], first_psn: int,
                source: Optional[range] = None) -> int:
        """Point ``lbns[i]`` at slot ``first_psn + i``: :meth:`map` over a
        program unit in one call.  Returns the number of blocks mapped.

        With ``source``, a block whose current slot is not in it is skipped
        and leaves its slot unused.  Each block is checked as it comes --
        LBN in range, slot in range, slot free -- so a bad block raises
        ``ValueError`` with the blocks before it already mapped.

        A newly mapped block adds to ``mapped_blocks`` once per run, and a
        slot adds to its flash block's valid counter once per block the run
        fills, as the run leaves it; a bad block still finds every counter
        up to date.
        """
        logical = self.logical_blocks
        total = self.total_slots
        spb = self.slots_per_block
        l2p = self._l2p_view
        p2l = self._p2l_view
        valid = self._valid_view
        placed = 0
        fresh = 0
        # The flash block being filled, the slot that ends it, and the
        # slots placed in it that its valid counter does not count yet.
        block = -1
        block_end = 0
        filled = 0
        psn = first_psn - 1
        try:
            for lbn in lbns:
                psn += 1
                if source is not None and l2p[lbn] not in source:
                    continue
                if not 0 <= lbn < logical:
                    raise ValueError(f"lbn {lbn} out of range")
                if not 0 <= psn < total:
                    raise ValueError(f"psn {psn} out of range")
                owner = p2l[psn]
                if owner != UNMAPPED:
                    raise ValueError(f"slot {psn} is already occupied by lbn {owner}")
                previous = l2p[lbn]
                if previous != UNMAPPED:
                    # _invalidate_slot, inlined: this loop is the write path.
                    p2l[previous] = UNMAPPED
                    valid[previous // spb] -= 1
                else:
                    fresh += 1
                l2p[lbn] = psn
                p2l[psn] = lbn
                if psn >= block_end:
                    if filled:
                        valid[block] += filled
                    block = psn // spb
                    block_end = block * spb + spb
                    filled = 0
                filled += 1
                placed += 1
        finally:
            if filled:
                valid[block] += filled
            self.mapped_blocks += fresh
        return placed

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
        self._p2l[psns] = np.arange(start_lbn, end, dtype=np.int32)
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

    def copy_from(self, other: "PageMapping") -> None:
        """Take ``other``'s tables and counters (same sizes)."""
        np.copyto(self._l2p, other._l2p)
        np.copyto(self._p2l, other._p2l)
        np.copyto(self._valid_per_block, other._valid_per_block)
        self.mapped_blocks = other.mapped_blocks

    def unmap(self, lbn: int) -> int:
        """Remove the mapping of ``lbn`` (TRIM); returns the freed slot."""
        previous = self._l2p_view[lbn]
        if previous == UNMAPPED:
            return UNMAPPED
        self._invalidate_slot(previous)
        self._l2p_view[lbn] = UNMAPPED
        self.mapped_blocks -= 1
        return previous

    def _invalidate_slot(self, psn: int) -> None:
        block_id = psn // self.slots_per_block
        self._p2l_view[psn] = UNMAPPED
        valid = self._valid_view
        valid[block_id] -= 1
        if valid[block_id] < 0:  # pragma: no cover - invariant guard
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
