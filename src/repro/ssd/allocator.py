"""Flash block allocation: per-die free lists and write frontiers.

The allocation unit is a *die superblock*: the same block index across all
planes of one die, erased together and filled by multi-plane program
operations.  Two independent write frontiers exist per die -- one for host
writes and one for GC relocation -- which gives the usual hot/cold stream
separation.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from repro.flash.geometry import FlashGeometry

#: Slots per array that :meth:`BlockAllocator.allocate_run` yields.  It bounds
#: the temporary arrays of preconditioning a large device.
_RUN_CHUNK = 1 << 13


class BlockState(enum.Enum):
    """Lifecycle state of an allocation block."""

    FREE = "free"
    OPEN = "open"
    FULL = "full"


class WriteStream(enum.Enum):
    """Which frontier a write belongs to."""

    HOST = "host"
    GC = "gc"


@dataclass
class OpenBlock:
    """A block currently being filled."""

    block_id: int
    next_slot: int = 0


class BlockAllocator:
    """Tracks block states and hands out slots for program operations."""

    def __init__(self, geometry: FlashGeometry, slots_per_page: int):
        self.geometry = geometry
        self.slots_per_page = slots_per_page
        self.total_dies = geometry.total_dies
        self.blocks_per_die = geometry.blocks_per_plane
        self.total_blocks = self.total_dies * self.blocks_per_die
        self.slots_per_block = (geometry.planes_per_die * geometry.pages_per_block
                                * slots_per_page)
        self.program_unit_slots = geometry.planes_per_die * slots_per_page

        bpd = self.blocks_per_die
        self._free: list[deque[int]] = [deque(range(die * bpd, (die + 1) * bpd))
                                        for die in range(self.total_dies)]
        self._state = [BlockState.FREE] * self.total_blocks
        self._open: dict[tuple[int, WriteStream], OpenBlock] = {}
        self._write_cursor = 0
        self.erase_count = [0] * self.total_blocks

    # -- geometry helpers ------------------------------------------------------
    def die_of_block(self, block_id: int) -> int:
        if not 0 <= block_id < self.total_blocks:
            raise ValueError(f"block {block_id} out of range")
        return block_id // self.blocks_per_die

    def first_slot_of_block(self, block_id: int) -> int:
        return block_id * self.slots_per_block

    def block_of_slot(self, psn: int) -> int:
        return psn // self.slots_per_block

    def state_of(self, block_id: int) -> BlockState:
        return self._state[block_id]

    # -- free space accounting ---------------------------------------------------
    def free_blocks(self, die: int) -> int:
        """Number of free (erased, unopened) blocks on ``die``."""
        return len(self._free[die])

    def min_free_blocks(self) -> int:
        """The smallest per-die free-block count (GC trigger input)."""
        return min(len(queue) for queue in self._free)

    def total_free_blocks(self) -> int:
        return sum(len(queue) for queue in self._free)

    def dies_below(self, watermark: int) -> list[int]:
        """Dies whose free-block count is below ``watermark``."""
        return [die for die, queue in enumerate(self._free) if len(queue) < watermark]

    # -- allocation ----------------------------------------------------------------
    def can_allocate(self, die: int, stream: WriteStream, reserve: int) -> bool:
        """Whether ``die`` can accept a program for ``stream`` without dipping
        into the GC reserve (host writes honour ``reserve``; GC ignores it)."""
        open_block = self._open.get((die, stream))
        if open_block is not None and open_block.next_slot < self.slots_per_block:
            return True
        minimum = 0 if stream is WriteStream.GC else reserve
        return len(self._free[die]) > minimum

    def pick_die(self, stream: WriteStream, reserve: int) -> Optional[int]:
        """Round-robin die selection among dies that can accept a program."""
        for step in range(self.total_dies):
            die = (self._write_cursor + step) % self.total_dies
            if self.can_allocate(die, stream, reserve):
                self._write_cursor = (die + 1) % self.total_dies
                return die
        return None

    def allocate_slots(self, die: int, count: int, stream: WriteStream,
                       reserve: int) -> list[int]:
        """Allocate up to ``count`` consecutive slots on ``die``.

        Returns the physical slot numbers (possibly fewer than ``count`` if
        the open block runs out; the caller simply issues another program for
        the remainder).  Raises ``RuntimeError`` if the die has no usable
        block -- callers must check :meth:`can_allocate` first.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        key = (die, stream)
        open_block = self._open.get(key)
        if open_block is None or open_block.next_slot >= self.slots_per_block:
            # A full frontier was marked FULL when it filled.  GC may have
            # erased it since, so it must not be marked again here.
            open_block = self._open_new_block(die, stream, reserve)
            self._open[key] = open_block
        available = self.slots_per_block - open_block.next_slot
        granted = min(count, available)
        base = self.first_slot_of_block(open_block.block_id) + open_block.next_slot
        open_block.next_slot += granted
        if open_block.next_slot >= self.slots_per_block:
            self._state[open_block.block_id] = BlockState.FULL
        return list(range(base, base + granted))

    def _open_new_block(self, die: int, stream: WriteStream, reserve: int) -> OpenBlock:
        minimum = 0 if stream is WriteStream.GC else reserve
        if len(self._free[die]) <= minimum:
            raise RuntimeError(
                f"die {die} has no free block available for {stream.value} writes")
        block_id = self._free[die].popleft()
        self._state[block_id] = BlockState.OPEN
        return OpenBlock(block_id=block_id, next_slot=0)

    def allocate_run(self, count: int, stream: WriteStream,
                     reserve: int) -> Iterator[np.ndarray]:
        """Allocate ``count`` slots in one pass.

        Returns an iterator over the slots, as consecutive int64 arrays of at
        most :data:`_RUN_CHUNK` slots; the allocator state is final before
        this returns.  The slots, their order and the state left behind are
        those of a loop that calls :meth:`pick_die` and then
        ``allocate_slots(die, min(remaining, program_unit_slots), ...)`` until
        ``count`` slots are placed.  Each die grants one program unit per
        turn: first from its open frontier's remainder, then from its free
        blocks beyond the reserve, in free-list order.  The dies take turns
        round-robin from the write cursor, skipping dies with nothing left.
        A die that runs out never gets space back during the run, so die
        ``d``'s ``k``-th grant is in round ``k``, and the whole order is
        (round, distance of ``d`` from the cursor).  Raises ``RuntimeError``
        before changing anything when ``count`` slots do not fit.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        dies = self.total_dies
        spb = self.slots_per_block
        minimum = 0 if stream is WriteStream.GC else reserve
        order = [(self._write_cursor + rank) % dies for rank in range(dies)]
        # Per die, in turn order: (next frontier slot, slots left in the
        # frontier, free blocks it may open).
        heads = []
        for die in order:
            fresh = max(0, len(self._free[die]) - minimum)
            open_block = self._open.get((die, stream))
            if open_block is None:
                heads.append((0, 0, fresh))
            else:
                heads.append((self.first_slot_of_block(open_block.block_id)
                              + open_block.next_slot,
                              spb - open_block.next_slot, fresh))
        capacity = sum(left + fresh * spb for _, left, fresh in heads)
        if count > capacity:
            raise RuntimeError(f"{count} slots requested but only {capacity} fit "
                               f"for {stream.value} writes")
        if count == 0:
            return iter(())
        taken, last_turn, first, jump_at, jumps = self._lay_out_run(count, order, heads)
        for turn, granted in enumerate(taken):
            if granted:
                self._advance_frontier(order[turn], stream, granted)
        self._write_cursor = (order[last_turn] + 1) % dies
        return _expand_run(count, first, jump_at, jumps)

    def _lay_out_run(self, count: int, order: list[int], heads: list[tuple[int, int, int]]):
        """The grants of :meth:`allocate_run`, as a (round, turn) grid cut at
        ``count`` slots.

        Returns the slots taken per turn, the turn of the last grant, and the
        slot sequence in difference form: its first slot, and where each
        later grant begins with the step from the previous grant's last slot.
        """
        dies = self.total_dies
        spb = self.slots_per_block
        unit = self.program_unit_slots
        units_per_block = spb // unit
        # A die still in the run after R rounds has granted at least
        # (R - 1) * unit + 1 slots (only its frontier's last grant can be
        # short), so the count is reached within ceil(count / unit) + 1 rounds.
        rounds = min(-(-count // unit) + 1,
                     max(-(-left // unit) + fresh * units_per_block
                         for _, left, fresh in heads))
        starts = np.zeros((rounds, dies), dtype=np.int64)
        lengths = np.zeros((rounds, dies), dtype=np.int64)
        steps = np.arange(max(rounds, units_per_block), dtype=np.int64) * unit
        for turn, (next_slot, left, fresh) in enumerate(heads):
            tail = min(-(-left // unit), rounds)
            starts[:tail, turn] = next_slot + steps[:tail]
            lengths[:tail, turn] = np.minimum(unit, left - steps[:tail])
            blocks = min(fresh, -(-(rounds - tail) // units_per_block))
            if blocks:
                firsts = np.fromiter(islice(self._free[order[turn]], blocks),
                                     dtype=np.int64, count=blocks) * spb
                grants = (firsts[:, None] + steps[:units_per_block]).ravel()[:rounds - tail]
                starts[tail:tail + len(grants), turn] = grants
                lengths[tail:tail + len(grants), turn] = unit
        flat = lengths.ravel()
        ends = np.cumsum(flat)
        cut = int(np.searchsorted(ends, count))
        flat[cut] -= int(ends[cut]) - count
        flat[cut + 1:] = 0
        taken = lengths.sum(axis=0).tolist()
        granted = flat > 0
        run_starts = starts.ravel()[granted]
        run_lengths = flat[granted]
        # Preconditioning runs on every device build: drop each grid-sized
        # array as soon as it is used, to keep the peak memory low.
        del ends, starts, lengths, flat, granted
        jumps = run_starts[1:] - run_starts[:-1]
        jumps -= run_lengths[:-1] - 1
        return taken, cut % dies, int(run_starts[0]), np.cumsum(run_lengths[:-1]), jumps

    def _advance_frontier(self, die: int, stream: WriteStream, taken: int) -> None:
        """Commit ``taken`` slots granted on ``die`` by :meth:`allocate_run`:
        fill the open frontier, then open free blocks as ``allocate_slots``
        would (the caller has checked that they exist)."""
        key = (die, stream)
        spb = self.slots_per_block
        open_block = self._open.get(key)
        if open_block is not None and open_block.next_slot < spb:
            used = min(taken, spb - open_block.next_slot)
            open_block.next_slot += used
            taken -= used
            if open_block.next_slot >= spb:
                self._state[open_block.block_id] = BlockState.FULL
        if taken:
            blocks, next_slot = divmod(taken - 1, spb)
            for _ in range(blocks + 1):
                block_id = self._free[die].popleft()
                self._state[block_id] = BlockState.FULL
            if next_slot + 1 < spb:
                self._state[block_id] = BlockState.OPEN
            self._open[key] = OpenBlock(block_id=block_id, next_slot=next_slot + 1)

    # -- GC support ------------------------------------------------------------------
    def is_open(self, block_id: int) -> bool:
        return self._state[block_id] is BlockState.OPEN

    def gc_candidates(self, die: int) -> list[int]:
        """Blocks on ``die`` that are FULL (eligible GC victims)."""
        start = die * self.blocks_per_die
        return [block_id for block_id in range(start, start + self.blocks_per_die)
                if self._state[block_id] is BlockState.FULL]

    def release_block(self, block_id: int) -> None:
        """Return an erased block to its die's free list."""
        if self._state[block_id] is BlockState.FREE:
            raise ValueError(f"block {block_id} is already free")
        if self._state[block_id] is BlockState.OPEN:
            raise ValueError(f"block {block_id} is still open")
        self._state[block_id] = BlockState.FREE
        self.erase_count[block_id] += 1
        self._free[self.die_of_block(block_id)].append(block_id)


def _expand_run(count: int, first: int, jump_at: np.ndarray,
                jumps: np.ndarray) -> Iterator[np.ndarray]:
    """Yield a run of ``count`` slots, :data:`_RUN_CHUNK` at a time: a running
    sum from ``first`` in steps of one, except at the positions ``jump_at``,
    which step by ``jumps``."""
    last = first - 1
    for begin in range(0, count, _RUN_CHUNK):
        chunk = np.ones(min(_RUN_CHUNK, count - begin), dtype=np.int64)
        low, high = np.searchsorted(jump_at, (begin, begin + len(chunk)))
        chunk[jump_at[low:high] - begin] = jumps[low:high]
        chunk[0] += last
        np.cumsum(chunk, out=chunk)
        last = int(chunk[-1])
        yield chunk
