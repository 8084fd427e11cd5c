"""Greedy garbage collection.

One background worker per die watches that die's free-block count.  When it
drops below the low watermark the worker picks the FULL block with the fewest
valid slots on that die, relocates the still-valid data through the GC write
frontier, erases the block, and returns it to the free list.  Workers on
different dies run in parallel (as real controllers do), but every worker
competes with host I/O for its die and channel -- which is exactly what
produces the local SSD's throughput collapse in Figure 3 of the paper.

Workers start on first need
---------------------------
A worker started while its die is at or above the low watermark would only
park on a wakeup event, so the collector does not start one per die when
it is built.  It schedules one boot event instead, which walks the dies in
order and starts on the spot (``Simulator._start_now``) only the workers
whose die is already below the low watermark: the per-die bootstraps it
stands for would have run back to back, and each one it leaves out would
have parked and done nothing else.  After that, :meth:`kick` starts a die's
worker where it would have woken the parked one, and the new worker's
first step is the woken one's next.  So every event keeps its place, and
the build schedules one event instead of one per die.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.ssd.allocator import WriteStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ssd.ftl import Ftl


@dataclass
class GcStats:
    """Counters describing garbage-collection activity."""

    invocations: int = 0
    blocks_erased: int = 0
    slots_relocated: int = 0
    pages_read: int = 0


class GarbageCollector:
    """Per-die greedy garbage collectors for one :class:`~repro.ssd.ftl.Ftl`."""

    def __init__(self, ftl: "Ftl"):
        self.ftl = ftl
        self.sim = ftl.sim
        self.config = ftl.config
        self.stats = GcStats()
        self._dies = ftl.allocator.total_dies
        self._boot = self.sim.event()
        self._boot.callbacks.append(self._start_low_dies)
        self._boot.succeed()
        #: Per die, the event its worker waits on: pending while the worker
        #: is parked; triggered (a wakeup given, or the boot event) while
        #: it runs or is about to, and before the boot; ``None`` while the
        #: die has no worker.
        self._wakeups: list = [self._boot] * self._dies

    # -- control -----------------------------------------------------------------
    def kick(self, die: Optional[int] = None) -> None:
        """Wake the collector for ``die`` (or all dies if ``None``),
        starting a worker that has not started."""
        dies = range(self._dies) if die is None else (die,)
        for index in dies:
            wakeup = self._wakeups[index]
            if wakeup is None:
                self._wakeups[index] = self._boot
                self.sim.process(self._run(index))
            elif not wakeup._triggered:
                wakeup.succeed(None)

    def _start_low_dies(self, _boot) -> None:
        """The boot: start, in die order and on the spot, the workers whose
        die is below the low watermark."""
        free_blocks = self.ftl.allocator.free_blocks
        low = self.ftl.gc_low_watermark
        for die in range(self._dies):
            if free_blocks(die) < low:
                self.sim._start_now(self._run(die))
            else:
                self._wakeups[die] = None

    # -- per-die worker -----------------------------------------------------------
    def _run(self, die: int):
        allocator = self.ftl.allocator
        low = self.ftl.gc_low_watermark
        high = self.ftl.gc_high_watermark
        while True:
            if allocator.free_blocks(die) >= low:
                self._wakeups[die] = self.sim.event()
                yield self._wakeups[die]
                continue
            progressed = False
            while allocator.free_blocks(die) < high:
                victim = self._select_victim(die)
                if victim is None:
                    break
                yield from self._collect(die, victim)
                progressed = True
            if not progressed:
                # Nothing reclaimable on this die right now (all candidates
                # fully valid); wait until the host invalidates something.
                self._wakeups[die] = self.sim.event()
                yield self._wakeups[die]

    # -- victim selection -----------------------------------------------------------
    def _select_victim(self, die: int) -> Optional[int]:
        """Greedy: the FULL block on ``die`` with the fewest valid slots.

        Returns ``None`` when no block would yield net free space (i.e. every
        candidate is completely valid), which happens only when the logical
        space is genuinely full of live data.
        """
        allocator = self.ftl.allocator
        mapping = self.ftl.mapping
        best_block = None
        best_valid = allocator.slots_per_block  # exclude fully-valid blocks
        for block_id in allocator.gc_candidates(die):
            valid = mapping.valid_slots_in_block(block_id)
            if valid < best_valid:
                best_valid = valid
                best_block = block_id
        return best_block

    # -- collection -----------------------------------------------------------------
    def _collect(self, die: int, block_id: int):
        ftl = self.ftl
        allocator = ftl.allocator
        mapping = ftl.mapping
        self.stats.invocations += 1

        valid_lbns = mapping.valid_lbns_in_block(block_id)
        if valid_lbns:
            # Read every flash page that still holds valid data.
            slot_lo = allocator.first_slot_of_block(block_id)
            slot_hi = slot_lo + allocator.slots_per_block
            slots_per_page = ftl.slots_per_page
            pages = sorted({(slot - slot_lo) // slots_per_page
                            for slot in mapping.lookup_many(valid_lbns)
                            if slot_lo <= slot < slot_hi})
            for _page in pages:
                yield from ftl.flash.read_page(die, ftl.config.geometry.page_size)
                self.stats.pages_read += 1
            # Relocate through the GC frontier.  Blocks overwritten by the
            # host in the meantime have left the victim and are skipped.
            relocated = yield from ftl.write_slots(
                valid_lbns, WriteStream.GC, source=range(slot_lo, slot_hi),
                preferred_die=die)
            self.stats.slots_relocated += relocated

        if mapping.valid_slots_in_block(block_id) != 0:
            # The host raced a write into our relocation window; retry later.
            return
        yield from ftl.flash.erase_block(die)
        mapping.clear_block(block_id)
        allocator.release_block(block_id)
        self.stats.blocks_erased += 1
        ftl.notify_space_available()
