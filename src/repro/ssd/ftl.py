"""The flash translation layer: ties mapping, allocation, GC, and flash together.

The FTL exposes two internal generator entry points used by the device model
and its background workers:

* :meth:`Ftl.write_slots` -- place a list of logical blocks onto flash via a
  write frontier (host or GC stream), splitting into multi-plane program
  operations.
* :meth:`Ftl.read_slots` -- read a list of logical blocks, grouping them into
  the minimum set of flash page reads and issuing those in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.flash.chip import FlashArray
from repro.sim.events import spawn_process
from repro.ssd.allocator import BlockAllocator, WriteStream
from repro.ssd.config import SsdConfig
from repro.ssd.gc import GarbageCollector
from repro.ssd.mapping import UNMAPPED, PageMapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


@dataclass
class FtlStats:
    """Write-amplification accounting."""

    host_slots_written: int = 0
    gc_slots_written: int = 0
    host_flash_reads: int = 0
    prefetch_flash_reads: int = 0
    unmapped_reads: int = 0

    @property
    def write_amplification(self) -> float:
        """(host + GC) flash writes divided by host writes."""
        if self.host_slots_written == 0:
            return 1.0
        return (self.host_slots_written + self.gc_slots_written) / self.host_slots_written


class Ftl:
    """Page-mapping flash translation layer."""

    def __init__(self, sim: "Simulator", config: SsdConfig, flash: FlashArray):
        self.sim = sim
        self.config = config
        self.flash = flash
        self.slots_per_page = config.slots_per_page
        self.allocator = BlockAllocator(config.geometry, config.slots_per_page)
        total_slots = self.allocator.total_blocks * self.allocator.slots_per_block
        self.mapping = PageMapping(config.logical_blocks, total_slots,
                                   self.allocator.slots_per_block)
        self.stats = FtlStats()
        self._space_waiters: list = []
        # Per-program-unit constants of the write path.
        self._program_bytes = config.program_unit_bytes
        self._program_planes = config.geometry.planes_per_die
        # Effective GC watermarks: clamp the configured values to what the
        # actual spare-space budget per die can sustain, so that GC can
        # always reach its high watermark and stop (no idle churn).
        data_blocks_per_die = -(-config.logical_blocks
                                // (self.allocator.slots_per_block * self.allocator.total_dies))
        spare_per_die = max(1, self.allocator.blocks_per_die - data_blocks_per_die)
        self.gc_host_reserve = min(config.gc_host_reserve_blocks, max(1, spare_per_die // 4))
        self.gc_low_watermark = min(config.gc_low_watermark_blocks,
                                    max(self.gc_host_reserve + 1, spare_per_die // 2))
        self.gc_high_watermark = min(config.gc_high_watermark_blocks,
                                     max(self.gc_low_watermark + 1, spare_per_die - 2))
        self.gc = GarbageCollector(self)

    # -- space management ----------------------------------------------------------
    def notify_space_available(self) -> None:
        """Wake processes stalled on an out-of-space condition (called by GC)."""
        waiters, self._space_waiters = self._space_waiters, []
        for event in waiters:
            if not event._triggered:
                event.succeed(None)

    def _wait_for_space(self):
        event = self.sim.event()
        self._space_waiters.append(event)
        return event

    # -- write path ------------------------------------------------------------------
    def write_slots(self, lbns: Sequence[int], stream: WriteStream,
                    source: Optional[range] = None,
                    preferred_die: Optional[int] = None):
        """Generator: persist ``lbns`` to flash through the given write stream.

        ``preferred_die`` biases placement (GC relocates onto the die it is
        cleaning so that it never depends on another die's spare space).
        Returns the number of slots actually written: with ``source`` (GC
        relocation: the victim's slots), a block whose current slot has left
        it -- the host overwrote it meanwhile -- is not written.
        """
        allocator = self.allocator
        map_run = self.mapping.map_run
        program_page = self.flash.program_page
        program_bytes = self._program_bytes
        planes = self._program_planes
        reserve = self.gc_host_reserve
        low = self.gc_low_watermark
        free_blocks = allocator.free_blocks
        unit = allocator.program_unit_slots
        written = 0
        index = 0
        pending = list(lbns)
        total = len(pending)
        while index < total:
            if preferred_die is not None and allocator.can_allocate(
                    preferred_die, stream, reserve):
                die = preferred_die
            else:
                die = allocator.pick_die(stream, reserve)
            while die is None:
                # Out of space: make sure GC is running, then wait for it to
                # free a block.  Only the host stream can get here in
                # practice (GC ignores the reserve).
                self.gc.kick()
                yield self._wait_for_space()
                die = allocator.pick_die(stream, reserve)
            base, granted = allocator.allocate_slots(
                die, min(unit, total - index), stream, reserve)
            end = index + granted
            placed = map_run(pending[index:end], base, source)
            if free_blocks(die) < low:
                self.gc.kick(die)
            # The program transfers the full multi-plane unit regardless of
            # how many slots were actually placed (padding).
            yield from program_page(die, program_bytes, planes)
            written += placed
            index = end
        if stream is WriteStream.HOST:
            self.stats.host_slots_written += written
        else:
            self.stats.gc_slots_written += written
        return written

    # -- read path ------------------------------------------------------------------
    def read_slots(self, lbns: Iterable[int], for_prefetch: bool = False):
        """Generator: read the given logical blocks from flash.

        Reads are grouped by flash page and issued in parallel (subject to
        die/channel contention).  Unmapped blocks cost nothing (the device
        returns zeroes).  Returns the number of flash page reads issued.
        """
        slots_per_page = self.slots_per_page
        # Blocks per flash page, by page number in first-seen order; page
        # ``p`` is on die ``p // allocator.pages_per_die``.
        groups: dict[int, int] = {}
        unmapped = 0
        for psn in self.mapping.lookup_many(lbns):
            if psn == UNMAPPED:
                unmapped += 1
            else:
                page = psn // slots_per_page
                groups[page] = groups.get(page, 0) + 1
        self.stats.unmapped_reads += unmapped
        if not groups:
            return 0
        sim = self.sim
        read_page = self.flash.read_page
        pages_per_die = self.allocator.pages_per_die
        page_size = self.config.geometry.page_size
        block_size = self.config.logical_block_size
        yield sim.join([spawn_process(sim, read_page(page // pages_per_die,
                                                     min(page_size, count * block_size)))
                        for page, count in groups.items()])
        if for_prefetch:
            self.stats.prefetch_flash_reads += len(groups)
        else:
            self.stats.host_flash_reads += len(groups)
        return len(groups)

    # -- maintenance ------------------------------------------------------------------
    def trim(self, lbns: Iterable[int]) -> int:
        """Drop the mapping of the given logical blocks; returns count unmapped."""
        count = 0
        for lbn in lbns:
            if self.mapping.unmap(lbn) != UNMAPPED:
                count += 1
        return count

    def preload_range(self, start_lbn: int, count: int) -> None:
        """Instantly mark a logical range as written (test/experiment helper).

        This fills the mapping without consuming simulated time, so read
        experiments can run against a preconditioned device.  It must not be
        called while I/O is in flight.

        The placement is that of host writes issued one program unit at a
        time in LBN order: the dies take turns round-robin from the write
        cursor, each filling its open host frontier and then its free blocks
        beyond the GC host reserve (see
        :meth:`~repro.ssd.allocator.BlockAllocator.allocate_run`).  Earlier
        copies of the range are invalidated.  When the range does not fit,
        it raises ``RuntimeError`` and leaves the device unchanged.
        """
        if start_lbn < 0 or start_lbn + count > self.config.logical_blocks:
            raise ValueError("preload range outside the logical address space")
        lbn = start_lbn
        for psns in self.allocator.allocate_run(count, WriteStream.HOST, self.gc_host_reserve):
            self.mapping.map_range(lbn, psns)
            lbn += len(psns)

    def copy_preload(self, source: "Ftl") -> None:
        """Take ``source``'s mapping and allocation state: what
        :meth:`preload_range` would compute here when ``source`` has the same
        configuration and its one change since it was built was that same
        preload."""
        self.mapping.copy_from(source.mapping)
        self.allocator.copy_from(source.allocator)
