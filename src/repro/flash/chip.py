"""Die-level flash command execution.

:class:`FlashArray` owns one :class:`~repro.sim.resources.Resource` per die
and one per channel.  Dies execute at most one array operation at a time;
data transfers additionally reserve the die's channel bus, which is shared by
all dies on that channel.  The FTL (:mod:`repro.ssd.ftl`) calls the
``read_page`` / ``program_page`` / ``erase_block`` generator helpers with
``yield from``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


@dataclass
class FlashArrayStats:
    """Operation counters for a flash array."""

    reads: int = 0
    programs: int = 0
    erases: int = 0
    bytes_read: int = 0
    bytes_programmed: int = 0


class FlashArray:
    """A bank of flash dies with per-die and per-channel contention."""

    def __init__(self, sim: "Simulator", geometry: FlashGeometry, timing: FlashTiming):
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        channels = [Resource(sim, capacity=1) for _ in range(geometry.channels)]
        #: ``(die resource, channel resource)`` per flat die index.
        self._die_pairs = [(Resource(sim, capacity=1),
                            channels[geometry.channel_of_die(die)])
                           for die in range(geometry.total_dies)]
        self._num_dies = len(self._die_pairs)
        self._max_planes = geometry.planes_per_die
        self.stats = FlashArrayStats()

    # -- helpers ------------------------------------------------------------
    def _pair(self, die: int) -> tuple[Resource, Resource]:
        if not 0 <= die < self._num_dies:
            raise ValueError(f"die {die} out of range")
        return self._die_pairs[die]

    # -- operations ---------------------------------------------------------
    def read_page(self, die: int, num_bytes: int):
        """Generator: read ``num_bytes`` from one page of ``die``.

        The array read (tR) occupies only the die; the data transfer occupies
        both the die and its channel.
        """
        if not 0 <= die < self._num_dies:
            raise ValueError(f"die {die} out of range")
        die_res, chan_res = self._die_pairs[die]
        timing = self.timing
        yield die_res.request()
        try:
            yield timing.command_overhead_us + timing.read_us
            yield chan_res.request()
            try:
                yield num_bytes / timing.channel_bytes_per_us
            finally:
                chan_res.release()
        finally:
            die_res.release()
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += num_bytes

    def program_page(self, die: int, num_bytes: int, planes: int = 1):
        """Generator: program ``num_bytes`` into ``die``.

        ``planes`` > 1 models a multi-plane program: the transfer covers all
        planes' data but a single tPROG is paid, which is how the write path
        reaches the device's sequential-write bandwidth.
        """
        if planes < 1 or planes > self._max_planes:
            raise ValueError(f"planes must be in [1, {self._max_planes}]")
        if not 0 <= die < self._num_dies:
            raise ValueError(f"die {die} out of range")
        die_res, chan_res = self._die_pairs[die]
        timing = self.timing
        yield die_res.request()
        try:
            yield chan_res.request()
            try:
                yield (
                    timing.command_overhead_us + num_bytes / timing.channel_bytes_per_us)
            finally:
                chan_res.release()
            yield timing.program_us
        finally:
            die_res.release()
        stats = self.stats
        stats.programs += 1
        stats.bytes_programmed += num_bytes

    def erase_block(self, die: int):
        """Generator: erase one block of ``die``."""
        die_res = self._pair(die)[0]
        yield die_res.request()
        try:
            yield self.timing.command_overhead_us + self.timing.erase_us
        finally:
            die_res.release()
        self.stats.erases += 1
