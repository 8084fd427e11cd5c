"""Sequential-read detection and a read (prefetch) cache.

Modern SSD firmware detects sequential read streams and reads ahead into
controller DRAM.  This is why, in the paper, the local SSD's sequential-read
latency at small I/O sizes is an order of magnitude lower than its
random-read latency -- and consequently why the ESSD/SSD latency *gap* is
largest for sequential reads (Observation 1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


class ReadCache:
    """A block-granular LRU cache of prefetched (or recently read) data."""

    def __init__(self, capacity_slots: int):
        if capacity_slots <= 0:
            raise ValueError("capacity_slots must be positive")
        self.capacity_slots = capacity_slots
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, lbn: int) -> bool:
        return lbn in self._entries

    def lookup(self, lbn: int) -> bool:
        """Check for ``lbn``; updates LRU order and hit/miss counters."""
        if lbn in self._entries:
            self._entries.move_to_end(lbn)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, lbn: int) -> None:
        """Insert ``lbn``, evicting the least recently used entry if full."""
        if lbn in self._entries:
            self._entries.move_to_end(lbn)
            return
        if len(self._entries) >= self.capacity_slots:
            self._entries.popitem(last=False)
        self._entries[lbn] = None

    def invalidate(self, lbns: range) -> None:
        """Drop every block of ``lbns`` (called when the host overwrites
        them)."""
        entries = self._entries
        if entries:
            for lbn in lbns:
                entries.pop(lbn, None)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class PrefetchDecision:
    """What the prefetcher wants fetched after observing a read."""

    start_lbn: int
    num_slots: int

    @property
    def lbns(self) -> range:
        return range(self.start_lbn, self.start_lbn + self.num_slots)


class SequentialPrefetcher:
    """Detects sequential streams and issues readahead decisions.

    The detector keeps a small table of recent stream heads.  A read that
    continues a known stream increments its score; once the score reaches
    ``trigger`` the prefetcher asks for ``window_slots`` blocks starting just
    past the stream head (bounded to the device).
    """

    def __init__(self, trigger: int, window_slots: int, logical_blocks: int,
                 max_streams: int = 8):
        if trigger < 1:
            raise ValueError("trigger must be >= 1")
        if window_slots < 1:
            raise ValueError("window_slots must be >= 1")
        self.trigger = trigger
        self.window_slots = window_slots
        self.logical_blocks = logical_blocks
        self.max_streams = max_streams
        #: stream head lbn -> (score, prefetched_up_to_lbn)
        self._streams: OrderedDict[int, tuple[int, int]] = OrderedDict()
        self.prefetches_issued = 0

    def observe(self, start_lbn: int, num_slots: int) -> PrefetchDecision | None:
        """Record a host read and return a prefetch decision if warranted."""
        end_lbn = start_lbn + num_slots
        score, prefetched_to = self._streams.pop(start_lbn, (0, start_lbn))
        score += 1
        decision = None
        if score >= self.trigger:
            prefetch_start = max(end_lbn, prefetched_to)
            prefetch_end = min(self.logical_blocks, prefetch_start + self.window_slots)
            # Only fetch when the stream is getting close to the prefetched
            # frontier, to avoid re-fetching the same window on every read.
            if prefetch_end > prefetch_start and prefetched_to - end_lbn < self.window_slots // 2:
                decision = PrefetchDecision(prefetch_start, prefetch_end - prefetch_start)
                prefetched_to = prefetch_end
                self.prefetches_issued += 1
        self._streams[end_lbn] = (score, prefetched_to)
        while len(self._streams) > self.max_streams:
            self._streams.popitem(last=False)
        return decision

    def reset(self) -> None:
        """Forget all tracked streams (e.g. after a TRIM of the whole device)."""
        self._streams.clear()
