"""Flash operation timing parameters.

All latencies are in microseconds; bandwidths in bytes per microsecond
(i.e. MB/s divided by ~1.05e0 -- we simply use bytes/us).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FlashTiming:
    """Latency model of a single flash die and its channel bus.

    Attributes
    ----------
    read_us:
        Array-to-register read time (tR) for one page.
    program_us:
        Register-to-array program time (tPROG) for one page.
    erase_us:
        Block erase time (tBERS).
    channel_bytes_per_us:
        Channel (ONFI bus) bandwidth in bytes per microsecond.  One channel is
        shared by all dies attached to it; transfers reserve the channel.
    command_overhead_us:
        Fixed per-command overhead (command/address cycles, ECC pipeline).
    """

    read_us: float = 45.0
    program_us: float = 380.0
    erase_us: float = 3000.0
    channel_bytes_per_us: float = 440.0
    command_overhead_us: float = 1.5

    def __post_init__(self) -> None:
        for name in ("read_us", "program_us", "erase_us",
                     "channel_bytes_per_us", "command_overhead_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.channel_bytes_per_us <= 0:
            raise ValueError("channel_bytes_per_us must be positive")
