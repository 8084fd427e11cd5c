"""SSD configuration and the Samsung-970-Pro-like profile.

The profile is *calibrated*, not copied: geometry and timing constants are
chosen so that the simulated device reproduces the behaviour the paper
reports for its local SSD baseline (Table I and the SSD columns of
Figures 2-5):

* ~10 us buffered 4 KiB write latency and ~60 us 4 KiB random-read latency,
* ~3.5 GB/s sequential-read and ~2.7 GB/s sequential-write bandwidth,
* ~500 K IOPS 4 KiB random reads/writes at high queue depth,
* a sharp garbage-collection throughput cliff once roughly 90 % of the
  device capacity has been written by a sustained random-write workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.host.io import GiB, KiB, MiB


@dataclass(frozen=True)
class SsdConfig:
    """Complete configuration of a simulated local SSD."""

    #: Logical (host-visible) capacity in bytes.
    capacity_bytes: int = 2 * GiB
    #: Host-visible logical block size (the mapping granularity).
    logical_block_size: int = 4 * KiB
    #: Flash geometry (raw capacity must exceed the logical capacity).
    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    #: Flash timing parameters.
    timing: FlashTiming = field(default_factory=FlashTiming)

    # -- host interface -----------------------------------------------------
    #: Fixed per-request controller/NVMe processing overhead (us).
    host_overhead_us: float = 5.0
    #: Host DMA + DRAM copy bandwidth in bytes/us (adds per-request latency
    #: proportional to the request size; it is not a shared resource).
    host_transfer_bytes_per_us: float = 2700.0
    #: Additional fixed cost per logical block touched by a request (us).
    per_block_overhead_us: float = 0.3
    #: Parallel host-interface contexts in the controller (command decode +
    #: DMA pipelines).  Requests beyond this queue for the interface, so deep
    #: queues raise per-request latency on the local SSD.
    controller_contexts: int = 2

    # -- DRAM write buffer ----------------------------------------------------
    #: Write buffer capacity in bytes (0 disables the buffer).
    write_buffer_bytes: int = 16 * MiB
    #: Number of concurrent flusher workers draining the buffer to flash.
    flush_workers: int = 32

    # -- read cache / prefetcher ---------------------------------------------
    #: Read (prefetch) cache capacity in bytes (0 disables prefetching).
    read_cache_bytes: int = 8 * MiB
    #: Number of consecutive sequential requests before prefetching kicks in.
    prefetch_trigger: int = 2
    #: Readahead window in bytes fetched per prefetch round.
    prefetch_window_bytes: int = 512 * KiB

    # -- garbage collection ----------------------------------------------------
    #: Free blocks per die below which background GC starts.
    gc_low_watermark_blocks: int = 3
    #: Free blocks per die below which host allocations stall (GC reserve).
    gc_host_reserve_blocks: int = 1
    #: Free blocks per die above which background GC stops.
    gc_high_watermark_blocks: int = 5

    # -- latency jitter --------------------------------------------------------
    #: Mean of the exponential jitter added to every request (us).
    jitter_mean_us: float = 0.6
    #: Probability that a request hits a firmware hiccup.
    hiccup_probability: float = 0.0008
    #: Extra latency of a firmware hiccup (us).
    hiccup_us: float = 8.0
    #: RNG seed for the jitter model.
    seed: int = 0x5D

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.capacity_bytes % self.logical_block_size != 0:
            raise ValueError("capacity must be a multiple of the logical block size")
        if self.geometry.page_size % self.logical_block_size != 0:
            raise ValueError("flash page size must be a multiple of the logical block size")
        if self.geometry.physical_capacity <= self.capacity_bytes:
            raise ValueError(
                f"raw flash capacity ({self.geometry.physical_capacity}) must exceed "
                f"the logical capacity ({self.capacity_bytes}) to leave over-provisioned space")
        if self.geometry.physical_capacity // self.logical_block_size >= 2**31:
            # The FTL's tables hold slot numbers as int32.
            raise ValueError(
                f"raw flash capacity ({self.geometry.physical_capacity}) holds 2**31 or "
                f"more {self.logical_block_size}-byte slots")
        if self.gc_host_reserve_blocks >= self.gc_low_watermark_blocks:
            raise ValueError("gc_host_reserve_blocks must be below gc_low_watermark_blocks")
        if self.gc_low_watermark_blocks > self.gc_high_watermark_blocks:
            raise ValueError("gc_low_watermark_blocks must not exceed gc_high_watermark_blocks")

    # -- derived quantities -----------------------------------------------------
    @property
    def overprovisioning_ratio(self) -> float:
        """Fraction of raw capacity reserved as spare space."""
        return 1.0 - self.capacity_bytes / self.geometry.physical_capacity

    @property
    def logical_blocks(self) -> int:
        """Number of host-visible logical blocks."""
        return self.capacity_bytes // self.logical_block_size

    @property
    def slots_per_page(self) -> int:
        """Logical blocks per flash page."""
        return self.geometry.page_size // self.logical_block_size

    @property
    def program_unit_slots(self) -> int:
        """Logical blocks written by one (multi-plane) program operation."""
        return self.slots_per_page * self.geometry.planes_per_die

    @property
    def program_unit_bytes(self) -> int:
        return self.program_unit_slots * self.logical_block_size


def samsung_970pro_profile(capacity_bytes: int = 2 * GiB,
                           op_ratio: float = 0.11) -> SsdConfig:
    """A Samsung-970-Pro-like configuration at the requested (scaled) capacity.

    The paper's device is 1 TB; experiments in this repository default to a
    scaled-down capacity (see DESIGN.md, "Scaling convention") with the
    over-provisioning ratio, buffer-to-capacity ratio, and all latency
    constants preserved.

    ``op_ratio`` sets the spare-to-data superblock ratio (the real part's
    ~11% by default).  The over-provisioning sweep scenarios
    (``gc-cliff``) vary it to map how much spare headroom the GC cliff
    needs; the 4-superblock-per-die GC floor still applies, so very small
    ratios saturate at the floor on tiny test capacities.
    """
    if not 0.0 <= op_ratio < 1.0:
        raise ValueError(f"op_ratio must be in [0, 1), got {op_ratio}")
    geometry = FlashGeometry(
        channels=8,
        dies_per_channel=4,
        planes_per_die=2,
        blocks_per_plane=1,  # placeholder, re-derived below
        pages_per_block=32,
        page_size=16 * KiB,
    )
    timing = FlashTiming(
        read_us=45.0,
        program_us=270.0,
        erase_us=3000.0,
        channel_bytes_per_us=440.0,
        command_overhead_us=1.5,
    )
    # Re-derive blocks_per_plane: enough superblocks to hold the logical
    # capacity plus a fixed number of spare superblocks per die, giving
    # roughly the real part's ~9-11% over-provisioning at the default scale.
    # GC needs at least 4 spare superblocks per die (watermarks + open
    # frontiers), and the over-provisioning ratio must stay near the real
    # part's ~10-20% even at tiny test capacities -- the GC cliff appears
    # once ~(1 + OP)x the capacity has been written, so inflated spare space
    # would shift the cliff far beyond where the paper observes it.  Both
    # hold only if a die spans enough data superblocks for the 4-superblock
    # floor to stay a small fraction, so for very small capacities the flash
    # block is shrunk (fewer pages per block) until it does -- scaling block
    # count rather than inflating spare space keeps GC behaviour comparable
    # across scales.
    pages_per_block = geometry.pages_per_block
    while True:
        superblock_bytes = (geometry.planes_per_die * pages_per_block
                            * geometry.page_size)
        data_blocks_per_die = math.ceil(
            capacity_bytes / (superblock_bytes * geometry.total_dies))
        if data_blocks_per_die >= 16 or pages_per_block <= 4:
            break
        pages_per_block //= 2
    spare_blocks_per_die = max(4, round(op_ratio * data_blocks_per_die))
    blocks_per_plane = data_blocks_per_die + spare_blocks_per_die
    geometry = FlashGeometry(
        channels=geometry.channels,
        dies_per_channel=geometry.dies_per_channel,
        planes_per_die=geometry.planes_per_die,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        page_size=geometry.page_size,
    )
    # Scale DRAM buffer/cache with capacity but keep sensible floors.
    write_buffer = max(4 * MiB, capacity_bytes // 128)
    read_cache = max(2 * MiB, capacity_bytes // 256)
    return SsdConfig(
        capacity_bytes=capacity_bytes,
        logical_block_size=4 * KiB,
        geometry=geometry,
        timing=timing,
        host_overhead_us=5.0,
        host_transfer_bytes_per_us=2700.0,
        per_block_overhead_us=0.3,
        write_buffer_bytes=write_buffer,
        flush_workers=geometry.total_dies,
        read_cache_bytes=read_cache,
        prefetch_trigger=2,
        prefetch_window_bytes=512 * KiB,
        gc_low_watermark_blocks=3,
        gc_host_reserve_blocks=1,
        gc_high_watermark_blocks=5,
    )


#: Default Samsung-970-Pro-like profile at the default scaled capacity.
SAMSUNG_970PRO_PROFILE = samsung_970pro_profile()
