"""Flash array geometry: channels, dies, planes, blocks, and pages."""

from __future__ import annotations

from dataclasses import dataclass

from repro.host.io import KiB


@dataclass(frozen=True)
class FlashGeometry:
    """Describes the physical organisation of a flash array.

    The hierarchy is ``channel -> die -> plane -> block -> page``.  The die is
    the minimum unit of parallel operation; planes within a die can be
    operated together by multi-plane commands (the FTL exploits this when
    flushing the write buffer).
    """

    channels: int = 8
    dies_per_channel: int = 4
    planes_per_die: int = 2
    blocks_per_plane: int = 128
    pages_per_block: int = 256
    page_size: int = 16 * KiB

    def __post_init__(self) -> None:
        for name in ("channels", "dies_per_channel", "planes_per_die",
                     "blocks_per_plane", "pages_per_block", "page_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    # -- derived counts ---------------------------------------------------
    @property
    def total_dies(self) -> int:
        return self.channels * self.dies_per_channel

    @property
    def blocks_per_die(self) -> int:
        return self.planes_per_die * self.blocks_per_plane

    @property
    def block_size(self) -> int:
        """Bytes per flash block."""
        return self.pages_per_block * self.page_size

    @property
    def die_size(self) -> int:
        """Bytes per die."""
        return self.blocks_per_die * self.block_size

    @property
    def physical_capacity(self) -> int:
        """Raw flash capacity in bytes, including over-provisioned space."""
        return self.total_dies * self.die_size

    # -- address helpers ----------------------------------------------------
    def channel_of_die(self, die: int) -> int:
        """Channel that flat die index ``die`` belongs to."""
        if not 0 <= die < self.total_dies:
            raise ValueError(f"die {die} out of range")
        return die // self.dies_per_channel

    def describe(self) -> str:
        """One-line human readable summary."""
        return (f"{self.channels}ch x {self.dies_per_channel}die x "
                f"{self.planes_per_die}pl x {self.blocks_per_plane}blk x "
                f"{self.pages_per_block}pg x {self.page_size // KiB}KiB "
                f"= {self.physical_capacity / (1 << 30):.1f}GiB raw")
