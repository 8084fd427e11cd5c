"""NAND-flash substrate: geometry, operation timing, and die scheduling.

The local SSD model in :mod:`repro.ssd` is built on top of this package.
The abstraction level follows classic SSD simulators: the *die* is the unit
of parallelism, the *page* is the unit of read/program, and the *block* is
the unit of erase.  Channel bandwidth is modelled as a shared bus per
channel that data transfers must reserve.
"""

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.flash.chip import FlashArray

__all__ = [
    "FlashGeometry",
    "FlashTiming",
    "FlashArray",
]
