"""Address-pattern generators for workloads.

A pattern produces ``(kind, offset)`` pairs given an I/O size and a target
address range.  The four FIO patterns the paper uses map to:

* ``randread`` / ``randwrite`` -- :class:`RandomPattern`
* ``read`` / ``write`` (sequential) -- :class:`SequentialPattern`
* ``randrw`` with a write percentage -- :class:`MixedPattern` wrapping a
  random pattern.

Beyond the paper's grid, the scenario-sweep subsystem
(:mod:`repro.experiments.scenarios`) exercises skewed and bursty workloads:

* :class:`ZipfianPattern` -- Zipf-skewed offsets (``zipfread`` /
  ``zipfwrite`` / ``zipfrw``);
* :class:`HotColdPattern` -- a hot set absorbing most accesses
  (``hotcoldread`` / ``hotcoldwrite`` / ``hotcoldrw``);
* :class:`BurstyPattern` -- on/off bursts with a configurable duty cycle
  (``bursty-<base>`` wrapping any base pattern), driven through the
  :meth:`AccessPattern.next_think_time_us` hook;
* :class:`MixedPattern` -- generalised: any base pattern can carry a write
  ratio (``randrw``, ``seqrw``, ``zipfrw``, ``hotcoldrw``), enabling
  read/write-ratio sweeps over arbitrary address distributions.
"""

from __future__ import annotations

import abc
import random
from typing import Optional

import numpy as np

from repro.host.io import IOKind


class AccessPattern(abc.ABC):
    """Produces the ``(kind, offset)`` of a workload's requests, one
    :meth:`next` call per request."""

    def __init__(self, region_bytes: int, io_size: int):
        if io_size <= 0:
            raise ValueError("io_size must be positive")
        if region_bytes < io_size:
            raise ValueError("region must be at least one I/O in size")
        self.region_bytes = region_bytes
        self.io_size = io_size
        self.slots = region_bytes // io_size

    @abc.abstractmethod
    def next(self) -> tuple[IOKind, int]:
        """The kind and byte offset of the next request."""

    def next_think_time_us(self) -> float:
        """Extra delay the workload inserts *before* the next request.

        Most patterns issue back-to-back (0.0); bursty patterns use this hook
        to model off-phases.  ``run_job`` adds the value on top of the job's
        own ``think_time_us``.
        """
        return 0.0


class SequentialPattern(AccessPattern):
    """Strictly increasing offsets, wrapping at the end of the region."""

    def __init__(self, region_bytes: int, io_size: int, kind: IOKind = IOKind.READ):
        super().__init__(region_bytes, io_size)
        self.kind = kind
        self._cursor = 0

    def next(self) -> tuple[IOKind, int]:
        offset = self._cursor * self.io_size
        self._cursor = (self._cursor + 1) % self.slots
        return self.kind, offset


class RandomPattern(AccessPattern):
    """Uniformly random aligned offsets."""

    def __init__(self, region_bytes: int, io_size: int, kind: IOKind = IOKind.READ,
                 seed: int = 0):
        super().__init__(region_bytes, io_size)
        self.kind = kind
        self._rng = random.Random(seed)

    def next(self) -> tuple[IOKind, int]:
        return self.kind, self._rng.randrange(self.slots) * self.io_size


class ZipfianPattern(AccessPattern):
    """Zipf-skewed offsets (hot spots), as produced by many real applications."""

    def __init__(self, region_bytes: int, io_size: int, kind: IOKind = IOKind.READ,
                 seed: int = 0, theta: float = 1.1):
        super().__init__(region_bytes, io_size)
        if theta <= 1.0:
            raise ValueError("theta must be > 1 for a proper Zipf distribution")
        self.kind = kind
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        # A fixed permutation decorrelates rank from address.
        self._permutation = np.random.default_rng(seed + 7).permutation(self.slots)

    def next(self) -> tuple[IOKind, int]:
        rank = int(self._rng.zipf(self.theta))
        slot = self._permutation[(rank - 1) % self.slots]
        return self.kind, int(slot) * self.io_size


class HotColdPattern(AccessPattern):
    """Skewed random offsets: a small *hot set* absorbs most accesses.

    ``hot_fraction`` of the region (a contiguous-slot set scattered by a
    seeded permutation) receives ``hot_access_fraction`` of the requests; the
    remainder go uniformly to the cold set.  The classic 90/10 locality rule
    is the default.
    """

    def __init__(self, region_bytes: int, io_size: int, kind: IOKind = IOKind.READ,
                 seed: int = 0,
                 hot_fraction: float = 0.1, hot_access_fraction: float = 0.9):
        super().__init__(region_bytes, io_size)
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError("hot_fraction must be in (0, 1)")
        if not 0.0 <= hot_access_fraction <= 1.0:
            raise ValueError("hot_access_fraction must be in [0, 1]")
        self.kind = kind
        self.hot_fraction = hot_fraction
        self.hot_access_fraction = hot_access_fraction
        self._rng = random.Random(seed)
        self._hot_slots = max(1, int(self.slots * hot_fraction))
        # Scatter the hot set over the address space so it does not coincide
        # with a physically contiguous range.
        self._permutation = np.random.default_rng(seed + 13).permutation(self.slots)

    def next(self) -> tuple[IOKind, int]:
        if self._rng.random() < self.hot_access_fraction:
            slot_rank = self._rng.randrange(self._hot_slots)
        else:
            cold_slots = self.slots - self._hot_slots
            if cold_slots <= 0:
                slot_rank = self._rng.randrange(self._hot_slots)
            else:
                slot_rank = self._hot_slots + self._rng.randrange(cold_slots)
        return self.kind, int(self._permutation[slot_rank]) * self.io_size


class BurstyPattern(AccessPattern):
    """On/off bursts: ``burst_ios`` back-to-back requests, then an idle gap.

    The off-phase is injected through :meth:`next_think_time_us` before the
    first request of each new burst.  ``duty_cycle`` (on-time fraction) can be
    given instead of an explicit ``idle_us``: with an estimated per-I/O
    service time the idle gap is ``burst_ios * service_estimate_us *
    (1 - duty_cycle) / duty_cycle``.

    Like FIO's ``thinktime``, the on/off phases are per worker *stream*: with
    ``queue_depth > 1`` the workers share this pattern's burst counter, only
    the worker that crosses the burst boundary pauses, and the device never
    goes fully idle.  Use ``queue_depth=1`` when the workload should produce
    true device-level on/off arrival bursts.
    """

    def __init__(self, base: AccessPattern, burst_ios: int = 64,
                 idle_us: Optional[float] = None,
                 duty_cycle: Optional[float] = None,
                 service_estimate_us: float = 100.0):
        super().__init__(base.region_bytes, base.io_size)
        if burst_ios < 1:
            raise ValueError("burst_ios must be >= 1")
        if idle_us is None:
            if duty_cycle is None:
                raise ValueError("give either idle_us or duty_cycle")
            if not 0.0 < duty_cycle <= 1.0:
                raise ValueError("duty_cycle must be in (0, 1]")
            idle_us = burst_ios * service_estimate_us * (1.0 - duty_cycle) / duty_cycle
        if idle_us < 0:
            raise ValueError("idle_us must be non-negative")
        self.base = base
        self.burst_ios = burst_ios
        self.idle_us = float(idle_us)
        self._issued_in_burst = 0

    def next_think_time_us(self) -> float:
        if self._issued_in_burst >= self.burst_ios:
            self._issued_in_burst = 0
            return self.idle_us
        return 0.0

    def next(self) -> tuple[IOKind, int]:
        self._issued_in_burst += 1
        return self.base.next()


class MixedPattern(AccessPattern):
    """Wraps a base pattern and flips each request to WRITE with a probability."""

    def __init__(self, base: AccessPattern, write_ratio: float, seed: int = 0):
        if not 0.0 <= write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        super().__init__(base.region_bytes, base.io_size)
        self.base = base
        self.write_ratio = write_ratio
        self._rng = random.Random(seed)

    def next_think_time_us(self) -> float:
        return self.base.next_think_time_us()

    def next(self) -> tuple[IOKind, int]:
        # The kind comes from this pattern's generator, the offset from the
        # base pattern's.
        kind = IOKind.WRITE if self._rng.random() < self.write_ratio else IOKind.READ
        return kind, self.base.next()[1]


#: Base pattern class -> its (read, write, mixed) names: the one table of
#: FIO-style pattern names, read by :func:`make_pattern` and by the config
#: layer's pattern check (:func:`known_pattern`).
_FAMILIES = {
    SequentialPattern: ("read", "write", "seqrw"),
    RandomPattern: ("randread", "randwrite", "randrw"),
    ZipfianPattern: ("zipfread", "zipfwrite", "zipfrw"),
    HotColdPattern: ("hotcoldread", "hotcoldwrite", "hotcoldrw"),
}

#: Every pattern name without the optional ``bursty-`` prefix.
PATTERN_NAMES = tuple(name for names in _FAMILIES.values() for name in names)


def known_pattern(name: str) -> bool:
    """Whether :func:`make_pattern` builds a pattern named ``name``."""
    return name.lower().removeprefix("bursty-") in PATTERN_NAMES


def mixed_pattern(name: str) -> bool:
    """Whether ``name`` is a mixed pattern, one that needs a ``write_ratio``
    in [0, 1] (``randrw``, ``bursty-zipfrw``, ...)."""
    return name.lower().removeprefix("bursty-") in {
        mixed for _, _, mixed in _FAMILIES.values()}


def make_pattern(name: str, region_bytes: int, io_size: int,
                 write_ratio: Optional[float] = None, seed: int = 0,
                 **params) -> AccessPattern:
    """Build a pattern from a FIO-style name.

    Supported names: ``read``, ``write``, ``randread``, ``randwrite``,
    ``zipfread``, ``zipfwrite``, ``hotcoldread``, ``hotcoldwrite``, and the
    mixed variants ``randrw``, ``seqrw``, ``zipfrw``, ``hotcoldrw`` (each
    requires ``write_ratio``).  Any name may be prefixed with ``bursty-`` to
    wrap the pattern in on/off bursts.  ``params`` forwards pattern-specific
    knobs (``theta`` for Zipfian, ``hot_fraction`` / ``hot_access_fraction``
    for hot/cold, ``burst_ios`` / ``idle_us`` / ``duty_cycle`` /
    ``service_estimate_us`` for bursty).
    """
    name = name.lower()
    if name.startswith("bursty-"):
        burst_keys = ("burst_ios", "idle_us", "duty_cycle", "service_estimate_us")
        burst_params = {key: params.pop(key) for key in burst_keys if key in params}
        base = make_pattern(name[len("bursty-"):], region_bytes, io_size,
                            write_ratio=write_ratio, seed=seed, **params)
        return BurstyPattern(base, **burst_params)

    family = next((cls for cls, names in _FAMILIES.items() if name in names),
                  None)
    if family is None:
        raise ValueError(f"unknown pattern name: {name!r}")

    def build(kind: IOKind) -> AccessPattern:
        if family is SequentialPattern:  # unseeded
            return SequentialPattern(region_bytes, io_size, kind, **params)
        if family is RandomPattern:  # takes no knobs
            return RandomPattern(region_bytes, io_size, kind, seed)
        return family(region_bytes, io_size, kind, seed, **params)

    _, write_name, mixed_name = _FAMILIES[family]
    if name == mixed_name:
        if write_ratio is None:
            raise ValueError(f"{name} requires a write_ratio")
        return MixedPattern(build(IOKind.READ), write_ratio, seed=seed + 1)
    return build(IOKind.WRITE if name == write_name else IOKind.READ)
