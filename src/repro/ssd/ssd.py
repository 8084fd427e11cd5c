"""The local SSD block device.

:class:`SsdDevice` wires together the flash array, the FTL, the DRAM write
buffer, and the sequential prefetcher behind the common
:class:`repro.host.BlockDevice` interface.
"""

from __future__ import annotations

import random
from math import log
from typing import TYPE_CHECKING, Optional

from repro.flash.chip import FlashArray
from repro.host.device import BlockDevice
from repro.host.io import IOKind, IORequest
from repro.sim.resources import Resource
from repro.ssd.allocator import WriteStream
from repro.ssd.config import SsdConfig, samsung_970pro_profile
from repro.ssd.ftl import Ftl
from repro.ssd.prefetcher import ReadCache, SequentialPrefetcher
from repro.ssd.write_buffer import WriteBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


class SsdDevice(BlockDevice):
    """A simulated local NVMe flash SSD."""

    def __init__(self, sim: "Simulator", config: Optional[SsdConfig] = None,
                 name: str = "ssd"):
        config = config or samsung_970pro_profile()
        super().__init__(sim, config.capacity_bytes, config.logical_block_size, name)
        self.config = config
        self.flash = FlashArray(sim, config.geometry, config.timing)
        self.ftl = Ftl(sim, config, self.flash)
        self._rng = random.Random(config.seed)
        # The controller's host-interface pipeline (command decode + DMA) has
        # a small number of parallel contexts.  Deep queues therefore *raise*
        # per-request latency on the local SSD -- which is exactly why the
        # ESSD/SSD latency gap shrinks at high queue depth (Observation 1):
        # the backend-parallel ESSD does not pay this serialization.
        self._controller = Resource(sim, capacity=config.controller_contexts)

        # Per-I/O constants of the host-overhead model, precomputed once so
        # ``_serve`` reads attributes instead of chasing config fields per
        # request.  The transfer rate is kept as a divisor because
        # ``size / rate`` and ``size * (1 / rate)`` round differently.
        self._block = config.logical_block_size
        self._base_overhead_us = config.host_overhead_us
        self._transfer_bw = config.host_transfer_bytes_per_us
        self._per_block_us = config.per_block_overhead_us
        self._jitter_lambda = (1.0 / config.jitter_mean_us
                               if config.jitter_mean_us > 0 else 0.0)
        self._hiccup_p = config.hiccup_probability
        self._hiccup_us = config.hiccup_us

        block = config.logical_block_size
        if config.write_buffer_bytes > 0:
            self.write_buffer: Optional[WriteBuffer] = WriteBuffer(
                sim, max(config.program_unit_slots, config.write_buffer_bytes // block),
                flusher=self._flush_worker, flushers=config.flush_workers)
        else:
            self.write_buffer = None

        if config.read_cache_bytes > 0:
            self.read_cache: Optional[ReadCache] = ReadCache(config.read_cache_bytes // block)
            self.prefetcher: Optional[SequentialPrefetcher] = SequentialPrefetcher(
                trigger=config.prefetch_trigger,
                window_slots=max(1, config.prefetch_window_bytes // block),
                logical_blocks=config.logical_blocks,
            )
        else:
            self.read_cache = None
            self.prefetcher = None
        #: ``(offset, size)`` of every preload so far, or ``None`` once the
        #: device has served a request (see :meth:`preload`).
        self._preloads: Optional[tuple] = ()

    # -- convenience --------------------------------------------------------------
    @property
    def write_amplification(self) -> float:
        """Current cumulative write amplification factor."""
        return self.ftl.stats.write_amplification

    def preload(self, offset: int = 0, size: Optional[int] = None,
                like: Optional["SsdDevice"] = None) -> None:
        """Precondition the device: mark ``[offset, offset+size)`` as written.

        Takes no simulated time.  Use before read-latency experiments so that
        reads hit mapped flash instead of returning zeroes.

        ``like`` names an SSD to copy the result from.  The copy is taken
        only when it is exact: both devices have the same configuration,
        neither has served a request, this one has had no preload, and
        ``like``'s only preload was this same range.  Otherwise the preload
        is computed.
        """
        size = self.capacity_bytes - offset if size is None else size
        block = self.logical_block_size
        if offset % block or size % block:
            raise ValueError("preload range must be block aligned")
        span = (offset, size)
        if (like is not None and self._preloads == () and like._preloads == (span,)
                and like.config == self.config):
            self.ftl.copy_preload(like.ftl)
        else:
            self.ftl.preload_range(offset // block, size // block)
        if self._preloads is not None:
            self._preloads += (span,)

    # -- request service ------------------------------------------------------------
    def _serve(self, request: IORequest):
        """One generator frame per request: controller context, host
        overhead (decode + DMA, jitter, hiccups), then the per-kind media
        path through the write buffer, read cache and FTL."""
        rng = self._rng
        tracer = self.tracer
        self._preloads = None
        if tracer is not None:
            tracer.enter(request, "queue")  # waiting for a controller context
        yield self._controller.request()
        if tracer is not None:
            tracer.enter(request, "service")  # command decode + host DMA
        try:
            size = request.size
            overhead = (self._base_overhead_us
                        + size / self._transfer_bw
                        + max(1, size // self._block) * self._per_block_us)
            if self._jitter_lambda > 0.0:
                # ``rng.expovariate(lambda)``, inlined: the same expression.
                overhead += -log(1.0 - rng.random()) / self._jitter_lambda
            if self._hiccup_p > 0 and rng.random() < self._hiccup_p:
                overhead += self._hiccup_us
            yield overhead
        finally:
            self._controller.release()
        if tracer is not None:
            tracer.enter(request, "media")  # FTL, write buffer, flash
        kind = request.kind
        block = self._block
        if kind is IOKind.READ:
            # The write buffer shields the read cache, so cache hits are
            # only recorded on buffer misses.
            lbns = range(request.offset // block,
                         (request.offset + request.size) // block)
            write_buffer = self.write_buffer
            read_cache = self.read_cache
            misses = lbns if write_buffer is None else write_buffer.misses(lbns)
            if read_cache is not None and misses:
                lookup = read_cache.lookup
                misses = [lbn for lbn in misses if not lookup(lbn)]
            self._maybe_prefetch(lbns)
            if misses:
                yield from self.ftl.read_slots(misses)
        elif kind is IOKind.WRITE:
            lbns = range(request.offset // block,
                         (request.offset + request.size) // block)
            if self.read_cache is not None:
                self.read_cache.invalidate(lbns)
            write_buffer = self.write_buffer
            if write_buffer is None:
                yield from self.ftl.write_slots(list(lbns), WriteStream.HOST)
            else:
                lbn, end = lbns.start, lbns.stop
                while True:
                    lbn = write_buffer.insert_run(lbn, end)
                    if lbn == end:
                        break
                    yield write_buffer.wait_for_space(lbn)
        elif kind is IOKind.FLUSH:
            write_buffer = self.write_buffer
            if write_buffer is not None:
                while not write_buffer.is_empty():
                    yield write_buffer.wait_for_space(None)
        elif kind is IOKind.TRIM:
            self.ftl.trim(range(request.offset // block,
                                (request.offset + request.size) // block))
        self._finish(request)
        return request

    # -- background work ---------------------------------------------------------------
    def _maybe_prefetch(self, lbns: range) -> None:
        if self.prefetcher is None or self.read_cache is None:
            return
        decision = self.prefetcher.observe(lbns.start, len(lbns))
        if decision is not None:
            self.sim.process(self._prefetch(decision.start_lbn, decision.num_slots))

    def _prefetch(self, start_lbn: int, num_slots: int):
        lbns = [lbn for lbn in range(start_lbn, start_lbn + num_slots)
                if self.ftl.mapping.is_mapped(lbn)]
        if not lbns:
            return
        yield from self.ftl.read_slots(lbns, for_prefetch=True)
        for lbn in lbns:
            self.read_cache.insert(lbn)

    def _flush_worker(self):
        """Background process draining the write buffer to flash."""
        buffer = self.write_buffer
        unit = self.config.program_unit_slots
        while True:
            batch = buffer.take_batch(unit)
            if not batch:
                yield buffer.wait_for_data()
                continue
            try:
                yield from self.ftl.write_slots(batch, WriteStream.HOST)
            finally:
                buffer.complete_flush(batch)

    # -- reporting ------------------------------------------------------------------------
    def describe(self) -> dict:
        """Summary of configuration and runtime statistics (for reports)."""
        stats = self.ftl.stats
        gc_stats = self.ftl.gc.stats
        return {
            "name": self.name,
            "kind": "local-ssd",
            "capacity_bytes": self.capacity_bytes,
            "geometry": self.config.geometry.describe(),
            "overprovisioning": round(self.config.overprovisioning_ratio, 4),
            "host_reads": self.stats.reads_completed,
            "host_writes": self.stats.writes_completed,
            "bytes_read": self.stats.bytes_read,
            "bytes_written": self.stats.bytes_written,
            "write_amplification": round(stats.write_amplification, 3),
            "gc_blocks_erased": gc_stats.blocks_erased,
            "gc_slots_relocated": gc_stats.slots_relocated,
            "flash_programs": self.flash.stats.programs,
            "flash_reads": self.flash.stats.reads,
            "flash_erases": self.flash.stats.erases,
        }
