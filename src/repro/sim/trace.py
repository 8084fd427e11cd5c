"""Request-path tracing: per-request lifecycle spans and latency breakdowns.

Every device model advances a request through the same canonical lifecycle::

    submit -> queue -> service -> media | network -> complete

A :class:`Tracer` records how long each request spent in each stage via two
cheap hooks -- ``enter(request, stage)`` on every stage transition and
``finish(request)`` on completion.  Tracing is **off by default**: devices
hold ``tracer = None`` and guard every hook with a single ``is not None``
check, so the untraced hot path pays one attribute load per hook site.

Attach a tracer with :meth:`repro.host.BlockDevice.set_tracer`; one tracer
may be shared by several devices (the multi-device sweep cells do exactly
that), in which case the breakdown aggregates over all of them and
:meth:`Tracer.breakdown` can also be filtered per device.

Stage names are free-form -- the canonical ones are in :data:`STAGES` and
every device maps its internals onto them (the local SSD uses ``media`` for
flash work, the ESSD uses ``network`` for the storage-cluster round trip)
-- so reports stay uniform across device families.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.io import IORequest
    from repro.sim.engine import Simulator

#: Canonical lifecycle stages, in order.  Devices may add extra stages (e.g.
#: ``buffer`` for the SSD write buffer); reports list canonical stages first.
STAGES = ("submit", "queue", "service", "media", "network")


class Tracer:
    """Records per-request stage spans and aggregates latency breakdowns.

    Parameters
    ----------
    sim:
        The simulator whose clock timestamps the spans.
    keep_spans:
        Retain the complete span list of the last ``keep_spans`` completed
        requests (0 disables retention; aggregation always happens).
    """

    def __init__(self, sim: "Simulator", keep_spans: int = 0):
        self.sim = sim
        #: request_id -> [device_name, stage, stage_entered_at, submit_time,
        #:                retained span list or None]
        self._open: dict[int, list] = {}
        #: (device_name, stage) -> list of stage durations (us).
        self._stage_samples: dict[tuple[str, str], list[float]] = {}
        self._completed = 0
        self._keep_spans = keep_spans
        self.spans: deque = deque(maxlen=keep_spans) if keep_spans > 0 else deque(maxlen=0)

    # -- hooks (called by devices) ---------------------------------------
    def start(self, request: "IORequest", device: str = "") -> None:
        """Open the trace for ``request`` in the ``submit`` stage."""
        now = self.sim.now
        retained = [] if self._keep_spans > 0 else None
        self._open[request.request_id] = [device, "submit", now, now, retained]

    def enter(self, request: "IORequest", stage: str) -> None:
        """Close the current stage span and enter ``stage``."""
        entry = self._open.get(request.request_id)
        if entry is None:
            return
        now = self.sim.now
        self._close_stage(entry, now)
        entry[1] = stage
        entry[2] = now

    def finish(self, request: "IORequest") -> None:
        """Close the trace; the final open stage span ends now."""
        entry = self._open.pop(request.request_id, None)
        if entry is None:
            return
        now = self.sim.now
        self._close_stage(entry, now)
        self._completed += 1
        if entry[4] is not None:
            self.spans.append({
                "request_id": request.request_id,
                "device": entry[0],
                "kind": request.kind.value,
                "size": request.size,
                "submit_us": entry[3],
                "complete_us": now,
                "spans": entry[4],
            })

    def _close_stage(self, entry: list, now: float) -> None:
        duration = now - entry[2]
        key = (entry[0], entry[1])
        samples = self._stage_samples.get(key)
        if samples is None:
            samples = self._stage_samples[key] = []
        samples.append(duration)
        if entry[4] is not None:
            entry[4].append((entry[1], entry[2], now))

    # -- reporting --------------------------------------------------------
    @property
    def completed_requests(self) -> int:
        return self._completed

    @property
    def open_requests(self) -> int:
        return len(self._open)

    def devices(self) -> list[str]:
        """Device names that contributed samples."""
        return sorted({device for device, _stage in self._stage_samples})

    def breakdown(self, device: Optional[str] = None) -> dict[str, dict[str, Any]]:
        """Aggregate per-stage statistics.

        Returns ``{stage: {count, total_us, mean_us, p50_us, p99_us, max_us,
        share}}`` where ``share`` is the stage's fraction of the summed
        traced time.  With ``device`` given, only that device's samples are
        aggregated; otherwise all devices pool together.
        """
        import numpy as np

        per_stage: dict[str, list[float]] = {}
        for (sample_device, stage), samples in self._stage_samples.items():
            if device is not None and sample_device != device:
                continue
            per_stage.setdefault(stage, []).extend(samples)
        grand_total = sum(sum(samples) for samples in per_stage.values()) or 1.0
        ordered = [stage for stage in STAGES if stage in per_stage]
        ordered += sorted(stage for stage in per_stage if stage not in STAGES)
        result = {}
        for stage in ordered:
            arr = np.asarray(per_stage[stage], dtype=np.float64)
            total = float(arr.sum())
            result[stage] = {
                "count": int(arr.size),
                "total_us": total,
                "mean_us": float(arr.mean()),
                "p50_us": float(np.percentile(arr, 50)),
                "p99_us": float(np.percentile(arr, 99)),
                "max_us": float(arr.max()),
                "share": total / grand_total,
            }
        return result

    def to_payload(self, per_device: bool = True) -> dict[str, Any]:
        """JSON-serialisable breakdown (overall plus per device)."""
        payload: dict[str, Any] = {
            "completed_requests": self._completed,
            "stages": self.breakdown(),
        }
        if per_device:
            devices = self.devices()
            if len(devices) > 1 or (devices and devices[0]):
                payload["devices"] = {
                    name: self.breakdown(name) for name in devices}
        return payload
