"""Per-layer measurement from outside ``src/``.

Two instruments, both installed only for a traced run:

* :class:`Spans` wraps public entry points of each ``repro`` layer and sums
  host time spent inside them (outermost call only, so a nested call is not
  counted twice; host-speed probes run inside a call are left out) plus the
  counts that go with them.  Wrappers replace every
  ``repro.*`` module binding of a patched function, so ``from x import f``
  call sites are covered too.
* :class:`Sampler` charges each thread's CPU time to the ``repro``
  subpackage it is executing, giving self seconds per subpackage.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import threading
import time
import weakref
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from e2ebench import calibrate

#: Span metrics: time in seconds summed over outermost calls.
SPAN_METRICS = (
    "sim.run_s", "ssd.build_s", "ssd.preload_s", "ebs.build_s",
    "ebs.preload_s", "workload.run_s", "core.obs1_s", "core.obs2_s",
    "core.obs3_s", "core.obs4_s", "cluster.transport_setup_s",
    "cluster.post_s", "cluster.wait_s", "cluster.collect_s",
    "cluster.merge_s", "cluster.macro_calibrate_s",
    "experiments.run_cell_s", "experiments.cache_load_s",
    "experiments.cache_store_s", "serve.start_s",
)

#: Count metrics gathered by the same wrappers.
COUNT_METRICS = (
    "sim.events", "ssd.preload_calls", "cluster.rounds",
    "cluster.tasks", "cluster.lockstep_shards", "cluster.replica_messages",
    "cluster.macro_calibrations", "experiments.cache_hits",
    "experiments.cache_misses",
)

BENCH_DIR = Path(__file__).resolve().parent

#: ``repro`` subpackages (plus ``repro`` itself for top-level modules and
#: ``external`` for the standard library and numpy) in the self-time rollup.
PACKAGES = ("sim", "ssd", "flash", "host", "metrics", "ebs", "workload",
            "core", "cluster", "experiments", "serve", "devices", "config",
            "implications", "repro", "external")

#: Seconds between two reads of every thread's CPU clock.
SAMPLE_INTERVAL_S = 0.002


class Spans:
    """Host-time spans and counts around calls into each layer."""

    def __init__(self) -> None:
        self.totals: collections.Counter = collections.Counter()
        self._depth: collections.Counter = collections.Counter()
        self._undo: list[Callable[[], None]] = []
        self._ssd_stats: list[Any] = []
        self._results: list[Any] = []
        self._sim_seen: "weakref.WeakKeyDictionary[Any, int]" = \
            weakref.WeakKeyDictionary()

    # -- wrapping ----------------------------------------------------------

    def _timed(self, name: Optional[str], original: Callable,
               after: Optional[Callable] = None) -> Callable:
        totals, depth = self.totals, self._depth

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None or depth[name]:
                result = original(*args, **kwargs)
            else:
                depth[name] += 1
                probed = calibrate.probed_s
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    totals[name] += (perf_counter() - start
                                     - (calibrate.probed_s - probed))
                    depth[name] -= 1
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _patch_method(self, cls: type, attr: str, name: Optional[str],
                      after: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._timed(name, original, after))
        self._undo.append(lambda: setattr(cls, attr, original))

    def _patch_function(self, module_name: str, attr: str, name: str,
                        after: Optional[Callable] = None) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._timed(name, original, after)
        sites = [(module, key) for module in list(sys.modules.values())
                 if getattr(module, "__name__", "").startswith("repro")
                 for key, value in list(vars(module).items())
                 if value is original]
        for module, key in sites:
            setattr(module, key, wrapper)
        self._undo.append(
            lambda: [setattr(module, key, original) for module, key in sites])

    def install(self) -> "Spans":
        from repro.cluster.coordinator import FleetCoordinator
        from repro.cluster.transport import InProcessTransport
        from repro.core.checker import ContractChecker
        from repro.ebs.essd import EssdDevice
        from repro.experiments.sweep import SweepCache
        from repro.serve.server import ExperimentServer
        from repro.sim.engine import Simulator
        from repro.ssd.ssd import SsdDevice

        totals = self.totals

        def count_events(args, _result):
            sim = args[0]
            now = sim.scheduled_events
            totals["sim.events"] += now - self._sim_seen.get(sim, 0)
            self._sim_seen[sim] = now

        def count_preload(_args, _result):
            totals["ssd.preload_calls"] += 1

        def keep_result(_args, result):
            self._results.append(result)

        def count_outbound(_args, result):
            totals["cluster.replica_messages"] += len(result[0])

        def count_runtime(_args, result):
            runtime = result["runtime"]
            totals["cluster.rounds"] += runtime["coordinator_rounds"]
            totals["cluster.tasks"] += runtime["coordination_tasks"]
            totals["cluster.lockstep_shards"] += runtime["lockstep_shards"]

        def count_calibration(_args, _result):
            totals["cluster.macro_calibrations"] += 1

        def count_cache(_args, result):
            key = "experiments.cache_misses" if result is None \
                else "experiments.cache_hits"
            totals[key] += 1

        self._patch_method(Simulator, "run", "sim.run_s", count_events)
        self._patch_method(SsdDevice, "__init__", "ssd.build_s",
                           lambda args, _r: self._ssd_stats.append(args[0].ftl.stats))
        self._patch_method(SsdDevice, "preload", "ssd.preload_s", count_preload)
        self._patch_method(EssdDevice, "__init__", "ebs.build_s")
        self._patch_method(EssdDevice, "preload", "ebs.preload_s")
        self._patch_function("repro.workload.fio", "run_job", "workload.run_s",
                             keep_result)
        self._patch_function("repro.workload.fio", "run_streams", "workload.run_s")
        self._patch_function("repro.workload.trace", "replay_trace",
                             "workload.run_s", keep_result)
        for number in (1, 2, 3, 4):
            self._patch_method(ContractChecker, f"check_observation_{number}",
                               f"core.obs{number}_s")
        self._patch_function("repro.cluster.transport", "create_transport",
                             "cluster.transport_setup_s")
        self._patch_method(InProcessTransport, "post", "cluster.post_s")
        self._patch_method(InProcessTransport, "wait", "cluster.wait_s",
                           count_outbound)
        self._patch_method(InProcessTransport, "collect_all", "cluster.collect_s")
        self._patch_function("repro.cluster.metrics", "merge_shard_payloads",
                             "cluster.merge_s")
        self._patch_method(FleetCoordinator, "run", None, count_runtime)
        self._patch_function("repro.cluster.macro", "calibrate_workload",
                             "cluster.macro_calibrate_s", count_calibration)
        self._patch_function("repro.experiments.sweep", "run_cell",
                             "experiments.run_cell_s")
        self._patch_method(SweepCache, "load", "experiments.cache_load_s",
                           count_cache)
        self._patch_method(SweepCache, "store", "experiments.cache_store_s")
        self._patch_method(ExperimentServer, "start", "serve.start_s")
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def metrics(self, iterations: int) -> dict[str, float]:
        """Every span and count per iteration, plus the derived values."""
        per = {name: self.totals[name] / iterations
               for name in SPAN_METRICS + COUNT_METRICS}
        # The server starts once per set-up, not once per iteration.
        per["serve.start_s"] = self.totals["serve.start_s"]
        per["workload.ios"] = sum(
            result.ios_completed for result in self._results) / iterations
        events = self.totals["sim.events"]
        per["sim.host_ns_per_event"] = \
            self.totals["sim.run_s"] / events * 1e9 if events else 0.0
        host = sum(stats.host_slots_written for stats in self._ssd_stats)
        gc = sum(stats.gc_slots_written for stats in self._ssd_stats)
        per["ssd.gc_slots_written"] = gc / iterations
        # Write amplification over every SSD the iterations built; -1 when
        # no SSD saw a host write (nothing to amplify).
        per["ssd.write_amplification"] = (host + gc) / host if host else -1.0
        return per


class Sampler:
    """Self CPU time per ``repro`` subpackage, by sampling every thread.

    Every :data:`SAMPLE_INTERVAL_S` a background thread reads each thread's CPU
    clock and charges the CPU time it used since the previous sample to the
    package of the function it is executing now (its innermost Python
    frame -- time in a C call counts for the Python function that made it).
    A thread blocked in a wait uses no CPU time, so idle server and client
    threads charge nothing; time in the benchmark's own code (host-speed
    probes, span wrappers) is not charged to any layer.  Unlike cProfile,
    the cost does not grow with the number of Python calls, so the shares
    are not skewed toward call-heavy code.
    """

    def __init__(self, src_repro: Path):
        self.src_repro = src_repro
        self.totals = dict.fromkeys(PACKAGES, 0.0)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "Sampler":
        self._thread = threading.Thread(target=self._loop, name="e2ebench-sampler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _loop(self) -> None:
        me = threading.get_ident()
        #: thread ident -> [cpu clock id, CPU seconds at the last sample]
        clocks: dict[int, list] = {}
        packages: dict[str, str] = {}
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            for ident, frame in sys._current_frames().items():
                if ident == me:
                    continue
                try:
                    clock = clocks.get(ident)
                    if clock is None:
                        clock_id = time.pthread_getcpuclockid(ident)
                        clocks[ident] = [clock_id, time.clock_gettime(clock_id)]
                        continue
                    now = time.clock_gettime(clock[0])
                except OSError:  # the thread ended between the two reads
                    clocks.pop(ident, None)
                    continue
                used, clock[1] = now - clock[1], now
                filename = frame.f_code.co_filename
                if filename not in packages:
                    packages[filename] = package_of(filename, self.src_repro)
                if packages[filename] is not None:
                    self.totals[packages[filename]] += used


def package_of(filename: str, src_repro: Path) -> Optional[str]:
    """The rollup bucket of a code file: a ``repro`` subpackage name,
    ``repro`` for a top-level module, ``None`` for the benchmark's own files
    (its probes and wrappers are not a layer), else ``external``."""
    path = Path(os.path.abspath(filename))
    if path.is_relative_to(BENCH_DIR):
        return None
    try:
        relative = path.relative_to(src_repro)
    except ValueError:
        return "external"
    parts = relative.parts
    if len(parts) == 1:
        return "repro"
    return parts[0] if parts[0] in PACKAGES else "external"
