"""Profile the per-I/O hot path of the simulator under cProfile or a sampler.

Runs a closed-loop FIO job against one of the bundled device models and
prints the top-N functions by the chosen sort key -- the tool for finding
per-request call counts worth cutting.  ``--fleet SCENARIO`` profiles a
fleet scenario's quick cells on one in-process shard instead: the work one
device never shows, such as replica delivery between device groups and the
garbage a fleet leaves for the collector.  ``--sample`` replaces cProfile with
a statistical profile: a ``SIGPROF`` handler counts the main thread's top
frame after every millisecond of CPU time, and the tool prints each
function's and each package's share of the samples.  Either way, it then
prints what the cyclic garbage collector did during the run (collections
per generation, objects found, seconds collecting): a per-I/O reference
cycle shows up there, not as any function's self time.  Confirm a cut end
to end with the e2ebench ``contract`` workload (see
``examples/PROFILING.md``).

Usage::

    PYTHONPATH=src python benchmarks/profile_roundtrip.py
    PYTHONPATH=src python benchmarks/profile_roundtrip.py --device ssd --ios 20000
    PYTHONPATH=src python benchmarks/profile_roundtrip.py --sort cumtime
    PYTHONPATH=src python benchmarks/profile_roundtrip.py --device ssd --sample
    PYTHONPATH=src python benchmarks/profile_roundtrip.py --fleet failover-storm
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import signal
import sys
import time
from collections import Counter
from typing import Optional

#: Seconds of CPU time between two samples of ``--sample``.
SAMPLE_INTERVAL_S = 0.001


class FrameSampler:
    """Counts the main thread's top frame, by function, after every
    ``interval_s`` of the process's CPU time.

    An ``ITIMER_PROF`` timer raises ``SIGPROF``, and Python runs the handler
    in the main thread between two bytecodes, so a sample lands wherever the
    CPU time went; time in a C call counts for the Python frame that runs
    when the call returns.  The cost per sample does not depend on how many
    Python calls the profiled code makes, so unlike cProfile the shares are
    not inflated for call-heavy frames.  (A sampler thread is biased
    instead: it can read the frames only while it holds the GIL, and it
    gets the GIL when a C call releases it.  On a loop with about 3% of its
    time in ``np.cumsum``, such a thread charged 90-95% of its samples to
    numpy.)  Use it from the main thread.  The kernel may round the
    interval up to its timer tick, so the report gives the CPU time per
    sample it got.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S):
        self.interval_s = interval_s
        #: (file, first line, function) -> samples
        self.counts: Counter = Counter()
        self.cpu_s = 0.0

    def __enter__(self) -> "FrameSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self.cpu_s = -time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.cpu_s += time.process_time()
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, _signum, frame) -> None:
        if frame is not None:
            code = frame.f_code
            self.counts[(code.co_filename, code.co_firstlineno, code.co_name)] += 1

    def report(self, top: int, stream=None) -> None:
        """Print the per-package and the top-``top`` per-function shares."""
        total = sum(self.counts.values())
        every_s = self.cpu_s / total if total else self.interval_s
        print(f"# {total} samples of the main thread's top frame, every "
              f"{every_s * 1e3:.2g} ms", file=stream)
        if not total:
            return
        packages: Counter = Counter()
        for (filename, _line, _name), samples in self.counts.items():
            packages[package_of(filename)] += samples
        print(f"{'share':>7}  package", file=stream)
        for package, samples in packages.most_common():
            print(f"{samples / total:7.1%}  {package}", file=stream)
        print(f"{'share':>7}  function", file=stream)
        for (filename, line, name), samples in self.counts.most_common(top):
            print(f"{samples / total:7.1%}  {short_path(filename)}:{line}({name})",
                  file=stream)


class CollectorStats:
    """What the cyclic garbage collector did while the block ran, read from
    ``gc.callbacks``: collections per generation, the unreachable objects
    they found, and the seconds they took."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.found = 0
        self.seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> "CollectorStats":
        gc.callbacks.append(self._observe)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._observe)

    def _observe(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.seconds += time.perf_counter() - self._started
        self.collections[info["generation"]] += 1
        self.found += info["collected"] + info["uncollectable"]

    def report(self, stream=None) -> None:
        print(f"# cyclic GC during the run: "
              f"{'/'.join(map(str, self.collections))} collections "
              f"(generation 0/1/2) found {self.found} unreachable objects "
              f"in {self.seconds:.3f} s", file=stream)


def repro_parts(filename: str) -> Optional[list[str]]:
    """The parts of ``filename``'s path from its ``repro`` package on, or
    ``None`` outside the package."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts[:-1]:
        return None
    return parts[len(parts) - 1 - parts[::-1].index("repro"):]


def package_of(filename: str) -> str:
    """``repro``'s subpackage holding ``filename`` (``repro`` for a top-level
    module), or ``external``."""
    parts = repro_parts(filename)
    if parts is None:
        return "external"
    return parts[1] if len(parts) > 2 else "repro"


def short_path(filename: str) -> str:
    """``filename`` from its ``repro`` package on, or its base name."""
    parts = repro_parts(filename)
    return os.path.basename(filename) if parts is None else "/".join(parts)


def build_device(name: str, sim):
    """Construct one of the profiled device models on ``sim``."""
    if name == "loopback":
        from repro.devices.loopback import LoopbackDevice
        return LoopbackDevice(sim, capacity_bytes=1 << 28,
                              service_time_us=2.0, service_slots=4)
    if name == "ssd":
        from repro.ssd.ssd import SsdDevice
        device = SsdDevice(sim)
        device.preload()
        return device
    if name == "essd":
        from repro.ebs.essd import EssdDevice
        return EssdDevice(sim)
    raise ValueError(f"unknown device {name!r}")


def fleet_topologies(name: str) -> list:
    """The topologies of fleet scenario ``name``'s quick cells, in cell
    order; ``ValueError`` if it has none."""
    from repro.cluster import FleetTopology
    from repro.experiments.scenarios import get_scenario
    from repro.experiments.sweep import quick_cells

    topologies = [FleetTopology.from_json(cell.fleet)
                  for cell in quick_cells(get_scenario(name).cells())
                  if cell.fleet is not None]
    if not topologies:
        raise ValueError(f"scenario {name!r} has no fleet cells")
    return topologies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--device", choices=("loopback", "ssd", "essd"),
                        default="loopback",
                        help="device model to drive (default: loopback, "
                             "no device-model physics)")
    parser.add_argument("--ios", type=int, default=12000,
                        help="number of I/Os to issue (default: 12000)")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="closed-loop workers (default: 8)")
    parser.add_argument("--io-size", type=int, default=4096,
                        help="I/O size in bytes (default: 4096)")
    parser.add_argument("--pattern", default="randread",
                        help="access pattern (default: randread)")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print (default: 25)")
    parser.add_argument("--sort", choices=("tottime", "cumtime", "ncalls"),
                        default="tottime",
                        help="pstats sort key (default: tottime)")
    parser.add_argument("--sample", action="store_true",
                        help="sample the top frame every "
                             f"{SAMPLE_INTERVAL_S * 1e3:g} ms of CPU time "
                             "instead of running cProfile; prints "
                             "per-function and per-package shares")
    parser.add_argument("--fleet", metavar="SCENARIO",
                        help="profile this fleet scenario's quick cells on "
                             "one in-process shard instead of a FIO job "
                             "(the job options are then ignored)")
    args = parser.parse_args(argv)

    if args.fleet:
        from repro.cluster import FleetCoordinator, FleetRunConfig

        try:
            topologies = fleet_topologies(args.fleet)
        except (KeyError, ValueError) as exc:
            parser.error(exc.args[0])
        config = FleetRunConfig(shards=1, transport="local")

        def work():
            return [FleetCoordinator(config=config).run(topology)
                    for topology in topologies]
    else:
        from repro.sim import Simulator
        from repro.workload.fio import FioJob, run_job

        sim = Simulator()
        device = build_device(args.device, sim)
        job = FioJob(pattern=args.pattern, io_size=args.io_size,
                     queue_depth=args.queue_depth, io_count=args.ios)

        def work():
            return run_job(sim, device, job)

    if args.sample:
        with CollectorStats() as collector, FrameSampler() as sampler:
            result = work()
    else:
        profiler = cProfile.Profile()
        with CollectorStats() as collector:
            profiler.enable()
            result = work()
            profiler.disable()

    if args.fleet:
        ios = sum(payload["fleet"]["ios_completed"] for payload in result)
        events = sum(payload["runtime"]["scheduled_events"] for payload in result)
        print(f"# fleet {args.fleet}: {len(result)} quick cells on one shard; "
              f"{ios} I/Os, {events} events")
    else:
        duration_s = result.duration_us / 1e6 if result.duration_us > 0 else 0.0
        print(f"# {args.device}: {result.ios_completed} I/Os "
              f"({args.pattern}, {args.io_size}B, qd={args.queue_depth}); "
              f"simulated {duration_s:.3f}s")
    if args.sample:
        sampler.report(args.top)
    else:
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats(args.sort).print_stats(args.top)
    collector.report()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
