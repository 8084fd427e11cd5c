"""Profile the per-I/O hot path of the simulator under cProfile or a sampler.

Runs a closed-loop FIO job against one of the bundled device models and
prints the top-N functions by the chosen sort key -- the tool for finding
per-request call counts worth cutting.  ``--sample`` replaces cProfile with
a statistical profile: a thread reads the main thread's top frame every
millisecond, and the tool prints each function's and each package's share
of the samples.  Either way, it then prints what the cyclic garbage
collector did during the run (collections per generation, objects found,
seconds collecting): a per-I/O reference cycle shows up there, not as any
function's self time.  Confirm a cut end to end with the e2ebench
``contract`` workload (see ``examples/PROFILING.md``).

Usage::

    PYTHONPATH=src python benchmarks/profile_roundtrip.py
    PYTHONPATH=src python benchmarks/profile_roundtrip.py --device ssd --ios 20000
    PYTHONPATH=src python benchmarks/profile_roundtrip.py --sort cumtime
    PYTHONPATH=src python benchmarks/profile_roundtrip.py --device ssd --sample
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import sys
import threading
import time
from collections import Counter
from typing import Optional

#: Seconds between two samples of ``--sample``.
SAMPLE_INTERVAL_S = 0.001


class FrameSampler:
    """Counts the top frame of the thread that creates it, read every
    ``interval_s`` from a background thread, by function.

    The cost per sample does not depend on how many Python calls the
    profiled code makes, so unlike cProfile the shares are not inflated for
    call-heavy frames.  Time in a C call counts for the Python function that
    made it.  The switch interval is lowered to ``interval_s`` while
    sampling, or the sampler could take the GIL only every 5 ms.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S):
        self.interval_s = interval_s
        #: (file, first line, function) -> samples
        self.counts: Counter = Counter()
        self._target = threading.get_ident()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="frame-sampler",
                                        daemon=True)

    def __enter__(self) -> "FrameSampler":
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(self.interval_s)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch_interval)

    def _loop(self) -> None:
        counts = self.counts
        target = self._target
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(target)
            if frame is not None:
                code = frame.f_code
                counts[(code.co_filename, code.co_firstlineno, code.co_name)] += 1

    def report(self, top: int, stream=sys.stdout) -> None:
        """Print the per-package and the top-``top`` per-function shares."""
        total = sum(self.counts.values())
        print(f"# {total} samples of the main thread's top frame, every "
              f"{self.interval_s * 1e3:g} ms", file=stream)
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

    def report(self, stream=sys.stdout) -> None:
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
                             f"{SAMPLE_INTERVAL_S * 1e3:g} ms instead of "
                             "running cProfile; prints per-function and "
                             "per-package shares")
    args = parser.parse_args(argv)

    from repro.sim import Simulator
    from repro.workload.fio import FioJob, run_job

    sim = Simulator()
    device = build_device(args.device, sim)
    job = FioJob(pattern=args.pattern, io_size=args.io_size,
                 queue_depth=args.queue_depth, io_count=args.ios)

    if args.sample:
        with CollectorStats() as collector, FrameSampler() as sampler:
            result = run_job(sim, device, job)
    else:
        profiler = cProfile.Profile()
        with CollectorStats() as collector:
            profiler.enable()
            result = run_job(sim, device, job)
            profiler.disable()

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
