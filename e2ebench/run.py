#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 e2ebench/run.py --workload contract --seed 0 --seconds 15 --trace 0

Run from the repository root.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  The
lines before it give each metric's median, quartiles and sample count, and
the run metadata; the same data, plus every sample, is written to
``.e2ebench-run/results/``.  Every timing is host time: the end-to-end
ones in reference-host seconds (see ``calibrate``), with the raw host
seconds kept in the results file; the per-layer ones raw.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-run"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from e2ebench import calibrate, report  # noqa: E402

#: Fresh processes timed from spawn to "set up" per untraced run.
SETUP_PROBES = 7

#: Environment the program reads; every run starts from a clean slate.
_ENV_KEYS = ("TMPDIR", "REPRO_SWEEP_CACHE", "REPRO_MACRO_CACHE",
             "REPRO_SCENARIO_PATH")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to measure."""


@contextlib.contextmanager
def isolate_run():
    """A private temp tree inside the checkout for one run.

    ``TMPDIR`` and ``$REPRO_SWEEP_CACHE`` point into it, and the macro
    calibration cache and user scenario path are unset, so no cache from an
    earlier run can make this one look fast.  Everything is removed on exit.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise MissingProgram(f"repro imports from {repro.__file__}, not {SRC}")
    tmp = WORK / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    saved = {key: os.environ.get(key) for key in _ENV_KEYS}
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_SWEEP_CACHE"] = str(tmp / "sweep-cache")
    os.environ.pop("REPRO_MACRO_CACHE", None)
    os.environ.pop("REPRO_SCENARIO_PATH", None)
    tempfile.tempdir = str(tmp)
    try:
        yield tmp
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)


def pin_to_one_cpu() -> int | None:
    """Pin this process, and every process it starts, to one CPU.

    The host-speed probe measures the vCPU it runs on; on a shared VM each
    vCPU slows and recovers on its own, so the probe tracks the work only on
    the same one.  All work runs in this process (fleets on in-process
    shards), so one CPU is all it uses.  Returns the CPU, or ``None`` where
    the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_for(workload, seconds: float) -> list:
    """Whole iterations until ``seconds`` of host time have passed (>= 1).

    Each iteration runs under a :class:`calibrate.Timer` that probes host
    speed between its steps.  Each starts from a collected heap, so garbage
    left by the previous one neither pauses it nor raises its memory peak.
    """
    iterations = []
    last_probe = calibrate.probe()
    start = perf_counter()
    while not iterations or perf_counter() - start < seconds:
        gc.collect()
        timer = calibrate.Timer(last_probe)
        iterations.append(workload.iterate(timer))
        last_probe = timer.last_probe
    return iterations


def probe_setup_s(workload: str, seed: int) -> list[tuple[float, float]]:
    """``(host seconds, scale)`` from spawning a fresh process to its
    workload being set up (interpreter start, imports, input construction,
    server start), for each of :data:`SETUP_PROBES` processes."""
    samples = []
    before = calibrate.probe()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.close()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe for {workload} failed "
                               f"(exit {child.returncode})")
        after = calibrate.probe()
        samples.append((elapsed, calibrate.scale(before, after)))
        before = after
    return samples


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit() -> str:
    """HEAD's commit when the checkout is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def traced(workload, seconds: float):
    """The per-layer run: untraced iterations, then iterations with spans
    and the self-time sampler installed (set up afresh, so set-up spans
    such as the server start are seen too).

    Returns ``(iterations, per-layer values, {metric: why not measured})``.
    """
    from e2ebench.layers import Sampler, Spans

    untraced = run_for(workload, seconds / 2)
    workload.close()
    spans = Spans().install()
    sampler = Sampler(SRC / "repro")
    try:
        workload.setup()
        sampler.start()
        spanned = run_for(workload, seconds / 2)
    finally:
        sampler.stop()
        spans.uninstall()
    values = spans.metrics(len(spanned))
    for name in ("serve.queue_wait_s", "serve.job_s", "serve.events"):
        values[name] = statistics.fmean(it.layers.get(name, 0.0) for it in spanned)
    for package, cpu_s in sampler.totals.items():
        values[f"{package}.self_s"] = cpu_s / len(spanned)
    values["trace.overhead_frac"] = (
        statistics.median(it.wall_s for it in spanned)
        / statistics.median(it.wall_s for it in untraced) - 1.0)

    not_measured = {}
    if values["ssd.write_amplification"] == report.NOT_MEASURED:
        not_measured["ssd.write_amplification"] = \
            "no SSD took a host write in this process"
    return untraced + spanned, values, not_measured


def measure(args) -> int:
    from e2ebench.digest import load_committed
    from e2ebench.workloads import DEFAULT_SEED, make_workload

    cpu = pin_to_one_cpu()
    setup_samples = [] if args.trace else probe_setup_s(args.workload, args.seed)
    workload = make_workload(args.workload, args.seed)
    not_measured: dict[str, str] = {}
    try:
        workload.setup()
        if args.trace:
            iterations, values, not_measured = traced(workload, args.seconds)
        else:
            iterations = run_for(workload, args.seconds)
    finally:
        workload.close()

    reference = None
    if args.seed == DEFAULT_SEED or not workload.seeded:
        reference = load_committed().get(args.workload, [])
    attempted, failed, failures = report.check_digests(iterations, reference)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)

    if args.trace:
        units = report.PER_LAYER
        summary = {name: {"value": values[name]} for name in units}
    else:
        samples = report.end_to_end_samples(iterations,
                                            [raw * k for raw, k in setup_samples],
                                            peak_rss_mb(), attempted, failed)
        units = report.END_TO_END
        summary = report.summarise(samples)
        values = {name: summary[name]["median"] for name in units}
    for name, unit in units.items():
        fields = " ".join(f"{key}={value:.6g}" for key, value in summary[name].items())
        print(f"{args.workload} {name} [{unit}] {fields}")
    for name, reason in not_measured.items():
        print(f"{args.workload} {name}: not measured: {reason}")

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "iterations": len(iterations),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "transport": workload.transport, "commit": git_commit(), "cpu": cpu,
        "reference_probe_s": calibrate.REFERENCE_PROBE_S,
        "calibration_probe_s": calibrate.REFERENCE_PROBE_S / statistics.median(
            it.wall_s / it.raw_wall_s for it in iterations),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{os.getpid()}.json").write_text(json.dumps({
        "meta": meta, "summary": summary, "not_measured": not_measured,
        "failures": failures,
        "iterations": [{"wall_s": it.wall_s, "raw_wall_s": it.raw_wall_s,
                        "first_result_s": it.first_result_s, "ios": it.ios}
                       for it in iterations],
        "setup": [{"setup_s": raw, "scale": k} for raw, k in setup_samples],
    }, indent=2, sort_keys=True))
    print(report.result_line(attempted, failed, values, units))
    return 0


def setup_probe(args) -> int:
    from e2ebench.workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


def parse_args(argv=None):
    from e2ebench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="Run one end-to-end benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds of whole iterations to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer traced run instead")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with isolate_run():
            return setup_probe(args) if args.setup_probe else measure(args)
    except MissingProgram as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
