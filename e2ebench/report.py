"""Metric names, units, summaries and the result line.

Kept free of ``repro`` imports so the tests (and the steadiness tool) can
use it without building anything.
"""

from __future__ import annotations

import json
import statistics
from typing import Iterable, Mapping, Sequence

#: End-to-end metrics (untraced run) -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ios_per_s": "1/s",
    "first_result_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Per-layer metrics (traced run) -> unit.
PER_LAYER = {
    "sim.events": "count",
    "sim.run_s": "s",
    "sim.host_ns_per_event": "ns",
    "sim.self_s": "s",
    "ssd.build_s": "s",
    "ssd.preload_s": "s",
    "ssd.preload_calls": "count",
    "ssd.self_s": "s",
    "ssd.write_amplification": "ratio",
    "ssd.gc_slots_written": "count",
    "flash.self_s": "s",
    "host.self_s": "s",
    "metrics.self_s": "s",
    "ebs.build_s": "s",
    "ebs.preload_s": "s",
    "ebs.self_s": "s",
    "workload.ios": "count",
    "workload.run_s": "s",
    "workload.self_s": "s",
    "core.obs1_s": "s",
    "core.obs2_s": "s",
    "core.obs3_s": "s",
    "core.obs4_s": "s",
    "core.self_s": "s",
    "cluster.transport_setup_s": "s",
    "cluster.post_s": "s",
    "cluster.wait_s": "s",
    "cluster.collect_s": "s",
    "cluster.merge_s": "s",
    "cluster.rounds": "count",
    "cluster.tasks": "count",
    "cluster.lockstep_shards": "count",
    "cluster.replica_messages": "count",
    "cluster.macro_calibrate_s": "s",
    "cluster.macro_calibrations": "count",
    "cluster.self_s": "s",
    "experiments.run_cell_s": "s",
    "experiments.cache_load_s": "s",
    "experiments.cache_store_s": "s",
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "experiments.self_s": "s",
    "serve.start_s": "s",
    "serve.queue_wait_s": "s",
    "serve.job_s": "s",
    "serve.events": "count",
    "serve.self_s": "s",
    "devices.self_s": "s",
    "config.self_s": "s",
    "implications.self_s": "s",
    "repro.self_s": "s",
    "external.self_s": "s",
    "trace.overhead_frac": "frac",
}

#: The value a per-layer metric carries when it could not be measured on
#: this workload (the reason is printed and stored beside the result).
NOT_MEASURED = -1.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(samples: Mapping[str, Sequence[float]]) -> dict[str, dict]:
    """Median, quartiles and sample count of every sampled metric."""
    out = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(list(values))
        out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    return out


def end_to_end_samples(iterations: Iterable, setup_samples: Sequence[float],
                       peak_rss_mb: float, attempted: int,
                       failed: int) -> dict[str, list[float]]:
    """Per-sample values of every end-to-end metric; times are
    reference-host seconds, as the iterations and ``setup_samples`` carry
    them."""
    iterations = list(iterations)
    return {
        "wall_s": [it.wall_s for it in iterations],
        "setup_s": list(setup_samples),
        "ios_per_s": [it.ios / it.wall_s for it in iterations],
        "first_result_s": [it.first_result_s for it in iterations],
        "peak_rss_mb": [peak_rss_mb],
        "ok_frac": [1.0 - failed / attempted],
    }


def check_digests(iterations: Iterable, reference: Sequence[str] | None,
                  ) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure labels) over every correctness unit.

    Each iteration's digests must equal ``reference`` unit by unit; with no
    reference (a seed without committed digests) they must equal the first
    iteration's -- repeated runs of deterministic work agree.
    """
    attempted = failed = 0
    failures: list[str] = []
    for index, iteration in enumerate(iterations):
        if reference is None:
            reference = iteration.digests
        units = max(len(reference), len(iteration.digests))
        for unit in range(units):
            attempted += 1
            got = iteration.digests[unit] if unit < len(iteration.digests) else None
            want = reference[unit] if unit < len(reference) else None
            if got is None or got != want:
                failed += 1
                failures.append(f"iteration {index}: digest {unit} "
                                f"{got} != {want}")
        for label, passed in iteration.verdicts:
            attempted += 1
            if not passed:
                failed += 1
                failures.append(f"iteration {index}: {label} failed")
    return attempted, failed, failures


def result_line(attempted: int, failed: int, values: Mapping[str, float],
                units: Mapping[str, str]) -> str:
    """The final stdout line: ``correct``, ``attempted``, ``failed`` and
    ``metrics``, and nothing else."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })
