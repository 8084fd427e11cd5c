#!/usr/bin/env python3
"""CI benchmark-regression gate: fresh ``BENCH_*.json`` vs committed baselines.

The benchmark suites (``test_bench_fleet.py``, ``test_bench_macro.py``)
write their artifacts to the repository root on every run; the blessed
numbers live under ``benchmarks/baselines/``.  This script compares the
tracked metrics and **fails (exit 1) when any of them regresses more than
the tolerance** (default 10%), printing a delta table and appending a
markdown copy to ``--summary`` (pass ``$GITHUB_STEP_SUMMARY`` in CI).

Tracked metrics are deliberately host-independent:

* fleet *coordination counts* (tasks per simulated second, batching task
  cut) -- fully deterministic;
* the macro-vs-discrete *error envelope* and the saturated macro speedup.

Raw wall-clock numbers (fleet ``speedup_vs_serial``) are recorded in the
artifacts for the trajectory but only gated as absolute floors on hosts
with enough cores.  Kernel speed is guarded end to end by the e2ebench
``contract`` workload (``python3 e2ebench/run.py --workload contract``).

Every tracked metric is identical across CPython versions, so one baseline
set serves every interpreter.  Updating a baseline is an explicit act:
re-run the benchmark suite on a quiet machine and copy the artifact into
``benchmarks/baselines/`` in the same PR that justifies the change.

Usage::

    python benchmarks/compare_bench.py [--tolerance 0.10]
        [--baseline-dir benchmarks/baselines] [--current-dir .]
        [--summary "$GITHUB_STEP_SUMMARY"]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default location of the blessed artifacts.
BASELINE_DIR = _REPO_ROOT / "benchmarks" / "baselines"

#: (artifact file, dotted metric path, direction).  ``higher`` metrics
#: regress by falling below baseline * (1 - tolerance), ``lower`` metrics
#: by rising above baseline * (1 + tolerance).
TRACKED: tuple[tuple[str, str, str], ...] = (
    ("BENCH_fleet.json", "coordination.task_cut", "higher"),
    ("BENCH_fleet.json",
     "coordination.variants.batched.tasks_per_sim_second", "lower"),
    # Macro-vs-discrete validation harness: the approximation's error
    # envelope must not widen, and the (saturated) speedup must not
    # collapse back toward per-device cost.
    ("BENCH_macro.json", "validation.max_p50_err", "lower"),
    ("BENCH_macro.json", "validation.max_p95_err", "lower"),
    ("BENCH_macro.json", "validation.max_throughput_err", "lower"),
    ("BENCH_macro.json", "speedup.macro_vs_discrete", "higher"),
)

#: Absolute wall-clock floors: ``(artifact, metric, floor, skip flag)``.
#: Unlike the relative TRACKED gates these compare against a fixed target
#: rather than a committed baseline -- but wall-clock scaling only means
#: anything when the host has the cores, so a truthy value at the *skip
#: flag* path in the current artifact downgrades the row to informational
#: (the 1-2 core tier-1 runners) instead of failing it.  On a >= 4-core
#: runner the flag is false and the floor is a real gate.
FLOORS: tuple[tuple[str, str, float, str], ...] = (
    ("BENCH_fleet.json", "shards.4.scaling_efficiency",
     0.7, "shards.4.scaling_informational"),
    ("BENCH_fleet.json", "shards.2.speedup_vs_serial",
     1.0, "shards.2.scaling_informational"),
)


def lookup(payload: Any, dotted: str) -> Optional[float]:
    """Resolve ``a.b.c`` through nested dicts; None when any hop is missing."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def load_artifact(directory: Path, name: str) -> Optional[dict]:
    path = directory / name
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def compare(baseline_dir: Path, current_dir: Path,
            tolerance: float) -> tuple[list[dict[str, Any]], int]:
    """Build one row per tracked metric; return (rows, regression count).

    A missing or unreadable *current* artifact/metric counts as a
    regression (the gate must not pass vacuously); a missing *baseline*
    metric is reported as new and passes (commit the fresh artifact as its
    baseline in the same PR).
    """
    rows: list[dict[str, Any]] = []
    regressions = 0
    for artifact, metric, direction in TRACKED:
        base = lookup(load_artifact(baseline_dir, artifact) or {}, metric)
        current = lookup(load_artifact(current_dir, artifact) or {}, metric)
        if current is None:
            status = "MISSING"
            regressions += 1
            delta = None
        elif base is None:
            status = "new"
            delta = None
        elif base == 0:
            # A zero baseline can never gate anything (every relative
            # delta would be undefined); refuse it rather than pass
            # vacuously -- recommit a real baseline.
            status = "BAD-BASELINE"
            regressions += 1
            delta = None
        else:
            delta = (current - base) / base
            regressed = delta < -tolerance if direction == "higher" \
                else delta > tolerance
            if regressed:
                status = "REGRESSED"
                regressions += 1
            else:
                status = "ok"
        rows.append({
            "artifact": artifact,
            "metric": metric,
            "direction": direction,
            "baseline": base,
            "current": current,
            "delta": delta,
            "status": status,
        })
    for artifact, metric, floor, skip_flag in FLOORS:
        current_payload = load_artifact(current_dir, artifact) or {}
        current = lookup(current_payload, metric)
        informational = bool(lookup(current_payload, skip_flag))
        delta = None
        if current is None:
            status = "MISSING"
            regressions += 1
        elif informational:
            # The artifact itself says this host cannot measure scaling
            # (cpu_count < shards) -- record the number, gate nothing.
            status = "info-only"
        else:
            delta = (current - floor) / floor
            if current < floor:
                status = "BELOW-FLOOR"
                regressions += 1
            else:
                status = "ok"
        rows.append({
            "artifact": artifact,
            "metric": metric,
            "direction": "higher",
            "baseline": floor,
            "current": current,
            "delta": delta,
            "status": status,
        })
    return rows, regressions


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def _fmt_delta(row: dict[str, Any]) -> str:
    if row["delta"] is None:
        return "-"
    arrow = "" if row["direction"] == "higher" else " (lower is better)"
    return f"{row['delta']:+.1%}{arrow}"


def render_table(rows: list[dict[str, Any]], markdown: bool = False) -> str:
    headers = ["metric", "baseline", "current", "delta", "status"]
    body = [[f"{row['artifact']}:{row['metric']}", _fmt(row["baseline"]),
             _fmt(row["current"]), _fmt_delta(row), row["status"]]
            for row in rows]
    if markdown:
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join("---" for _ in headers) + "|"]
        lines += ["| " + " | ".join(line) + " |" for line in body]
        return "\n".join(lines)
    widths = [max(len(str(line[col])) for line in [headers] + body)
              for col in range(len(headers))]
    lines = ["  ".join(str(cell).ljust(width)
                       for cell, width in zip(line, widths)).rstrip()
             for line in [headers] + body]
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a tracked BENCH_* metric regresses vs the "
                    "committed baselines.")
    parser.add_argument("--baseline-dir", type=Path, default=BASELINE_DIR)
    parser.add_argument("--current-dir", type=Path, default=_REPO_ROOT)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative regression (default 0.10)")
    parser.add_argument("--summary", default=None,
                        help="append a markdown delta table to this file "
                             "(use $GITHUB_STEP_SUMMARY in CI)")
    args = parser.parse_args(argv)

    rows, regressions = compare(args.baseline_dir, args.current_dir,
                                args.tolerance)
    print(f"benchmark regression gate: tolerance {args.tolerance:.0%}, "
          f"baselines from {args.baseline_dir}")
    print(render_table(rows))
    verdict = "PASS" if regressions == 0 else \
        f"FAIL ({regressions} tracked metric(s) regressed or missing)"
    print(verdict)

    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write("## Benchmark regression gate\n\n")
            handle.write(render_table(rows, markdown=True))
            handle.write(f"\n\n**{verdict}** (tolerance "
                         f"{args.tolerance:.0%})\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
