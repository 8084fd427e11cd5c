#!/usr/bin/env python3
"""Steadiness check: is the benchmark's run-to-run spread within its bounds?

    python3 e2ebench/steady.py --runs 10 [--workloads a,b] [--seconds S]

Runs every workload in two sets of ``--runs`` runs, each run with a
different seed.  For each end-to-end metric it prints each set's median and
spread -- the distance between the first and third quartile of the per-run
values, as a share of their median -- and checks them against the metric's
``bound`` in ``BENCHMARK.json``:

* ``spread``: both sets' spreads are within the bound;
* ``steady``: both sets' spreads are below a third of the bound;
* ``agree``:  the two sets' medians differ by at most the bound, as a share
  of the first set's median, in either direction.

Exits 1 when any run fails or any metric misses ``spread`` or ``agree``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Sets of runs per workload, compared with each other.
SETS = 2
#: Seed of the first run; every later run takes the next one.
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its parsed result line."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def change(first: float, later: float) -> float:
    """``later`` relative to ``first``, as a signed share of ``first``."""
    return (later - first) / abs(first) if first else 0.0


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        entry["name"] for entry in benchmark["workloads"]))
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    ok = True
    seed = FIRST_SEED
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(SETS):
            results = []
            for _ in range(args.runs):
                result = run_once(workload, seed, args.seconds)
                seed += 1
                if not result["correct"]:
                    print(f"{workload} seed {seed - 1}: incorrect result "
                          f"({result['failed']}/{result['attempted']} failed)")
                    ok = False
                results.append(result)
            sets.append(results)
        print(f"\n{workload} ({SETS} x {args.runs} runs, "
              f"{args.seconds:g}s each)")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([run["metrics"][name]["value"] for run in results])
                     for results in sets]
            spreads_ok = all(s <= bound for _, s in stats)
            steady = all(s < bound / 3 for _, s in stats)
            drift = change(stats[0][0], stats[1][0])
            agree = abs(drift) <= bound
            ok = ok and spreads_ok and agree
            cells = "  ".join(f"median={median:.6g} spread={s:.3f}"
                              for median, s in stats)
            print(f"  {name:<16} bound={bound:<5} {cells}  change={drift:+.3f}"
                  f"  spread={'ok' if spreads_ok else 'NO'}"
                  f" steady={'yes' if steady else 'no'}"
                  f" agree={'yes' if agree else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
