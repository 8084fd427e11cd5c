"""End-to-end benchmark: real workloads, host-time metrics, per-layer traces.

Run it with ``python3 e2ebench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``e2ebench/README.md``.
"""
