"""Property-based invariants of the macro (mean-field) device-group model.

The macro aggregate must uphold the same physical invariants as the
discrete simulator for *any* workload shape, not just the calibrated
families the validation harness pins down:

* latencies are nonnegative and quantiles are ordered (p50 <= p95 <= p99),
* fault-free closed-loop runs conserve bytes exactly
  (``ios * io_size == bytes_read + bytes_written``),
* the queueing response is monotone in offered depth,
* results are a pure function of the topology (same seed in, same bytes
  out -- the ``derive_seed`` identity scheme keeps calibration
  layout-independent).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    fleet,
    group,
    run_fleet,
    run_fleet_serial,
    tenant,
)
from repro.cluster.macro import calibrate_workload
from repro.determinism import derive_seed

MINI_CAPACITY = 1 << 24

#: Closed-loop workload shapes the strategies draw from.  LOOP keeps each
#: hypothesis example cheap; the calibration path is device-agnostic.
workloads = st.fixed_dictionaries({
    "pattern": st.sampled_from(["randread", "randwrite", "randrw"]),
    "io_size": st.sampled_from([4096, 16384]),
    "queue_depth": st.integers(min_value=1, max_value=8),
    "io_count": st.integers(min_value=10, max_value=60),
})


def macro_fleet(workload: dict, seed: int, count: int = 5):
    workload = dict(workload)
    if workload["pattern"] == "randrw":
        workload["write_ratio"] = 0.3
    return fleet(
        "macro-prop",
        groups=[group("grp", "LOOP", count, capacity_bytes=MINI_CAPACITY,
                      mode="macro")],
        tenants=[tenant("t", "grp", **workload)],
        epoch_us=500.0,
        seed=seed,
    )


@settings(max_examples=12, deadline=None)
@given(workload=workloads, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_macro_latencies_nonnegative_and_quantiles_ordered(workload, seed):
    payload = run_fleet_serial(macro_fleet(workload, seed))
    metrics = payload["tenants"]["t"]
    assert metrics["ios_completed"] > 0
    for key in ("mean_us", "p50_us", "p95_us", "p99_us", "p999_us", "max_us"):
        assert metrics[key] >= 0.0
    assert metrics["p50_us"] <= metrics["p95_us"] <= metrics["p99_us"]
    assert metrics["p99_us"] <= metrics["max_us"]


@settings(max_examples=12, deadline=None)
@given(workload=workloads, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_macro_conserves_bytes_exactly_without_faults(workload, seed):
    topology = macro_fleet(workload, seed)
    payload = run_fleet_serial(topology)
    metrics = payload["tenants"]["t"]
    expected_ios = workload["io_count"] * topology.groups[0].count
    assert metrics["ios_completed"] == expected_ios
    assert metrics["bytes_read"] + metrics["bytes_written"] \
        == expected_ios * workload["io_size"]


@settings(max_examples=12, deadline=None)
@given(workload=workloads,
       depths=st.lists(st.floats(min_value=0.0, max_value=256.0,
                                 allow_nan=False), min_size=2, max_size=6))
def test_macro_response_is_monotone_in_queue_depth(workload, depths):
    topology = macro_fleet(workload, seed=17)
    tenant_spec = topology.tenants[0]
    calibration = calibrate_workload(
        topology.groups[0], dict(tenant_spec.workload),
        seed=derive_seed(topology.seed, {"tenant": tenant_spec.name,
                                         "group": "grp", "device": 0}))
    responses = [calibration.response_us(depth) for depth in sorted(depths)]
    assert all(value >= 0.0 for value in responses)
    assert responses == sorted(responses), \
        "response_us must be nondecreasing in offered depth"


@settings(max_examples=8, deadline=None)
@given(workload=workloads, seed=st.integers(min_value=0, max_value=2**31 - 1),
       shards=st.integers(min_value=2, max_value=4))
def test_macro_runs_are_deterministic_and_layout_independent(
        workload, seed, shards):
    topology = macro_fleet(workload, seed, count=6)

    def canonical(payload):
        import json
        return json.dumps({k: v for k, v in payload.items()
                           if k != "runtime"}, sort_keys=True)

    serial = canonical(run_fleet_serial(topology))
    assert serial == canonical(run_fleet_serial(topology))
    assert serial == canonical(run_fleet(topology, shards=shards))
