"""Per-I/O work leaves no garbage, and the checker frees each simulation.

A process the kernel does not pool is freed by reference counting once it
has finished: it parks in the waiter slot of the event it yields, so it
holds no reference to itself.  Before that, a process held its own bound
``_resume``, and every process the pools did not take -- fan-out children
before they came from the pool behind ``sim.join`` (12-33 objects per
ESSD write or SSD read), one process per delivered replica message --
waited for the cyclic collector.  These tests pin that the per-I/O
request paths and fleet replica delivery leave a count of unreachable
objects that does not grow with the I/O count, and that the contract
checker holds one device at a time.
"""

import gc
import weakref

import pytest

from repro.cluster import ShardWorker, edge, fleet, group, partition_topology, tenant
from repro.ebs import EssdDevice, aws_io2_profile
from repro.host.io import KiB, MiB
from repro.sim import Simulator
from repro.ssd import SsdDevice, samsung_970pro_profile
from repro.workload.fio import FioJob, run_job

from test_golden_digests import quick_checker_config


def _essd(sim):
    return EssdDevice(sim, aws_io2_profile().with_capacity(256 * MiB))


def _ssd(sim):
    return SsdDevice(sim, samsung_970pro_profile(64 * MiB))


def _garbage_after_job(factory, ios, preload, **job):
    """Unreachable objects a finished job leaves, found while its simulation
    is still alive (so the simulation's own cycles do not count)."""
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        device = factory(sim)
        if preload:
            device.preload()
        run_job(sim, device, FioJob(name="garbage", io_count=ios, **job))
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("factory, preload, job", [
    (_essd, False, dict(pattern="randwrite", io_size=16 * KiB, queue_depth=32)),
    (_ssd, True, dict(pattern="randread", io_size=128 * KiB, queue_depth=32)),
    (_essd, False, dict(pattern="randwrite", io_size=1 * MiB, queue_depth=8)),
], ids=["essd-16k-writes", "ssd-128k-reads", "essd-multi-chunk-writes"])
def test_request_path_garbage_does_not_grow_with_io_count(factory, preload, job):
    few = _garbage_after_job(factory, 1_000, preload, **job)
    many = _garbage_after_job(factory, 4_000, preload, **job)
    # What remains is per job (the FIO workers) and the SSD's occasional
    # fire-and-forget prefetch process: well under one object per 10 I/Os.
    assert many - few < 300, (few, many)


def _garbage_after_fleet(ios):
    """Unreachable objects a LOOP fleet with one replication edge leaves
    after running to completion on one shard, found while the shard is
    still alive; also returns the replica messages it delivered."""
    topology = fleet(
        "garbage",
        groups=[group("db", "LOOP", 2, capacity_bytes=16 * MiB),
                group("mirror", "LOOP", 2, capacity_bytes=16 * MiB)],
        tenants=[tenant("oltp", "db", pattern="randwrite", io_size=4096,
                        queue_depth=2, io_count=ios)],
        edges=[edge("db", "mirror")],
        epoch_us=50.0,
        seed=3,
    )
    (plan,) = partition_topology(topology, 1)
    gc.collect()
    gc.disable()
    try:
        worker = ShardWorker(topology, plan)
        _outbound, earliest, _epochs = worker.advance(10**9)
        assert earliest is None  # ran to completion
        delivered = sum(stats["count"]
                        for stats in worker.collect()["replicas"].values())
        return gc.collect(), delivered
    finally:
        gc.enable()


def test_replica_delivery_garbage_does_not_grow_with_message_count():
    """A delivered replica message is a device submission whose completion
    fills the inflow ledger: no process, generator or bound method per
    message is left for the collector."""
    few, few_messages = _garbage_after_fleet(500)
    many, many_messages = _garbage_after_fleet(2_000)
    assert (few_messages, many_messages) == (2 * 500, 2 * 2_000)
    assert many - few < 300, (few, many)


def test_contract_checker_keeps_one_device_alive(monkeypatch):
    """Every device the checker built earlier is freed before it runs the
    next job (it would otherwise wait for the cyclic collector)."""
    import repro.core.checker as checker

    devices = weakref.WeakSet()
    alive_at_run = []
    real_run_job = checker.run_job

    def counting_run_job(sim, device, job, *args, **kwargs):
        devices.add(device)
        alive_at_run.append(len(devices))
        return real_run_job(sim, device, job, *args, **kwargs)

    monkeypatch.setattr(checker, "run_job", counting_run_job)
    checker.ContractChecker(config=quick_checker_config()).run()
    assert len(alive_at_run) == 20
    assert max(alive_at_run) == 1, alive_at_run
