"""Tests for the device protocol, the factory registry, and the loopback."""

import pytest

from repro.devices import (
    Device,
    LoopbackDevice,
    create_device,
    device_names,
    register_device,
)
from repro.devices.registry import UnknownDeviceError
from repro.ebs import EssdDevice
from repro.host.io import MiB
from repro.sim import Simulator
from repro.ssd import SsdDevice
from repro.workload.fio import FioJob, run_job


def test_builtin_catalog_registers_paper_devices_and_loopback():
    assert {"SSD", "ESSD-1", "ESSD-2", "LOOP"} <= set(device_names())


def test_every_builtin_device_satisfies_the_protocol():
    sim = Simulator()
    for device_name in ("SSD", "ESSD-1", "ESSD-2", "LOOP"):
        device = create_device(sim, device_name, capacity_bytes=64 * MiB)
        assert isinstance(device, Device), device_name
        summary = device.describe()
        assert summary["name"] == device.name
        assert device.capacity_bytes == 64 * MiB
        device.preload()  # must never raise, even where it is a no-op


def test_create_device_builds_the_right_models():
    sim = Simulator()
    assert isinstance(create_device(sim, "SSD", capacity_bytes=64 * MiB), SsdDevice)
    assert isinstance(create_device(sim, "ESSD-1", capacity_bytes=64 * MiB), EssdDevice)
    assert isinstance(create_device(sim, "LOOP"), LoopbackDevice)


def test_create_device_name_override_allows_same_family_twice():
    sim = Simulator()
    a = create_device(sim, "SSD", capacity_bytes=64 * MiB, name="ssd-a")
    b = create_device(sim, "SSD", capacity_bytes=64 * MiB, name="ssd-b")
    assert (a.name, b.name) == ("ssd-a", "ssd-b")


def test_unknown_device_error_is_both_value_and_key_error():
    sim = Simulator()
    with pytest.raises(ValueError):
        create_device(sim, "nope")
    with pytest.raises(KeyError):
        create_device(sim, "nope")
    with pytest.raises(UnknownDeviceError, match="known:"):
        create_device(sim, "nope")


def test_register_device_rejects_duplicates_unless_replace():
    with pytest.raises(ValueError):
        @register_device("SSD")
        def _dup(sim, capacity_bytes=None, name=None):  # pragma: no cover
            raise AssertionError

    @register_device("TEST-DEV", replace=True)
    def _build(sim, capacity_bytes=None, name=None):
        return LoopbackDevice(sim, capacity_bytes or MiB, name=name or "test-dev")

    try:
        device = create_device(Simulator(), "TEST-DEV")
        assert device.name == "test-dev"
    finally:
        from repro.devices.registry import _FACTORIES
        _FACTORIES.pop("TEST-DEV", None)


def test_loopback_constant_latency_and_stats():
    sim = Simulator()
    device = LoopbackDevice(sim, capacity_bytes=4 * MiB, service_time_us=25.0)
    completed = []

    def proc():
        request = yield device.read(0, 4096)
        completed.append(request.latency)
        request = yield device.write(8192, 8192)
        completed.append(request.latency)

    sim.process(proc())
    sim.run()
    assert completed == [25.0, 25.0]
    assert device.stats.reads_completed == 1
    assert device.stats.writes_completed == 1
    assert device.stats.bytes_written == 8192


def test_loopback_service_slots_serialize_requests():
    sim = Simulator()
    device = LoopbackDevice(sim, capacity_bytes=4 * MiB, service_time_us=10.0,
                            service_slots=1)
    result = run_job(sim, device, FioJob(pattern="randread", io_count=4,
                                         queue_depth=4, region_bytes=MiB))
    # One slot: the four requests serialize, 10us each.
    assert result.finished_us == pytest.approx(40.0)


@pytest.mark.parametrize("slots", [0, 2.5])
def test_loopback_rejects_slot_counts_that_are_not_positive_integers(slots):
    """``service_slots=0`` used to mean unlimited slots and ``2.5`` three;
    ``None`` is the only spelling of unlimited."""
    with pytest.raises(ValueError):
        LoopbackDevice(Simulator(), capacity_bytes=4 * MiB, service_slots=slots)


def test_ssd_rejects_fractional_controller_contexts():
    with pytest.raises(ValueError, match="integer"):
        create_device(Simulator(), "SSD", capacity_bytes=64 * MiB,
                      controller_contexts=2.5)


def test_fio_runs_against_any_protocol_device():
    """run_job is typed against the protocol: a loopback behaves like any
    other device through the whole workload layer."""
    sim = Simulator()
    device = create_device(sim, "LOOP", capacity_bytes=8 * MiB)
    result = run_job(sim, device, FioJob(pattern="write", io_size=4096,
                                         io_count=16, queue_depth=2))
    assert result.ios_completed == 16
    assert result.latency.summary().mean_us == pytest.approx(10.0)
