"""Tests for the EBS building blocks: chunk map, QoS, replication, backend, network."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebs.backend import ElasticBackend
from repro.ebs.chunk_map import ChunkMap
from repro.ebs.cluster import StorageCluster
from repro.ebs.config import QosProfile, aws_io2_profile
from repro.ebs.network import DatacenterNetwork, NetworkProfile
from repro.ebs.qos import QosManager
from repro.ebs.replication import ReplicationPolicy
from repro.ebs.storage_node import StorageNode
from repro.ebs.config import NodeProfile
from repro.host.io import IOKind, KiB, MiB
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# ChunkMap
# ---------------------------------------------------------------------------

def make_map(capacity=64 * MiB, chunk=1 * MiB, nodes=8, replicas=3):
    return ChunkMap(capacity, chunk, nodes, replicas, seed=11)


def test_chunk_map_split_aligns_to_chunks():
    chunk_map = make_map()
    subs = chunk_map.split(512 * KiB, 2 * MiB)
    assert sum(sub.size for sub in subs) == 2 * MiB
    assert len(subs) == 3
    assert subs[0].offset_in_chunk == 512 * KiB
    assert subs[1].offset_in_chunk == 0


def test_chunk_map_single_chunk_request():
    chunk_map = make_map()
    subs = chunk_map.split(0, 256 * KiB)
    assert len(subs) == 1
    assert subs[0].chunk_index == 0


def test_chunk_map_placement_is_deterministic_and_distinct():
    chunk_map = make_map()
    for chunk in range(chunk_map.num_chunks):
        group = chunk_map.placement_group(chunk)
        assert group == chunk_map.placement_group(chunk)
        assert len(set(group)) == 3
        assert all(0 <= node < 8 for node in group)


def test_chunk_map_spreads_chunks_across_nodes():
    chunk_map = make_map(capacity=256 * MiB)
    usage = [0] * chunk_map.num_nodes
    for chunk in range(chunk_map.num_chunks):
        for node in chunk_map.placement_group(chunk):
            usage[node] += 1
    assert min(usage) > 0  # every node hosts something


def test_chunk_map_rejects_bad_requests():
    chunk_map = make_map()
    with pytest.raises(ValueError):
        chunk_map.split(0, 0)
    with pytest.raises(ValueError):
        chunk_map.split(63 * MiB, 2 * MiB)
    with pytest.raises(ValueError):
        chunk_map.chunk_of(64 * MiB)
    with pytest.raises(ValueError):
        ChunkMap(64 * MiB, 1 * MiB, num_nodes=2, replication_factor=3)


@settings(max_examples=40, deadline=None)
@given(offset_kib=st.integers(min_value=0, max_value=60 * 1024),
       size_kib=st.integers(min_value=4, max_value=4096))
def test_chunk_map_split_covers_request_exactly(offset_kib, size_kib):
    """Property: split() tiles the byte range exactly, in order, within chunks."""
    chunk_map = make_map()
    offset = offset_kib * KiB
    size = min(size_kib * KiB, chunk_map.capacity_bytes - offset)
    if size <= 0:
        return
    subs = chunk_map.split(offset, size)
    assert sum(sub.size for sub in subs) == size
    position = offset
    for sub in subs:
        assert sub.chunk_index == position // chunk_map.chunk_size
        assert sub.offset_in_chunk == position % chunk_map.chunk_size
        assert sub.offset_in_chunk + sub.size <= chunk_map.chunk_size
        position += sub.size


# ---------------------------------------------------------------------------
# QoS
# ---------------------------------------------------------------------------

def test_qos_iops_accounting_charges_per_256k():
    sim = Simulator()
    qos = QosManager(sim, QosProfile(max_throughput_bytes_per_us=1000,
                                     max_iops=10_000, iops_accounting_bytes=256 * KiB))
    charged = []

    def admit_each():
        for size in (4 * KiB, 256 * KiB, 257 * KiB, 1 * MiB):
            before = qos.stats.iops_tokens_charged
            yield from qos.admit(IOKind.READ, size)
            charged.append(qos.stats.iops_tokens_charged - before)

    sim.process(admit_each())
    sim.run()
    assert charged == [1, 1, 2, 4]
    assert qos.stats.requests_admitted == 4


def test_qos_byte_bucket_limits_throughput():
    sim = Simulator()
    qos = QosManager(sim, QosProfile(max_throughput_bytes_per_us=100.0,
                                     max_iops=1e9, iops_accounting_bytes=1 * KiB,
                                     burst_bytes=1 * KiB))
    finish = []

    def consumer():
        for _ in range(10):
            yield from qos.admit(IOKind.WRITE, 1 * KiB)
        finish.append(sim.now)

    sim.process(consumer())
    sim.run()
    # 10 KiB at 100 B/us needs >= ~92 us beyond the 1 KiB burst.
    assert finish[0] >= (10 * KiB - 1 * KiB) / 100.0 - 1e-6
    assert qos.stats.requests_admitted == 10


def test_qos_flow_limit_throttles_only_writes():
    sim = Simulator()
    qos = QosManager(sim, QosProfile(max_throughput_bytes_per_us=1e6,
                                     max_iops=1e9, burst_bytes=1 * MiB))
    qos.engage_write_limit(10.0)
    assert qos.flow_limited
    times = {}

    def run(kind, label):
        start = sim.now
        yield from qos.admit(kind, 64 * KiB)
        times[label] = sim.now - start

    def driver():
        yield from run(IOKind.READ, "read")
        yield from run(IOKind.WRITE, "write1")
        yield from run(IOKind.WRITE, "write2")

    sim.process(driver())
    sim.run()
    assert times["read"] == pytest.approx(0.0)
    # The second write must wait for the 10 B/us limited bucket to refill.
    assert times["write2"] > 1000.0
    qos.release_write_limit()
    assert not qos.flow_limited


# ---------------------------------------------------------------------------
# Replication / network / node
# ---------------------------------------------------------------------------

def test_replication_policy_validation_and_describe():
    policy = ReplicationPolicy(3, 2)
    assert policy.acknowledgements_needed() == 2
    assert "3-way" in policy.describe()
    with pytest.raises(ValueError):
        ReplicationPolicy(2, 3)
    with pytest.raises(ValueError):
        ReplicationPolicy(0, 0)


def _quorum_write_us(service_us, quorum=2):
    """Simulated time one chunk write takes when its replicas take
    ``service_us`` each (in placement order) and the network takes none."""
    sim = Simulator()
    profile = replace(aws_io2_profile(64 * MiB), write_quorum=quorum)
    cluster = StorageCluster(sim, profile)
    cluster.network.transfer_delay = lambda payload_bytes: 0.0
    sub = cluster.chunk_map.split(0, 4 * KiB)[0]
    group = cluster.chunk_map.placement_group(sub.chunk_index)
    for node_id, service in zip(group, service_us, strict=True):
        def write(num_bytes, service=service):
            yield service
        cluster.nodes[node_id].write = write
    acknowledged = []

    def writer():
        yield from cluster.write_subrequest(sub)
        acknowledged.append(sim.now)

    sim.process(writer())
    sim.run()
    assert sim.now == max(service_us)  # the slow replica still finishes
    return acknowledged[0]


@pytest.mark.parametrize("service_us, expected", [
    ((10.0, 10.0, 50.0), 10.0),   # two replicas tie at the quorum
    ((10.0, 10.0, 10.0), 10.0),   # all three tie
    ((10.0, 20.0, 50.0), 20.0),
    ((50.0, 10.0, 10.0), 10.0),
])
def test_quorum_write_counts_replicas_that_finish_in_the_same_instant(
        service_us, expected):
    """A 3-way write with quorum 2 is acknowledged once the second
    replica finishes, even when it finishes together with the first."""
    assert _quorum_write_us(service_us) == expected


def test_full_quorum_write_waits_for_every_replica():
    assert _quorum_write_us((10.0, 10.0, 50.0), quorum=3) == 50.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), jitter_mean_us=st.floats(1e-3, 1e3))
def test_network_jitter_is_the_expovariate_stream(seed, jitter_mean_us):
    """The inlined exponential draw gives bit for bit the delays that
    ``Random.expovariate`` gave."""
    profile = NetworkProfile(jitter_mean_us=jitter_mean_us)
    network = DatacenterNetwork(profile, seed=seed)
    reference = random.Random(seed)
    rate = 1.0 / jitter_mean_us
    for payload in (256, 4 * KiB, 1 * MiB) * 20:
        expected = profile.one_way_latency_us + payload / profile.flow_bytes_per_us
        expected += reference.expovariate(rate)
        assert network.transfer_delay(payload) == expected


def test_network_latency_scales_with_payload():
    sim = Simulator()
    network = DatacenterNetwork(NetworkProfile(one_way_latency_us=50,
                                               flow_bytes_per_us=100,
                                               jitter_mean_us=0.0))
    small = network.transfer_delay(1 * KiB)
    large = network.transfer_delay(100 * KiB)
    assert large > small
    assert small == pytest.approx(50 + 1024 / 100)
    assert network.stats.messages == 2
    assert network.stats.bytes_carried == 101 * KiB
    assert network.stats.mean_latency_us == pytest.approx((small + large) / 2)

    def request_and_response():
        yield network.transfer_delay(4 * KiB)
        yield network.transfer_delay(256)

    sim.process(request_and_response())
    sim.run()
    assert sim.now == pytest.approx(50 + 4 * KiB / 100 + 50 + 256 / 100)
    assert network.stats.messages == 4
    assert network.stats.bytes_carried == 105 * KiB + 256


def test_storage_node_bandwidth_bucket_limits_sustained_rate():
    sim = Simulator()
    node = StorageNode(sim, 0, NodeProfile(concurrency=4, bandwidth_bytes_per_us=100.0,
                                           write_processing_us=1.0, media_write_us=0.0,
                                           min_charge_bytes=0))
    finish = []

    def writer():
        for _ in range(8):
            yield from node.write(64 * KiB)
        finish.append(sim.now)

    sim.process(writer())
    sim.run()
    total_bytes = 8 * 64 * KiB
    assert finish[0] >= (total_bytes - node._bandwidth.capacity) / 100.0 - 1e-6
    assert node.stats.writes == 8
    assert node.stats.bytes_written == total_bytes


def test_storage_node_sequential_read_path_is_cheaper():
    sim = Simulator()
    profile = NodeProfile(read_processing_us=200, seq_read_processing_us=20,
                          media_read_us=80, media_read_bytes_per_us=1e9)
    node = StorageNode(sim, 0, profile)
    durations = {}

    def reads():
        start = sim.now
        yield from node.read(4 * KiB, sequential=False)
        durations["random"] = sim.now - start
        start = sim.now
        yield from node.read(4 * KiB, sequential=True)
        durations["sequential"] = sim.now - start

    sim.process(reads())
    sim.run()
    assert durations["sequential"] < durations["random"]


# ---------------------------------------------------------------------------
# Backend flow limiting
# ---------------------------------------------------------------------------

def test_backend_engages_flow_limit_at_threshold():
    sim = Simulator()
    profile = aws_io2_profile(64 * MiB)
    qos = QosManager(sim, profile.qos)
    backend = ElasticBackend(sim, profile, qos)
    threshold = backend.flow_limit_threshold_bytes
    assert threshold == int(2.55 * 64 * MiB)
    backend.record_write(threshold - 1)
    assert not qos.flow_limited
    backend.record_write(1)
    assert qos.flow_limited
    assert backend.stats.flow_limit_engaged_at_bytes == threshold
    description = backend.describe()
    assert description["flow_limited"] is True
    assert description["written_capacity_factor"] >= 2.55


def test_backend_without_threshold_never_limits():
    from repro.ebs.config import alibaba_pl3_profile
    sim = Simulator()
    profile = alibaba_pl3_profile(64 * MiB)
    qos = QosManager(sim, profile.qos)
    backend = ElasticBackend(sim, profile, qos)
    backend.record_write(100 * 64 * MiB)
    assert not qos.flow_limited
    backend.record_read(4 * KiB)
    assert backend.stats.bytes_read == 4 * KiB
