"""The span partition against the per-index partition it replaced.

``partition_topology`` works on ``(start, stop)`` spans, one per group, so
a macro group of any size costs O(1) to place and split.  The functions
below keep the earlier per-index implementations as the reference: the
partitioner verbatim except that it returns each shard's sorted index list
(``ShardPlan`` now holds spans), and the coupling-component union-find over
a ``{index: shard id}`` dict.  Random topologies must give every shard the
same indices, in the same shard order, and the same coupling components.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FleetTopology, edge, fault, fleet, group
from repro.cluster.coordinator import partition_topology, span_owner
from repro.cluster.transport import coupling_components


def reference_partition_topology(topology: FleetTopology,
                                 shards: int) -> list[list[int]]:
    """Split the fleet's devices into ``shards`` device-affinity slices."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, topology.total_devices)
    group_names = [group.name for group in topology.groups]
    position = {name: index for index, name in enumerate(group_names)}

    # Union-find over groups: replication edges glue groups into clusters.
    parent = {name: name for name in group_names}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    couplings = [(edge.source, edge.target) for edge in topology.edges]
    # A hot-spare promotion couples the failed group to its spare group the
    # same way a replication edge couples source to target: rebuild traffic
    # flows between them, so affinity placement keeps them on one shard.
    couplings.extend((fault.group, fault.spare) for fault in topology.faults
                     if fault.spare is not None)
    for source, target in couplings:
        root_a, root_b = find(source), find(target)
        if root_a != root_b:
            # Deterministic union: the earlier-declared group wins.
            if position[root_a] > position[root_b]:
                root_a, root_b = root_b, root_a
            parent[root_b] = root_a

    clusters: dict[str, list[str]] = {}
    for name in group_names:
        clusters.setdefault(find(name), []).append(name)

    sizes = {root: sum(topology.group(name).count for name in members)
             for root, members in clusters.items()}
    # Largest clusters first; ties resolved by declaration order.
    order = sorted(clusters, key=lambda root: (-sizes[root], position[root]))

    assignments: list[list[int]] = [[] for _ in range(shards)]
    for root in order:
        target = min(range(shards), key=lambda sid: (len(assignments[sid]), sid))
        for name in clusters[root]:
            assignments[target].extend(topology.group_indices(name))

    # Fill empty shards (more shards than clusters) by halving the heaviest
    # slice at device granularity -- this may break an edge across shards,
    # which the message-passing loop handles.  A macro group, however, is
    # one indivisible aggregate: splits shift to the nearest atom boundary,
    # and a slice that is one single macro atom simply cannot donate.
    macro_atom: dict[int, int] = {}
    for macro_group in topology.groups:
        if macro_group.mode != "macro":
            continue
        indices = topology.group_indices(macro_group.name)
        for index in indices:
            macro_atom[index] = indices[0]

    def _valid_split(devices: list[int], keep: int) -> bool:
        if keep < 1 or keep >= len(devices):
            return False
        left, right = devices[keep - 1], devices[keep]
        return macro_atom.get(left, -1) != macro_atom.get(right, -2)

    while any(not plan for plan in assignments):
        empty = next(sid for sid in range(shards) if not assignments[sid])
        split = None
        for donor in sorted(range(shards),
                            key=lambda sid: (-len(assignments[sid]), sid)):
            devices = assignments[donor]
            if len(devices) < 2:
                break  # heaviest slice already minimal: nothing can donate
            half = len(devices) // 2
            for offset in range(half + 1):
                for keep in (half - offset, half + offset):
                    if _valid_split(devices, keep):
                        split = (donor, keep)
                        break
                if split:
                    break
            if split:
                break
        if split is None:
            break
        donor, keep = split
        assignments[empty] = assignments[donor][keep:]
        assignments[donor] = assignments[donor][:keep]

    return [sorted(indices) for indices in assignments]


def reference_coupling_components(topology: FleetTopology,
                                  owner: dict[int, int],
                                  shards: int) -> list[list[int]]:
    """Union-find over shard ids, touched shards found index by index."""
    parent = list(range(shards))

    def find(sid: int) -> int:
        while parent[sid] != sid:
            parent[sid] = parent[parent[sid]]
            sid = parent[sid]
        return sid

    def union(members: set[int]) -> None:
        roots = sorted(find(sid) for sid in members)
        for root in roots[1:]:
            parent[root] = roots[0]

    for edge_ in topology.edges:
        touched = {owner[index]
                   for index in topology.group_indices(edge_.source)}
        touched.update(owner[index]
                       for index in topology.group_indices(edge_.target))
        union(touched)
    for fault_ in topology.faults:
        touched = {owner[index]
                   for index in topology.group_indices(fault_.group)}
        if fault_.spare is not None:
            touched.update(owner[index]
                           for index in topology.group_indices(fault_.spare))
        union(touched)

    components: dict[int, list[int]] = {}
    for sid in range(shards):
        components.setdefault(find(sid), []).append(sid)
    return [components[root] for root in sorted(components)]


@st.composite
def topologies(draw) -> FleetTopology:
    """1-6 LOOP groups of 1-40 devices, each discrete or macro, joined by
    random replication edges and failures, some promoting a spare."""
    count = draw(st.integers(1, 6))
    groups = [group(f"g{i}", "LOOP", draw(st.integers(1, 40)),
                    mode=draw(st.sampled_from(("discrete", "macro"))))
              for i in range(count)]
    names = [g.name for g in groups]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)) \
        .filter(lambda pair: pair[0] != pair[1])
    edges = [edge(source, target) for source, target in
             draw(st.lists(pairs, max_size=4))] if count > 1 else []
    failures = st.tuples(pairs, st.booleans())
    faults = [fault("fail", failed, 100.0 * (i + 1),
                    spare=spare if promote else None)
              for i, ((failed, spare), promote) in
              enumerate(draw(st.lists(failures, max_size=3)))] \
        if count > 1 else []
    return fleet("partition-under-test", groups=groups, edges=edges,
                 faults=faults)


@settings(max_examples=300, deadline=None)
@given(topology=topologies(), shards=st.integers(1, 8))
def test_span_partition_matches_the_per_index_reference(topology, shards):
    reference = reference_partition_topology(topology, shards)
    plans = partition_topology(topology, shards)

    assert [plan.shard_id for plan in plans] == list(range(len(reference)))
    assert [[index for start, stop in plan.spans
             for index in range(start, stop)] for plan in plans] == reference

    reference_owner = {index: sid for sid, indices in enumerate(reference)
                       for index in indices}
    owner = span_owner(plans)
    assert {index: owner(index) for index in range(topology.total_devices)} \
        == reference_owner

    assert coupling_components(topology, plans) == \
        reference_coupling_components(topology, reference_owner, len(plans))


def test_span_partition_of_a_large_macro_atom_stays_small():
    """A slice that is one 40,000-device macro atom is skipped as a donor
    in O(1): the plan holds one span per group, never per device."""
    topology = fleet("atoms", groups=[
        group("big", "LOOP", 40_000, mode="macro"),
        group("small", "LOOP", 3),
    ])
    plans = partition_topology(topology, 4)
    assert [plan.spans for plan in plans] == [
        ((0, 40_000),), ((40_000, 40_001),), ((40_001, 40_002),),
        ((40_002, 40_003),)]
    assert reference_partition_topology(topology, 4) == [
        list(range(start, stop)) for plan in plans
        for start, stop in plan.spans]
