"""ECMP enumeration and hashing tests."""

import networkx as nx
import pytest

from repro.errors import NoPathError, RoutingError
from repro.rng import make_rng
from repro.routing import all_shortest_paths, ecmp_hash, ecmp_path_for_flow
from repro.routing.ecmp import ecmp_path_table
from repro.topology import Topology, build_isp_topology


@pytest.fixture
def square():
    return Topology.from_links([(0, 1), (1, 2), (2, 3), (3, 0)])


def test_square_has_two_equal_cost_paths(square):
    paths = all_shortest_paths(square, 0, 2)
    assert sorted(paths) == [(0, 1, 2), (0, 3, 2)]


def test_single_path_graph():
    topo = Topology.from_links([(0, 1), (1, 2)])
    assert all_shortest_paths(topo, 0, 2) == [(0, 1, 2)]


def test_disconnected_raises():
    topo = Topology.from_links([(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        all_shortest_paths(topo, 0, 2)


def test_unknown_destination_raises_routing_error():
    topo = Topology.from_links([(0, 1), (1, 2)])
    with pytest.raises(RoutingError, match="unknown node: 99") as raised:
        all_shortest_paths(topo, 0, 99)
    assert not isinstance(raised.value, NoPathError)
    with pytest.raises(RoutingError, match="unknown node: 99"):
        all_shortest_paths(topo, 99, 0)


def test_equal_cost_sets_match_networkx():
    # The search stops at the destination; the set must still be complete.
    topo = build_isp_topology("exodus", seed=0)
    graph = nx.Graph(topo.links())
    nodes = topo.nodes()
    rng = make_rng(5, "ecmp-pairs")
    for _ in range(200):
        source = nodes[int(rng.integers(0, len(nodes)))]
        destination = nodes[int(rng.integers(0, len(nodes)))]
        expected = sorted(
            (tuple(p) for p in nx.all_shortest_paths(graph, source, destination)),
            key=lambda p: tuple(repr(n) for n in p),
        )
        assert all_shortest_paths(topo, source, destination) == expected


def test_hash_stable_and_in_range():
    assert ecmp_hash(12345, 4) == ecmp_hash(12345, 4)
    for flow_id in range(200):
        assert 0 <= ecmp_hash(flow_id, 3) < 3


def test_hash_uses_all_buckets(square):
    chosen = {ecmp_path_for_flow(square, 0, 2, fid) for fid in range(50)}
    assert len(chosen) == 2  # both equal-cost paths get traffic


def test_path_table(square):
    table = ecmp_path_table(square, 0, 2)
    assert set(table.keys()) == {0, 1}
    assert all(path[0] == 0 and path[-1] == 2 for path in table.values())


def test_zero_paths_rejected():
    with pytest.raises(NoPathError):
        ecmp_hash(1, 0)
