"""Deterministic Dijkstra tests, cross-checked against networkx."""

import networkx as nx
import pytest

from repro.errors import NoPathError, RoutingError
from repro.routing import shortest_path, shortest_path_length
from repro.routing.shortest import all_pairs_hop_counts, dijkstra, iter_sp_next_hops
from repro.topology import Topology, mesh_topology


def test_line_path():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3)])
    assert shortest_path(topo, 0, 3) == (0, 1, 2, 3)
    assert shortest_path_length(topo, 0, 3) == 3


def test_trivial_path():
    topo = Topology.from_links([(0, 1)])
    assert shortest_path(topo, 0, 0) == (0,)


def test_no_path_raises():
    topo = Topology.from_links([(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        shortest_path(topo, 0, 3)


def test_unknown_nodes_raise():
    topo = Topology.from_links([(0, 1)])
    with pytest.raises(RoutingError):
        shortest_path(topo, 0, 99)
    with pytest.raises(RoutingError):
        shortest_path(topo, 99, 0)


def test_unknown_destination_length_raises_routing_error():
    topo = Topology.from_links([(0, 1)])
    with pytest.raises(RoutingError, match="unknown node: 99") as raised:
        shortest_path_length(topo, 0, 99)
    assert not isinstance(raised.value, NoPathError)
    with pytest.raises(RoutingError, match="unknown node: 99"):
        shortest_path_length(topo, 99, 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lengths_match_networkx(seed):
    topo = mesh_topology(30, extra_links=25, seed=seed)
    graph = nx.Graph(topo.links())
    expected = dict(nx.all_pairs_shortest_path_length(graph))
    for source, lengths in all_pairs_hop_counts(topo).items():
        assert lengths == expected[source]


def test_deterministic_tie_break():
    # Square: two equal paths 0-1-2 and 0-3-2; repeated calls agree.
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3), (3, 0)])
    first = shortest_path(topo, 0, 2)
    for _ in range(5):
        assert shortest_path(topo, 0, 2) == first


def test_weighted_path_prefers_cheap_links():
    topo = Topology()
    topo.add_link("a", "b", weight=10.0)
    topo.add_link("a", "c", weight=1.0)
    topo.add_link("c", "b", weight=1.0)
    path = shortest_path(topo, "a", "b", weight=topo.weight)
    assert path == ("a", "c", "b")


def test_negative_weight_rejected():
    topo = Topology.from_links([(0, 1)])
    with pytest.raises(RoutingError):
        dijkstra(topo, 0, weight=lambda u, v: -1.0)


def test_iter_sp_next_hops_builds_fib():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3)])
    fib = dict(iter_sp_next_hops(topo, 3))
    assert fib == {0: 1, 1: 2, 2: 3}
