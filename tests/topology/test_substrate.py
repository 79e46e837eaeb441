"""The integer routing substrate: staleness and iteration orders.

``Topology`` keeps a lazily built integer view for routing.  Routes and
neighbour lists must follow the current graph after every mutation,
and the iteration orders samplers and allocators inherit must be the
ones ``networkx.Graph`` gives the same construction sequence (the
model used to wrap it), which networkx checks here as a test oracle.
"""

import networkx as nx
import pytest

from repro.routing import shortest_path
from repro.topology import ISP_NAMES, Link, Topology, build_isp_topology
from repro.topology.graph import node_rank
from repro.workloads import local_pairs


def _ring(n=6):
    return Topology.from_links([(i, (i + 1) % n) for i in range(n)])


def _assert_substrate_current(topo):
    nodes, index, adjacency = topo.substrate()
    assert nodes == sorted(topo.nodes(), key=node_rank)
    assert index == {node: i for i, node in enumerate(nodes)}
    for node in topo.nodes():
        assert [nodes[i] for i in adjacency[index[node]]] == topo.neighbors(node)


def test_routes_follow_add_and_remove_link():
    topo = _ring()
    assert shortest_path(topo, 0, 3) == (0, 1, 2, 3)
    topo.add_link(0, 3)
    assert shortest_path(topo, 0, 3) == (0, 3)
    assert topo.neighbors(0) == [1, 5, 3]
    _assert_substrate_current(topo)
    topo.remove_link(0, 3)
    topo.remove_link(1, 2)
    assert shortest_path(topo, 0, 3) == (0, 5, 4, 3)
    assert topo.neighbors(1) == [0]
    _assert_substrate_current(topo)


def test_routes_follow_new_nodes():
    topo = _ring()
    shortest_path(topo, 0, 3)
    topo.add_node("x")
    topo.add_link("x", 3)
    topo.add_link("x", 0)
    assert shortest_path(topo, 0, 3) == (0, "x", 3)
    _assert_substrate_current(topo)


def test_copy_never_shares_the_substrate():
    # The k-shortest-paths scratch pattern: copy, then cut links.
    topo = _ring()
    assert shortest_path(topo, 0, 2) == (0, 1, 2)
    scratch = topo.copy("scratch")
    scratch.remove_link(0, 1)
    assert shortest_path(scratch, 0, 2) == (0, 5, 4, 3, 2)
    assert shortest_path(topo, 0, 2) == (0, 1, 2)
    scratch.add_link(0, 2)
    assert shortest_path(scratch, 0, 2) == (0, 2)
    assert not topo.has_link(0, 2)
    _assert_substrate_current(topo)
    _assert_substrate_current(scratch)


def test_copy_does_not_share_link_data():
    topo = _ring()
    scratch = topo.copy()
    scratch.set_capacity(0, 1, 5.0)
    scratch.set_delay(0, 1, 0.5)
    assert topo.capacity(0, 1) != 5.0
    assert topo.delay(0, 1) != 0.5


def test_is_bridge_moves_link_last_and_keeps_routes():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 0), (2, 3)])
    assert shortest_path(topo, 1, 3) == (1, 2, 3)
    assert not topo.is_bridge(0, 1)
    assert topo.neighbors(0) == [2, 1]
    assert topo.neighbors(1) == [2, 0]
    assert topo.is_bridge(3, 2)
    assert topo.neighbors(2) == [1, 0, 3]
    assert topo.num_links == 4
    assert shortest_path(topo, 1, 3) == (1, 2, 3)
    _assert_substrate_current(topo)


def test_local_pairs_follow_mutations():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
    sample = local_pairs(topo, seed=1, max_hops=2)
    sample()
    topo.add_link(5, 2)
    topo.add_link(5, 6)
    topo.add_link(6, 1)
    seen = {sample() for _ in range(200)}
    assert (6, 0) in seen or (0, 6) in seen


@pytest.fixture
def mirrored(monkeypatch):
    """Replay every ``add_node``/``add_link`` onto a networkx graph."""
    graphs = {}
    add_node, add_link = Topology.add_node, Topology.add_link

    def graph_of(topo):
        return graphs.setdefault(id(topo), (topo, nx.Graph()))[1]

    def mirrored_add_node(self, node):
        graph_of(self).add_node(node)
        return add_node(self, node)

    def mirrored_add_link(self, u, v, *args, **kwargs):
        key = add_link(self, u, v, *args, **kwargs)
        graph_of(self).add_edge(u, v)
        return key

    monkeypatch.setattr(Topology, "add_node", mirrored_add_node)
    monkeypatch.setattr(Topology, "add_link", mirrored_add_link)
    return graph_of


def _assert_orders_match(topo, graph):
    assert topo.nodes() == list(graph.nodes())
    for node in topo.nodes():
        assert topo.neighbors(node) == list(graph.neighbors(node))
    assert topo.links() == [Link.key(u, v) for u, v in graph.edges()]
    expected = []
    for u, v in graph.edges():
        expected += [(u, v), (v, u)] if (u, v) == Link.key(u, v) else [(v, u), (u, v)]
    assert list(topo.directed_capacities()) == [tuple(k) for k in expected]
    assert list(topo.directed_links()) == [
        pair for u, v in graph.edges() for pair in ((u, v), (v, u))
    ]


@pytest.mark.parametrize("isp", ISP_NAMES)
def test_iteration_orders_match_networkx(isp, mirrored):
    topo = build_isp_topology(isp, seed=0)
    graph = mirrored(topo)
    _assert_orders_match(topo, graph)
    # copy() re-adds links the way networkx's Graph.copy does.
    _assert_orders_match(topo.copy(), graph.copy())
    # is_bridge stands for remove-and-re-add, reordering as networkx does.
    for u, v in topo.links()[::7]:
        graph.remove_edge(u, v)
        expected = not nx.has_path(graph, u, v)
        graph.add_edge(u, v)
        assert topo.is_bridge(u, v) == expected
    _assert_orders_match(topo, graph)
    assert topo.is_connected() == nx.is_connected(graph)
