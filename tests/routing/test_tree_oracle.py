"""The rank-ordered BFS/Dijkstra trees against a heap-Dijkstra oracle.

``_oracle_dijkstra`` is the routing code the integer substrate
replaced: a heap Dijkstra over node objects that ranks nodes by
``(type name, repr)`` on every push and tie-break.  Every tree the
library builds must equal the oracle's, predecessor for predecessor
and in the same discovery order, because flow records, FIBs and the
benchmark fingerprints are derived from them.
"""

import heapq

import pytest

from repro.rng import make_rng
from repro.routing import shortest_path, shortest_path_length
from repro.routing.shortest import dijkstra, iter_sp_next_hops
from repro.topology import Topology, build_isp_topology, mesh_topology


def _oracle_rank(node):
    return (str(type(node).__name__), repr(node))


def _oracle_dijkstra(topo, source, weight=None, target=None):
    weight = weight or (lambda _u, _v: 1.0)
    distances = {source: 0.0}
    predecessors = {}
    visited = set()
    frontier = [(0.0, _oracle_rank(source), source)]
    while frontier:
        dist, _, node = heapq.heappop(frontier)
        if node in visited:
            continue
        visited.add(node)
        if target is not None and node == target:
            break
        for neighbour in topo.neighbors(node):
            if neighbour in visited:
                continue
            candidate = dist + weight(node, neighbour)
            best = distances.get(neighbour)
            if (
                best is None
                or candidate < best - 1e-12
                or (
                    abs(candidate - best) <= 1e-12
                    and _oracle_rank(node) < _oracle_rank(predecessors[neighbour])
                )
            ):
                distances[neighbour] = candidate
                predecessors[neighbour] = node
                heapq.heappush(frontier, (candidate, _oracle_rank(neighbour), neighbour))
    return distances, predecessors


def _oracle_path(topo, source, destination, weight=None):
    _, predecessors = _oracle_dijkstra(topo, source, weight, target=destination)
    path = [destination]
    while path[-1] != source:
        path.append(predecessors[path[-1]])
    return tuple(reversed(path))


def _assert_same_tree(got, expected):
    # Equal items in equal order: discovery order is part of the contract.
    assert list(got[0].items()) == list(expected[0].items())
    assert list(got[1].items()) == list(expected[1].items())


def _mixed_topology():
    """A map where (type name, repr) order differs from plain repr order.

    ``repr("1") == "'1'"`` sorts before ``repr(10) == "10"``, but every
    ``int`` ranks before every ``str``; both middle nodes tie at one
    hop from "s" and "t".
    """
    topo = Topology("mixed")
    for u, v in [
        ("s", "1"),
        ("s", 10),
        ("1", "t"),
        (10, "t"),
        ("t", 2),
        ("t", "a"),
        (2, "z"),
        ("a", "z"),
        ("s", 3),
        (3, "a"),
    ]:
        topo.add_link(u, v)
    return topo


@pytest.mark.parametrize("isp", ["sprint", "exodus"])
def test_every_source_tree_matches_oracle(isp):
    topo = build_isp_topology(isp, seed=0)
    for source in topo.nodes():
        _assert_same_tree(dijkstra(topo, source), _oracle_dijkstra(topo, source))


def test_mixed_node_types_rank_by_type_then_repr():
    topo = _mixed_topology()
    for source in topo.nodes():
        _assert_same_tree(dijkstra(topo, source), _oracle_dijkstra(topo, source))
        for destination in topo.nodes():
            assert shortest_path(topo, source, destination) == _oracle_path(
                topo, source, destination
            )
    # The int wins the tie although plain repr order would pick "1".
    assert shortest_path(topo, "s", "t") == ("s", 10, "t")
    assert repr("1") < repr(10)


def test_weighted_trees_match_oracle():
    topo = mesh_topology(40, extra_links=40, seed=3)
    rng = make_rng(7, "oracle-weights")
    weighted = Topology("weighted")
    for u, v in topo.links():
        # Few distinct weights, so equal-cost ties are everywhere.
        weighted.add_link(u, v, weight=float(rng.integers(1, 4)))
    for source in weighted.nodes():
        got = dijkstra(weighted, source, weight=weighted.weight)
        _assert_same_tree(got, _oracle_dijkstra(weighted, source, weighted.weight))
    sprint = build_isp_topology("sprint", seed=0)
    for source in sprint.nodes()[::97]:
        _assert_same_tree(
            dijkstra(sprint, source, weight=sprint.weight),
            _oracle_dijkstra(sprint, source, sprint.weight),
        )


@pytest.mark.parametrize("weighted", [False, True])
def test_target_early_exit_matches_oracle_paths(weighted):
    topo = build_isp_topology("exodus", seed=0)
    weight = topo.weight if weighted else None
    nodes = topo.nodes()
    rng = make_rng(11, "oracle-pairs")
    for _ in range(300):
        source = nodes[int(rng.integers(0, len(nodes)))]
        destination = nodes[int(rng.integers(0, len(nodes)))]
        expected = _oracle_path(topo, source, destination, weight)
        assert shortest_path(topo, source, destination, weight) == expected
        assert shortest_path_length(topo, source, destination, weight) == len(expected) - 1


def test_fib_next_hops_follow_oracle_tree():
    topo = _mixed_topology()
    for destination in topo.nodes():
        _, predecessors = _oracle_dijkstra(topo, destination)
        assert list(iter_sp_next_hops(topo, destination)) == list(predecessors.items())
