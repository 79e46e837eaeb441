"""Deterministic single-source shortest paths.

Implemented from scratch so that tie-breaking is under our control:
when several predecessors give the same distance, the one with the
lowest :func:`~repro.topology.graph.node_rank` wins, making routing
tables stable across runs and platforms.

Both searches run on the topology's integer substrate, whose ids are
in rank order.  Hop-count trees come from a level-order BFS: every
level is scanned in id order, so the first node to discover a
neighbour is its lowest-rank predecessor one hop closer, which is
exactly the tie-break a heap Dijkstra keyed on ``(distance, rank)``
settles on.  Weighted searches run that heap Dijkstra on the ids.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import NoPathError, RoutingError
from repro.routing.paths import Path
from repro.topology.graph import Node, Substrate, Topology

WeightFn = Callable[[Node, Node], float]

Tree = Tuple[Dict[Node, float], Dict[Node, Node]]


def dijkstra(
    topo: Topology,
    source: Node,
    weight: Optional[WeightFn] = None,
    target: Optional[Node] = None,
) -> Tree:
    """Single-source shortest distances and predecessors.

    Parameters
    ----------
    weight:
        Callable ``(u, v) -> cost``; defaults to hop count, the metric
        used throughout the paper's evaluation.
    target:
        Stop as soon as this node's path is final.  The returned maps
        then cover only the explored region, but the path to *target*
        (and its tie-break) is exactly the one a full run would
        produce: a node's predecessor can only be replaced by a node
        of strictly lower rank at the same distance, and every such
        candidate is scanned before *target* is settled (weighted) or
        discovered (hop count).  This is what makes per-flow routing
        on locality-bounded workloads cheap — the search explores the
        neighbourhood, not the whole map.

    Returns
    -------
    (distances, predecessors):
        ``distances[n]`` is the cost from *source*; nodes unreachable
        from *source* are absent.  ``predecessors[n]`` is the chosen
        previous hop (deterministic tie-break).  Both maps list nodes
        in the order the search discovered them.
    """
    if not topo.has_node(source):
        raise RoutingError(f"unknown node: {source!r}")
    substrate = topo.substrate()
    index = substrate.index
    stop = index.get(target, -1) if target is not None else -1
    if weight is None:
        dist, pred, order = _bfs(substrate, index[source], stop)
    else:
        dist, pred, order = _heap_dijkstra(substrate, index[source], stop, weight)
    nodes = substrate.nodes
    distances = {nodes[i]: float(dist[i]) for i in order}
    predecessors = {nodes[i]: nodes[pred[i]] for i in order[1:]}
    return distances, predecessors


def _bfs(
    substrate: Substrate, source: int, stop: int
) -> Tuple[List[int], List[int], List[int]]:
    """Level-order BFS: ``(dist, pred, discovery order)`` by id."""
    adjacency = substrate.adjacency
    dist = [-1] * len(adjacency)
    pred = [-1] * len(adjacency)
    dist[source] = 0
    order = [source]
    level = [source]
    depth = 0
    while level and source != stop:
        depth += 1
        found: List[int] = []
        for node in level:
            for neighbour in adjacency[node]:
                if dist[neighbour] < 0:
                    dist[neighbour] = depth
                    pred[neighbour] = node
                    found.append(neighbour)
                    if neighbour == stop:
                        order.extend(found)
                        return dist, pred, order
        order.extend(found)
        found.sort()
        level = found
    return dist, pred, order


def _heap_dijkstra(
    substrate: Substrate, source: int, stop: int, weight: WeightFn
) -> Tuple[List[Optional[float]], List[int], List[int]]:
    """Heap Dijkstra with id tie-breaks: ``(dist, pred, discovery order)``."""
    nodes, adjacency = substrate.nodes, substrate.adjacency
    dist: List[Optional[float]] = [None] * len(nodes)
    pred = [-1] * len(nodes)
    visited = [False] * len(nodes)
    dist[source] = 0.0
    order = [source]
    frontier = [(0.0, source)]
    while frontier:
        cost_so_far, node = heapq.heappop(frontier)
        if visited[node]:
            continue
        visited[node] = True
        if node == stop:
            break
        label = nodes[node]
        for neighbour in adjacency[node]:
            if visited[neighbour]:
                continue
            cost = weight(label, nodes[neighbour])
            if cost < 0:
                raise RoutingError(
                    f"negative link weight on {label!r} -- {nodes[neighbour]!r}"
                )
            candidate = cost_so_far + cost
            best = dist[neighbour]
            if best is None:
                order.append(neighbour)
            if (
                best is None
                or candidate < best - 1e-12
                or (abs(candidate - best) <= 1e-12 and node < pred[neighbour])
            ):
                dist[neighbour] = candidate
                pred[neighbour] = node
                heapq.heappush(frontier, (candidate, neighbour))
    return dist, pred, order


def shortest_path(
    topo: Topology,
    source: Node,
    destination: Node,
    weight: Optional[WeightFn] = None,
) -> Path:
    """The deterministic shortest path from *source* to *destination*.

    Raises :class:`NoPathError` when the nodes are disconnected.
    """
    if not topo.has_node(destination):
        raise RoutingError(f"unknown node: {destination!r}")
    tree = dijkstra(topo, source, weight, target=destination)
    return path_from_tree(topo, source, destination, tree)


def path_from_tree(
    topo: Topology,
    source: Node,
    destination: Node,
    tree: Tree,
) -> Path:
    """The shortest path read out of a single-source Dijkstra tree.

    ``tree`` is the ``(distances, predecessors)`` pair of a
    :func:`dijkstra` run from *source*, full or stopped at
    *destination*.  Per the tie-break argument in :func:`dijkstra`,
    the reconstructed path is exactly what :func:`shortest_path`
    returns — callers routing many destinations from the same source
    can amortise one full tree over all of them.  Raises
    :class:`NoPathError` when disconnected.
    """
    if not topo.has_node(destination):
        raise RoutingError(f"unknown node: {destination!r}")
    distances, predecessors = tree
    if destination not in distances:
        raise NoPathError(source, destination)
    path = [destination]
    while path[-1] != source:
        path.append(predecessors[path[-1]])
    path.reverse()
    return tuple(path)


def shortest_path_length(
    topo: Topology,
    source: Node,
    destination: Node,
    weight: Optional[WeightFn] = None,
) -> float:
    """Cost of the shortest path (hops by default)."""
    if not topo.has_node(destination):
        raise RoutingError(f"unknown node: {destination!r}")
    distances, _ = dijkstra(topo, source, weight, target=destination)
    if destination not in distances:
        raise NoPathError(source, destination)
    return distances[destination]


def all_pairs_hop_counts(topo: Topology) -> Dict[Node, Dict[Node, int]]:
    """Hop distance between every pair of nodes (BFS per node)."""
    result: Dict[Node, Dict[Node, int]] = {}
    for source in topo.nodes():
        distances, _ = dijkstra(topo, source)
        result[source] = {node: int(dist) for node, dist in distances.items()}
    return result


def iter_sp_next_hops(
    topo: Topology, destination: Node
) -> Iterator[Tuple[Node, Node]]:
    """Yield ``(node, next_hop)`` pairs of the SP tree toward *destination*.

    Used to build FIBs for the chunk-level simulator: for every node
    that can reach *destination*, the deterministic next hop on its
    shortest path.
    """
    distances, predecessors = dijkstra(topo, destination)
    for node in distances:
        if node == destination:
            continue
        # Predecessor in the tree rooted at `destination` is the next hop.
        yield node, predecessors[node]
