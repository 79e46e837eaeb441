"""Capacitated topology model with per-direction link capacities.

:class:`Topology` is an insertion-ordered adjacency map that enforces
the library-wide conventions: capacities in bits/s, delays in seconds
and a routing weight per link (1.0 by default, i.e. hop-count routing
as in the paper's flow-level evaluation).

Iteration orders are part of the contract, because samplers, allocator
column layouts and detour tables inherit them: ``nodes()`` is insertion
order, ``neighbors(n)`` is the order the links at *n* were added, and
``links()`` visits nodes in order and, at each, the links to nodes not
yet visited.  :meth:`Topology.copy` and :meth:`Topology.is_bridge`
reorder neighbours in documented ways.  These orders are pinned by
tests, so recorded results keep reproducing.

The substrate is **directed**: every physical link carries one
capacity per traversal direction, keyed by the traversal-order tuple
``(u, v)``.  Undirected topologies are the symmetric special case —
``add_link(u, v, capacity=c)`` installs ``c`` in both directions, and
everything built that way reproduces the historical undirected
results exactly.  :meth:`Topology.directed_capacities` is the map the
allocators consume; :func:`Link.key` is the single canonical
normalization used when a direction-less identifier is needed (detour
classification, serialisation, reporting).

Routing runs on a separate integer view, :meth:`Topology.substrate`:
the nodes relabelled to ids in :func:`node_rank` order, plus integer
adjacency lists.  It is built lazily, dropped by every change to the
node or link set, and never shared with a :meth:`Topology.copy`.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.errors import TopologyError

Node = Hashable

#: Default link capacity when none is given: 10 Mbps, the shared-link
#: rate of the paper's Fig. 3 example.
DEFAULT_CAPACITY_BPS = 10e6

#: Default one-way propagation delay (1 ms).
DEFAULT_DELAY_S = 1e-3

#: An asymmetric capacity spec: a single float (symmetric) or a
#: ``(forward, reverse)`` pair relative to the ``(u, v)`` the spec is
#: attached to.
CapacitySpec = Union[float, Tuple[float, float]]


class Link(tuple):
    """A link identifier: a plain ``(u, v)`` node tuple.

    Directed link state (capacities, allocator columns) is keyed by the
    traversal-order tuple; :meth:`Link.key` is the one canonical
    normalization collapsing both orientations onto the undirected
    identity of the link.
    """

    __slots__ = ()

    @staticmethod
    def key(u: Node, v: Node) -> "Link":
        """Return the canonical (order-independent) identifier of a link.

        Nodes of mixed or unorderable types are ordered by their
        ``repr``, which is stable within a process and good enough for
        dictionary keys.
        """
        try:
            return (u, v) if u <= v else (v, u)  # type: ignore[operator,return-value]
        except TypeError:
            return (u, v) if repr(u) <= repr(v) else (v, u)  # type: ignore[return-value]


def link_key(u: Node, v: Node) -> Link:
    """Canonical undirected link identifier (alias of :meth:`Link.key`)."""
    return Link.key(u, v)


def split_capacity_spec(capacity: CapacitySpec) -> Tuple[float, float]:
    """Normalise a capacity spec into a ``(forward, reverse)`` pair.

    A bare number means symmetric; a 2-sequence is taken as
    ``(forward, reverse)``.
    """
    try:
        if isinstance(capacity, (tuple, list)):
            if len(capacity) != 2:
                raise TypeError
            return float(capacity[0]), float(capacity[1])
        return float(capacity), float(capacity)
    except (TypeError, ValueError):
        raise TopologyError(
            f"capacity spec must be a number or a (forward, reverse) pair, "
            f"got {capacity!r}"
        ) from None


def node_rank(node: Node) -> Tuple[str, str]:
    """The deterministic routing order of nodes: type name, then ``repr``.

    Shortest-path tie-breaks prefer the lowest-ranked predecessor, so
    routing tables do not depend on insertion order, hash seeds or
    platform; ``int`` and ``str`` nodes of one topology never compare
    directly.
    """
    return (type(node).__name__, repr(node))


class Substrate(NamedTuple):
    """Integer view of a topology for the routing algorithms.

    Node ids follow :func:`node_rank` (ties, which only distinct nodes
    with equal type name and ``repr`` can produce, keep insertion
    order), so comparing ids compares ranks.
    """

    #: id -> node, in rank order.
    nodes: List[Node]
    #: node -> id.
    index: Dict[Node, int]
    #: id -> neighbour ids, in :meth:`Topology.neighbors` order.
    adjacency: List[List[int]]


class Topology:
    """A capacitated network topology with per-direction capacities.

    Parameters
    ----------
    name:
        Human-readable topology name, used in reports.

    Notes
    -----
    Physical links are bidirectional but each direction has its own
    capacity.  ``add_link(u, v, capacity=c)`` is the symmetric
    full-duplex case (``c`` bits/s in each direction — the standard
    convention in flow-level network simulation and what the paper's
    Fig. 3 arithmetic assumes); pass ``capacity_reverse`` (or a
    ``(forward, reverse)`` capacity spec) for asymmetric links.
    """

    def __init__(self, name: str = "topology"):
        self.name = name
        #: node -> {neighbour: link data}; one data dict per link,
        #: shared by both orientations.
        self._adj: Dict[Node, Dict[Node, dict]] = {}
        self._num_links = 0
        self._substrate: Optional[Substrate] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Add *node* (idempotent) and return it."""
        if node not in self._adj:
            if node is None:
                raise TopologyError("None cannot be a node")
            self._adj[node] = {}
            self._substrate = None
        return node

    def add_link(
        self,
        u: Node,
        v: Node,
        capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
        delay: float = DEFAULT_DELAY_S,
        weight: float = 1.0,
        capacity_reverse: Optional[float] = None,
    ) -> Link:
        """Add a link between *u* and *v*.

        ``capacity`` applies to the ``u -> v`` direction; the
        ``v -> u`` direction gets ``capacity_reverse`` when given,
        otherwise the same value (symmetric link).  ``capacity`` may
        also be a ``(forward, reverse)`` pair.

        Raises
        ------
        TopologyError
            If the link is a self-loop, a duplicate, or has a
            non-positive capacity in either direction.
        """
        forward, reverse = split_capacity_spec(capacity)
        if capacity_reverse is not None:
            if isinstance(capacity, (tuple, list)):
                raise TopologyError(
                    "give either a (forward, reverse) capacity pair or "
                    "capacity_reverse, not both"
                )
            reverse = float(capacity_reverse)
        if u == v:
            raise TopologyError(f"self-loop not allowed: {u!r}")
        if self.has_link(u, v):
            raise TopologyError(f"duplicate link: {u!r} -- {v!r}")
        if forward <= 0 or reverse <= 0:
            bad = forward if forward <= 0 else reverse
            raise TopologyError(f"capacity must be positive, got {bad!r}")
        if delay < 0:
            raise TopologyError(f"delay must be non-negative, got {delay!r}")
        key = Link.key(u, v)
        cap_fwd, cap_rev = (forward, reverse) if (u, v) == key else (reverse, forward)
        self._connect(
            u,
            v,
            {
                "capacity": cap_fwd,
                "capacity_rev": cap_rev,
                "delay": float(delay),
                "weight": float(weight),
            },
        )
        return key

    def remove_link(self, u: Node, v: Node) -> None:
        """Remove the link between *u* and *v*."""
        self._link_data(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_links -= 1
        self._substrate = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_links(self) -> int:
        return self._num_links

    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._adj)

    def links(self) -> List[Link]:
        """All links as canonical ``(u, v)`` tuples."""
        return [Link.key(u, v) for u, v, _ in self._edges()]

    def directed_links(self) -> Iterator[Link]:
        """Both orientations of every link (for per-direction state)."""
        for u, v, _ in self._edges():
            yield (u, v)
            yield (v, u)

    def has_node(self, node: Node) -> bool:
        try:
            return node in self._adj
        except TypeError:  # unhashable: not a node
            return False

    def has_link(self, u: Node, v: Node) -> bool:
        try:
            return v in self._adj[u]
        except KeyError:
            return False

    def neighbors(self, node: Node) -> List[Node]:
        """Neighbours of *node*, in the order their links were added."""
        return list(self._neighbour_map(node))

    def degree(self, node: Node) -> int:
        return len(self._neighbour_map(node))

    def capacity(self, u: Node, v: Node) -> float:
        """Capacity of the ``u -> v`` direction of the link, in bits/s."""
        data = self._link_data(u, v)
        if (u, v) == Link.key(u, v):
            return float(data["capacity"])
        return float(data["capacity_rev"])

    def delay(self, u: Node, v: Node) -> float:
        """One-way propagation delay of link ``(u, v)`` in seconds."""
        return float(self._link_data(u, v)["delay"])

    def weight(self, u: Node, v: Node) -> float:
        """Routing weight of link ``(u, v)``."""
        return float(self._link_data(u, v)["weight"])

    def set_capacity(self, u: Node, v: Node, capacity: CapacitySpec) -> None:
        """Set the link capacity.

        A bare number sets **both** directions (the historical
        symmetric behaviour); a ``(forward, reverse)`` pair sets the
        ``u -> v`` and ``v -> u`` directions respectively.
        """
        forward, reverse = split_capacity_spec(capacity)
        self.set_directed_capacity(u, v, forward)
        self.set_directed_capacity(v, u, reverse)

    def set_directed_capacity(self, u: Node, v: Node, capacity: float) -> None:
        """Set the capacity of the ``u -> v`` direction only."""
        if capacity <= 0:
            raise TopologyError(f"capacity must be positive, got {capacity!r}")
        data = self._link_data(u, v)
        attr = "capacity" if (u, v) == Link.key(u, v) else "capacity_rev"
        data[attr] = float(capacity)

    def set_delay(self, u: Node, v: Node, delay: float) -> None:
        if delay < 0:
            raise TopologyError(f"delay must be non-negative, got {delay!r}")
        self._link_data(u, v)["delay"] = float(delay)

    def is_symmetric(self) -> bool:
        """True when every link has equal capacity in both directions."""
        return all(
            data["capacity"] == data["capacity_rev"] for _, _, data in self._edges()
        )

    def total_capacity(self) -> float:
        """Sum of canonical-direction link capacities, bits/s."""
        return sum(data["capacity"] for _, _, data in self._edges())

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return True
        return len(self._reachable(0)) == self.num_nodes

    def is_bridge(self, u: Node, v: Node) -> bool:
        """True if removing link ``(u, v)`` disconnects *u* from *v*.

        Like the remove-and-re-add it stands for, this moves the link
        to the end of both endpoints' neighbour order.
        """
        data = self._link_data(u, v)
        index = self.substrate().index
        bridge = index[v] not in self._reachable(index[u], skip=index[v])
        self.remove_link(u, v)
        self._connect(u, v, dict(data))
        return bridge

    def substrate(self) -> Substrate:
        """The integer routing view of the current graph (cached)."""
        substrate = self._substrate
        if substrate is None:
            order = sorted(self._adj, key=node_rank)
            index = {node: i for i, node in enumerate(order)}
            adjacency = [[index[m] for m in self._adj[node]] for node in order]
            substrate = self._substrate = Substrate(order, index, adjacency)
        return substrate

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Topology":
        """An independent copy (link data included).

        Links are re-added in adjacency order, so each node's
        neighbour order becomes its earlier-inserted neighbours first
        (in node order), then the rest in their previous order.
        """
        clone = Topology(name or self.name)
        adj = clone._adj = {node: {} for node in self._adj}
        for u, neighbours in self._adj.items():
            for v, data in neighbours.items():
                if v not in adj[u]:
                    adj[u][v] = adj[v][u] = dict(data)
        clone._num_links = self._num_links
        return clone

    def without_link(self, u: Node, v: Node) -> "Topology":
        """A copy of the topology with link ``(u, v)`` removed."""
        clone = self.copy(f"{self.name}-without-{u}-{v}")
        clone.remove_link(u, v)
        return clone

    @classmethod
    def from_links(
        cls,
        links: Iterable[Tuple[Node, Node]],
        name: str = "topology",
        capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
        delay: float = DEFAULT_DELAY_S,
    ) -> "Topology":
        """Build a topology from an iterable of ``(u, v)`` pairs."""
        topo = cls(name)
        for u, v in links:
            topo.add_link(u, v, capacity=capacity, delay=delay)
        return topo

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _connect(self, u: Node, v: Node, data: dict) -> None:
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = self._adj[v][u] = data
        self._num_links += 1
        self._substrate = None

    def _edges(self) -> Iterator[Tuple[Node, Node, dict]]:
        """Every link once, as ``(u, v, data)`` with *u* inserted first."""
        seen = set()
        for u, neighbours in self._adj.items():
            for v, data in neighbours.items():
                if v not in seen:
                    yield u, v, data
            seen.add(u)

    def _reachable(self, start: int, skip: int = -1) -> set:
        """Ids reachable from *start*, not stepping from *start* to *skip*."""
        adjacency = self.substrate().adjacency
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbour in adjacency[node]:
                if neighbour not in seen and not (node == start and neighbour == skip):
                    seen.add(neighbour)
                    queue.append(neighbour)
        return seen

    def _neighbour_map(self, node: Node) -> Dict[Node, dict]:
        try:
            return self._adj[node]
        except (KeyError, TypeError):
            raise TopologyError(f"unknown node: {node!r}") from None

    def _link_data(self, u: Node, v: Node) -> dict:
        try:
            return self._adj[u][v]
        except KeyError:
            raise TopologyError(f"unknown link: {u!r} -- {v!r}") from None

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:
        return f"Topology({self.name!r}, nodes={self.num_nodes}, links={self.num_links})"

    def link_capacities(self) -> Dict[Link, float]:
        """Mapping of canonical link -> canonical-direction capacity.

        Only meaningful on symmetric topologies (one scalar per link);
        allocators index per direction via :meth:`directed_capacities`.
        """
        return {Link.key(u, v): float(data["capacity"]) for u, v, data in self._edges()}

    def directed_capacities(self) -> Dict[Link, float]:
        """Mapping of directed ``(u, v)`` link -> capacity (bits/s).

        Contains both orientations of every link; this is the map the
        flow-level allocators consume.
        """
        capacities: Dict[Link, float] = {}
        for u, v, data in self._edges():
            key = Link.key(u, v)
            fwd, rev = float(data["capacity"]), float(data["capacity_rev"])
            if (u, v) == key:
                capacities[(u, v)] = fwd
                capacities[(v, u)] = rev
            else:
                capacities[(u, v)] = rev
                capacities[(v, u)] = fwd
        return capacities
