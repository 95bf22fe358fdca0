"""Topology builders and hop-distance queries.

The prototype connects eight nodes in a 3D mesh (a 2x2x2 cube).  The
latency-analysis experiments additionally use a directly connected node
pair and a pair joined through one external router.  The
:class:`Topology` class captures nodes, links and shortest-path hop
counts; the Venice system builder (:mod:`repro.core.system`) uses it to
wire switches and to program routing tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

class NoPathError(ValueError):
    """Raised by :meth:`Graph.shortest_path` when the endpoints are disconnected."""


class Graph:
    """Undirected simple graph over integer nodes, in insertion order.

    The adjacency is a dict of dicts: node order is first-insertion
    order, and each neighbour dict keeps the order its edges were
    added.  Those two orders fix :meth:`edges` order and the tie-breaking
    between equal-length shortest paths, so every route and link-wiring
    order depends only on the order the builders add edges in
    (``tests/fabric/test_graph_parity.py`` pins both against the
    reference graph library the routes were first computed with).
    ``stamp`` counts mutations, so a cache keyed on it sees every edit.
    """

    __slots__ = ("_adj", "stamp")

    def __init__(self) -> None:
        self._adj: Dict[int, Dict[int, None]] = {}  # simlint: disable=SIM006 -- one entry per topology node, fixed by the builder
        self.stamp = 0

    def add_node(self, node: int) -> None:
        if node not in self._adj:
            self._adj[node] = {}
            self.stamp += 1

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop on node {u} in a simple graph")
        adj = self._adj
        if u not in adj:
            adj[u] = {}
        if v not in adj:
            adj[v] = {}
        adj[u][v] = None
        adj[v][u] = None
        self.stamp += 1

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} is not in the graph")
        del self._adj[u][v]
        del self._adj[v][u]
        self.stamp += 1

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def nodes(self) -> List[int]:
        return list(self._adj)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each edge once, as (first-seen endpoint, other endpoint)."""
        seen = set()
        for node, nbrs in self._adj.items():
            for nbr in nbrs:
                if nbr not in seen:
                    yield node, nbr
            seen.add(node)

    def neighbors(self, node: int) -> List[int]:
        return list(self._adj[node])

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def copy(self) -> "Graph":
        """A new graph rebuilt node by node, then edge by edge.

        Edges are re-added in adjacency order, so a neighbour dict of
        the copy can be ordered differently from the original's.  The
        reference library's copy reorders the same way, which keeps path
        tie-breaking on copies (fault re-routing) identical too.
        """
        graph = Graph()
        for node in self._adj:
            graph.add_node(node)
        for node, nbrs in self._adj.items():
            for nbr in nbrs:
                graph.add_edge(node, nbr)
        return graph

    def shortest_path(self, source: int, target: int) -> List[int]:
        """Node sequence (inclusive) of a fewest-hop path.

        Bidirectional BFS that always grows the smaller fringe and stops
        at the first node both searches have reached.  Among equal-length
        paths the neighbour orders decide which one is returned.
        """
        for node in (source, target):
            if node not in self._adj:
                raise KeyError(f"node {node} is not in the graph")
        pred, succ, meet = self._bidirectional_pred_succ(source, target)
        path = []
        node = meet
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[path[-1]]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def _bidirectional_pred_succ(self, source: int, target: int):
        """(pred, succ, meet): BFS trees from ``meet`` back to each end."""
        if source == target:
            return {target: None}, {source: None}, source
        adj = self._adj
        pred: Dict[int, Optional[int]] = {source: None}
        succ: Dict[int, Optional[int]] = {target: None}
        forward_fringe = [source]
        reverse_fringe = [target]
        while forward_fringe and reverse_fringe:
            if len(forward_fringe) <= len(reverse_fringe):
                this_level = forward_fringe
                forward_fringe = []
                for v in this_level:
                    for w in adj[v]:
                        if w not in pred:
                            forward_fringe.append(w)
                            pred[w] = v
                        if w in succ:
                            return pred, succ, w
            else:
                this_level = reverse_fringe
                reverse_fringe = []
                for v in this_level:
                    for w in adj[v]:
                        if w not in succ:
                            succ[w] = v
                            reverse_fringe.append(w)
                        if w in pred:
                            return pred, succ, w
        raise NoPathError(f"no path between {source} and {target}")

    def _eccentricity(self, source: int) -> Tuple[int, int]:
        """(nodes reached, largest hop distance) of a BFS from ``source``."""
        seen = {source}
        fringe = [source]
        depth = -1
        while fringe:
            depth += 1
            next_fringe = []
            for v in fringe:
                for w in self._adj[v]:
                    if w not in seen:
                        seen.add(w)
                        next_fringe.append(w)
            fringe = next_fringe
        return len(seen), depth

    def is_connected(self) -> bool:
        """True when every node reaches every other (vacuously if empty)."""
        if not self._adj:
            return True
        return self._eccentricity(next(iter(self._adj)))[0] == len(self._adj)

    def diameter(self) -> int:
        """Largest shortest-path hop count over all node pairs."""
        diameter = 0
        for node in self._adj:
            reached, depth = self._eccentricity(node)
            if reached != len(self._adj):
                raise ValueError("diameter is infinite: the graph is disconnected")
            diameter = max(diameter, depth)
        return diameter


@dataclass
class Topology:  # simlint: disable=SIM004 -- built once per experiment, never touched on the per-packet path
    """A named interconnection topology over integer node identifiers."""

    name: str
    graph: Graph = field(default_factory=Graph)
    #: Optional grid coordinates for mesh topologies (node -> (x, y, z)).
    coordinates: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    #: Nodes that are routers rather than compute nodes.
    router_nodes: List[int] = field(default_factory=list)
    #: (src, dst) -> shortest path.  The runtime layer asks for the same
    #: few routes on every request (policy ordering, path-usability
    #: checks), so the cache turns the sharded-MN planning hot path's
    #: repeated BFS into dict hits.  Both caches are dropped whenever the
    #: graph's mutation stamp moves, so any edit -- including an edge
    #: between existing nodes -- is seen by the next query.
    _path_cache: Dict[Tuple[int, int], List[int]] = field(
        default_factory=dict, repr=False, compare=False)
    _hop_cache: Dict[Tuple[int, int], int] = field(
        default_factory=dict, repr=False, compare=False)
    _path_cache_stamp: int = field(default=-1, repr=False, compare=False)

    @property
    def nodes(self) -> List[int]:
        return sorted(self.graph.nodes())

    @property
    def compute_nodes(self) -> List[int]:
        routers = set(self.router_nodes)
        return [node for node in self.nodes if node not in routers]

    @property
    def links(self) -> List[Tuple[int, int]]:
        return [tuple(sorted(edge)) for edge in self.graph.edges()]

    def neighbors(self, node: int) -> List[int]:
        return sorted(self.graph.neighbors(node))

    def hop_count(self, src: int, dst: int) -> int:
        """Number of fabric hops on the shortest path from src to dst."""
        if src == dst:
            return 0
        self._check_path_stamp()
        hops = self._hop_cache.get((src, dst))
        if hops is None:
            hops = self._hop_cache[(src, dst)] = \
                len(self._cached_path(src, dst)) - 1
        return hops

    def _check_path_stamp(self) -> None:
        stamp = self.graph.stamp
        if stamp != self._path_cache_stamp:
            self._path_cache.clear()
            self._hop_cache.clear()
            self._path_cache_stamp = stamp

    def _cached_path(self, src: int, dst: int) -> List[int]:
        self._check_path_stamp()
        path = self._path_cache.get((src, dst))
        if path is None:
            path = self.graph.shortest_path(src, dst)
            self._path_cache[(src, dst)] = path
        return path

    def shortest_path(self, src: int, dst: int) -> List[int]:
        """Node sequence (inclusive) of the shortest path."""
        # Copy so callers may mutate their path without corrupting the
        # cache; the copy is a few elements against a saved BFS.
        return list(self._cached_path(src, dst))

    def path_nodes(self, src: int, dst: int) -> List[int]:
        """Like :meth:`shortest_path` but returns the cached list itself.

        For per-request hot paths that only iterate: the caller must
        treat the result as read-only (it is shared with the cache).
        """
        return self._cached_path(src, dst)

    def next_hop(self, src: int, dst: int) -> int:
        """First intermediate node on the path from src towards dst."""
        if src == dst:
            raise ValueError("next_hop undefined for src == dst")
        return self._cached_path(src, dst)[1]

    def route_shape(self, src: int, dst: int) -> Tuple[int, int]:
        """(link count, router nodes crossed) of the shortest path.

        One shortest-path computation answers both questions; hot paths
        should prefer this over separate ``hop_count`` /
        ``router_crossings`` calls.
        """
        if src == dst:
            return 0, 0
        path = self._cached_path(src, dst)
        routers = set(self.router_nodes)
        return len(path) - 1, sum(1 for node in path[1:-1] if node in routers)

    def router_crossings(self, src: int, dst: int) -> int:
        """Number of router nodes crossed on the shortest path."""
        return self.route_shape(src, dst)[1]

    def is_connected(self) -> bool:
        return self.graph.is_connected()

    def diameter(self) -> int:
        return self.graph.diameter()

    def validate(self) -> None:
        """Raise if the topology is unusable (disconnected or empty)."""
        if self.graph.number_of_nodes() == 0:
            raise ValueError(f"topology {self.name!r} has no nodes")
        if not self.is_connected():
            raise ValueError(f"topology {self.name!r} is disconnected")


def build_direct_pair(node_a: int = 0, node_b: int = 1) -> Topology:
    """Two nodes joined by a single optical link (Section 4.2 setup)."""
    topo = Topology(name="direct_pair")
    topo.graph.add_edge(node_a, node_b)
    return topo


def build_star(num_nodes: int, router_id: Optional[int] = None) -> Topology:
    """Nodes connected through one central external router (Figure 6)."""
    if num_nodes < 2:
        raise ValueError("a star topology needs at least two compute nodes")
    router = router_id if router_id is not None else num_nodes
    topo = Topology(name="star")
    for node in range(num_nodes):
        topo.graph.add_edge(node, router)
    topo.router_nodes.append(router)
    return topo


def build_mesh3d(dims: Tuple[int, int, int] = (2, 2, 2)) -> Topology:
    """3D mesh of ``dims`` nodes (the prototype uses a 2x2x2 mesh)."""
    x_dim, y_dim, z_dim = dims
    if min(dims) < 1:
        raise ValueError(f"mesh dimensions must be positive, got {dims}")
    topo = Topology(name=f"mesh3d_{x_dim}x{y_dim}x{z_dim}")

    def node_id(x: int, y: int, z: int) -> int:
        return x + y * x_dim + z * x_dim * y_dim

    for x, y, z in itertools.product(range(x_dim), range(y_dim), range(z_dim)):
        node = node_id(x, y, z)
        topo.graph.add_node(node)
        topo.coordinates[node] = (x, y, z)
        if x + 1 < x_dim:
            topo.graph.add_edge(node, node_id(x + 1, y, z))
        if y + 1 < y_dim:
            topo.graph.add_edge(node, node_id(x, y + 1, z))
        if z + 1 < z_dim:
            topo.graph.add_edge(node, node_id(x, y, z + 1))
    return topo


def build_fat_tree(num_nodes: int, leaf_radix: int = 4,
                   num_spines: int = 2) -> Topology:
    """Two-level multi-router fat-tree for N-node clusters.

    Compute nodes attach to leaf routers (``leaf_radix`` nodes per
    leaf); every leaf connects to every spine router, so any two nodes
    are at most four links apart: same-leaf pairs cross one router,
    cross-leaf pairs cross three (leaf, spine, leaf).  When all nodes
    fit under a single leaf no spine level is created.
    """
    if num_nodes < 2:
        raise ValueError("a fat-tree needs at least two compute nodes")
    if leaf_radix < 1:
        raise ValueError(f"leaf radix must be positive, got {leaf_radix}")
    if num_spines < 1:
        raise ValueError(f"spine count must be positive, got {num_spines}")
    num_leaves = -(-num_nodes // leaf_radix)
    topo = Topology(name=f"fat_tree_{num_nodes}n_{num_leaves}l")
    leaf_base = num_nodes
    for node in range(num_nodes):
        topo.graph.add_edge(node, leaf_base + node // leaf_radix)
    topo.router_nodes.extend(range(leaf_base, leaf_base + num_leaves))
    if num_leaves > 1:
        spine_base = leaf_base + num_leaves
        for spine in range(spine_base, spine_base + num_spines):
            topo.router_nodes.append(spine)
            for leaf in range(leaf_base, leaf_base + num_leaves):
                topo.graph.add_edge(leaf, spine)
    return topo


def dimension_order_route(topo: Topology, src: int, dst: int) -> List[int]:
    """X-then-Y-then-Z route through a mesh with coordinates.

    Falls back to the generic shortest path when coordinates are not
    available (non-mesh topologies).
    """
    if src == dst:
        return [src]
    if src not in topo.coordinates or dst not in topo.coordinates:
        return topo.shortest_path(src, dst)
    coord_to_node = {coord: node for node, coord in topo.coordinates.items()}
    current = list(topo.coordinates[src])
    target = topo.coordinates[dst]
    path = [src]
    for axis in range(3):
        while current[axis] != target[axis]:
            current[axis] += 1 if target[axis] > current[axis] else -1
            path.append(coord_to_node[tuple(current)])
    return path
