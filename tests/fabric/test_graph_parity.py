"""Parity of the topology ``Graph`` with networkx, the library it replaced.

Routes, link-wiring order and therefore every report depend on which of
several equal-length paths a query returns and on the order edges are
listed.  These tests replay the same construction calls on a
``networkx.Graph`` and require identical answers.  They run only where
networkx is installed; the simulator itself never imports it.
"""

import random

import pytest

import repro.fabric.topology as topology
from repro.fabric.topology import Graph, NoPathError, Topology

nx = pytest.importorskip("networkx")

#: Graphs above this many nodes check every destination from a strided
#: sample of sources instead of all pairs (1.6M pairs on the 1024-node
#: fat tree would take half a minute through networkx).
ALL_PAIRS_MAX_NODES = 200
SAMPLED_SOURCES = 32


class _Twin:
    """Applies every construction call to a ``Graph`` and a networkx graph."""

    def __init__(self):
        self.ours = Graph()
        self.ref = nx.Graph()

    def add_node(self, node):
        self.ours.add_node(node)
        self.ref.add_node(node)

    def add_edge(self, u, v):
        self.ours.add_edge(u, v)
        self.ref.add_edge(u, v)


def _twin_build(monkeypatch, builder, *args, **kwargs):
    twin = _Twin()
    monkeypatch.setattr(topology, "Topology",
                        lambda name: Topology(name=name, graph=twin))
    builder(*args, **kwargs)
    return twin.ours, twin.ref


def _sources(nodes):
    if len(nodes) <= ALL_PAIRS_MAX_NODES:
        return nodes
    return nodes[::-(-len(nodes) // SAMPLED_SOURCES)]


def _assert_parity(ours, ref):
    nodes = list(ref.nodes)
    assert ours.nodes() == nodes
    assert list(ours.edges()) == list(ref.edges)
    for node in nodes:
        assert ours.neighbors(node) == list(ref.neighbors(node))
        assert ours.degree(node) == ref.degree(node)
    assert ours.number_of_nodes() == ref.number_of_nodes()
    for src in _sources(nodes):
        for dst in nodes:
            try:
                expected = nx.shortest_path(ref, src, dst)
            except nx.NetworkXNoPath:
                with pytest.raises(NoPathError):
                    ours.shortest_path(src, dst)
            else:
                assert ours.shortest_path(src, dst) == expected, (src, dst)
    connected = nx.is_connected(ref)
    assert ours.is_connected() == connected
    if connected:
        assert ours.diameter() == nx.diameter(ref)
    else:
        with pytest.raises(ValueError):
            ours.diameter()


def _assert_parity_after_removals(ours, ref, rng, count):
    ours, ref = ours.copy(), ref.copy()
    _assert_parity(ours, ref)
    edges = list(ref.edges)
    for u, v in rng.sample(edges, min(count, len(edges))):
        assert ours.has_edge(u, v) and ours.has_edge(v, u)
        ours.remove_edge(u, v)
        ref.remove_edge(u, v)
        assert not ours.has_edge(u, v)
    _assert_parity(ours, ref)


BUILDS = [
    (topology.build_direct_pair, ()),
    (topology.build_direct_pair, (3, 1)),
    (topology.build_star, (2,)),
    (topology.build_star, (7,)),
    (topology.build_star, (5, 9)),
    *[(topology.build_mesh3d, (dims,)) for dims in
      [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1), (1, 3, 4), (3, 3, 3),
       (4, 2, 3), (4, 4, 4)]],
    *[(topology.build_fat_tree, (size,)) for size in
      [2, 3, 4, 5, 8, 16, 17, 64, 256, 1024]],
    (topology.build_fat_tree, (12,), {"leaf_radix": 3, "num_spines": 3}),
]


@pytest.mark.parametrize("build", BUILDS, ids=lambda build: (
    f"{build[0].__name__}{build[1]}{build[2] if len(build) > 2 else ''}"))
def test_builders_match_networkx(monkeypatch, build):
    builder, args, *kwargs = build
    ours, ref = _twin_build(monkeypatch, builder, *args,
                            **(kwargs[0] if kwargs else {}))
    _assert_parity(ours, ref)
    _assert_parity_after_removals(ours, ref, random.Random(len(ref)), 3)


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_match_networkx(seed):
    rng = random.Random(seed)
    twin = _Twin()
    num_nodes = rng.randint(2, 40)
    labels = rng.sample(range(10 * num_nodes), num_nodes)
    for label in labels[:rng.randint(0, num_nodes)]:
        twin.add_node(label)
    for _ in range(rng.randint(1, 3 * num_nodes)):
        u, v = rng.sample(labels, 2)
        twin.add_edge(u, v)
    _assert_parity(twin.ours, twin.ref)
    _assert_parity_after_removals(twin.ours, twin.ref, rng,
                                  rng.randint(1, num_nodes))


def test_copy_reorders_neighbours_like_networkx():
    twin = _Twin()
    for node in (1, 2, 5):
        twin.add_node(node)
    twin.add_edge(2, 5)
    twin.add_edge(1, 2)
    assert twin.ours.neighbors(2) == [5, 1]
    ours, ref = twin.ours.copy(), twin.ref.copy()
    assert ours.neighbors(2) == list(ref.neighbors(2)) == [1, 5]
