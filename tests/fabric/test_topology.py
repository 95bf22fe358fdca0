"""Unit tests for topology builders and routing helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fabric.topology import (
    NoPathError,
    Topology,
    build_direct_pair,
    build_fat_tree,
    build_mesh3d,
    build_star,
    dimension_order_route,
)


def test_direct_pair_has_one_link():
    topo = build_direct_pair()
    assert topo.nodes == [0, 1]
    assert topo.links == [(0, 1)]
    assert topo.hop_count(0, 1) == 1
    assert topo.diameter() == 1


def test_mesh3d_2x2x2_shape():
    topo = build_mesh3d((2, 2, 2))
    assert len(topo.nodes) == 8
    # Each node in a 2x2x2 mesh has exactly 3 neighbours.
    assert all(len(topo.neighbors(node)) == 3 for node in topo.nodes)
    assert len(topo.links) == 12
    assert topo.diameter() == 3


def test_mesh3d_hop_counts_follow_manhattan_distance():
    topo = build_mesh3d((2, 2, 2))
    # Node 0 = (0,0,0), node 7 = (1,1,1).
    assert topo.hop_count(0, 7) == 3
    assert topo.hop_count(0, 1) == 1
    assert topo.hop_count(0, 0) == 0


def test_mesh3d_larger_dimensions():
    topo = build_mesh3d((3, 2, 1))
    assert len(topo.nodes) == 6
    assert topo.is_connected()


def test_mesh3d_rejects_zero_dimension():
    with pytest.raises(ValueError):
        build_mesh3d((0, 2, 2))


def test_star_topology_routes_through_router():
    topo = build_star(4)
    assert len(topo.compute_nodes) == 4
    assert len(topo.router_nodes) == 1
    router = topo.router_nodes[0]
    assert topo.hop_count(0, 1) == 2
    assert topo.next_hop(0, 1) == router


def test_star_requires_two_nodes():
    with pytest.raises(ValueError):
        build_star(1)


def test_fat_tree_two_levels():
    topo = build_fat_tree(16, leaf_radix=4, num_spines=2)
    topo.validate()
    assert topo.compute_nodes == list(range(16))
    # Four leaves plus two spines.
    assert len(topo.router_nodes) == 6
    # Same-leaf pairs: two links, one router crossed.
    assert topo.hop_count(0, 1) == 2
    assert topo.router_crossings(0, 1) == 1
    # Cross-leaf pairs: four links through leaf -> spine -> leaf.
    assert topo.hop_count(0, 15) == 4
    assert topo.router_crossings(0, 15) == 3
    assert topo.router_crossings(0, 0) == 0


def test_fat_tree_single_leaf_has_no_spines():
    topo = build_fat_tree(3, leaf_radix=4)
    topo.validate()
    assert len(topo.router_nodes) == 1
    assert topo.hop_count(0, 2) == 2
    assert topo.diameter() == 2


def test_fat_tree_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        build_fat_tree(1)
    with pytest.raises(ValueError):
        build_fat_tree(8, leaf_radix=0)
    with pytest.raises(ValueError):
        build_fat_tree(8, num_spines=0)


def test_router_crossings_on_star():
    topo = build_star(4)
    assert topo.router_crossings(0, 1) == 1
    assert topo.router_crossings(0, 0) == 0


def test_next_hop_on_mesh():
    topo = build_mesh3d((2, 2, 2))
    path = topo.shortest_path(0, 7)
    assert path[0] == 0 and path[-1] == 7
    assert topo.next_hop(0, 7) == path[1]
    with pytest.raises(ValueError):
        topo.next_hop(3, 3)


def test_dimension_order_route_is_x_then_y_then_z():
    topo = build_mesh3d((2, 2, 2))
    route = dimension_order_route(topo, 0, 7)
    # 0=(0,0,0) -> 1=(1,0,0) -> 3=(1,1,0) -> 7=(1,1,1)
    assert route == [0, 1, 3, 7]


def test_dimension_order_route_trivial_and_fallback():
    topo = build_mesh3d((2, 2, 2))
    assert dimension_order_route(topo, 4, 4) == [4]
    star = build_star(3)
    assert dimension_order_route(star, 0, 1) == star.shortest_path(0, 1)


def test_validate_rejects_empty_and_disconnected():
    empty = Topology(name="empty")
    with pytest.raises(ValueError):
        empty.validate()
    disconnected = Topology(name="split")
    disconnected.graph.add_edge(0, 1)
    disconnected.graph.add_node(2)
    with pytest.raises(ValueError):
        disconnected.validate()


def test_adding_an_edge_after_a_query_changes_the_cached_path():
    line = Topology(name="line")
    for node in range(3):
        line.graph.add_edge(node, node + 1)
    assert line.shortest_path(0, 3) == [0, 1, 2, 3]
    assert line.hop_count(0, 3) == 3
    line.graph.add_edge(0, 3)
    assert line.shortest_path(0, 3) == [0, 3]
    assert line.hop_count(0, 3) == 1
    line.graph.remove_edge(0, 3)
    assert line.path_nodes(0, 3) == [0, 1, 2, 3]


def test_graph_errors():
    topo = build_direct_pair()
    with pytest.raises(ValueError):
        topo.graph.add_edge(1, 1)
    with pytest.raises(ValueError):
        topo.graph.remove_edge(0, 5)
    with pytest.raises(KeyError):
        topo.shortest_path(0, 5)
    topo.graph.add_node(2)
    with pytest.raises(NoPathError):
        topo.shortest_path(0, 2)
    with pytest.raises(ValueError):
        topo.diameter()


def test_cli_import_leaves_networkx_unloaded():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, repro.experiments.cli; "
            "sys.exit('networkx' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
