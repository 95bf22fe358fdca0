"""Regression tests for matchmaker donor-capacity spill.

When the policy-chosen memory donor cannot cover a request, the
matchmaker must split it across the next-best donors (crossing leaves
on a fat-tree) instead of failing, and the resulting shares must tear
down like any others.
"""

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.runtime.monitor import AllocationError
from repro.runtime.tables import ResourceKind

MB = 1024 * 1024
GB = 1024 * MB


def _limit_idle_memory(cluster, idle_bytes_by_node):
    """Pin each node's donatable memory by booking local usage."""
    for node_id, idle in idle_bytes_by_node.items():
        agent = cluster.node(node_id).agent
        agent.set_local_usage(agent.memory_capacity_bytes - idle)
    cluster.monitor.collect_heartbeats()


def test_single_donor_request_still_returns_one_share():
    cluster = Cluster(ClusterConfig(num_nodes=8))
    shares = cluster.matchmaker.borrow_memory(0, 32 * MB)
    assert len(shares) == 1
    assert shares[0].amount == 32 * MB


def test_spill_splits_across_donors_when_no_single_donor_covers():
    cluster = Cluster(ClusterConfig(num_nodes=8, topology="fat_tree",
                                    leaf_radix=4))
    # Every node can only donate 200 MB; ask for 500 MB.
    _limit_idle_memory(cluster, {n: 200 * MB for n in cluster.node_ids})
    shares = cluster.matchmaker.borrow_memory(0, 500 * MB)
    assert sum(share.amount for share in shares) == 500 * MB
    assert len(shares) == 3
    donors = [share.donor for share in shares]
    assert len(set(donors)) == 3
    assert 0 not in donors
    # Every chunk is a real grant: donor-side accounting matches.
    for share in shares:
        assert (cluster.node(share.donor).donated_memory_bytes
                >= share.amount)
    assert cluster.node(0).borrowed_memory_bytes == 500 * MB


def test_spill_crosses_fat_tree_leaves_when_local_leaf_is_drained():
    cluster = Cluster(ClusterConfig(num_nodes=8, topology="fat_tree",
                                    leaf_radix=4))
    # Leaf 0 (nodes 0-3): siblings nearly drained; leaf 1 (nodes 4-7)
    # has more, but no single donor covers 600 MB, so the spill drains
    # the same-leaf donors first and then crosses to the other leaf.
    idle = {1: 64 * MB, 2: 64 * MB, 3: 64 * MB,
            4: 256 * MB, 5: 256 * MB, 6: 256 * MB, 7: 256 * MB}
    _limit_idle_memory(cluster, {0: 1 * GB, **idle})
    shares = cluster.matchmaker.borrow_memory(0, 600 * MB)
    assert sum(share.amount for share in shares) == 600 * MB
    donors = {share.donor for share in shares}
    # Distance-first: the same-leaf donors are drained first...
    assert {1, 2, 3} <= donors
    # ...and the remainder crosses to the other leaf.
    assert donors & {4, 5, 6, 7}
    cluster.matchmaker.release_all()
    assert cluster.matchmaker.shares == []
    for node_id in cluster.node_ids:
        assert cluster.node(node_id).agent.donated_bytes == 0


def test_spill_disabled_or_impossible_raises():
    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    _limit_idle_memory(cluster, {n: 100 * MB for n in cluster.node_ids})
    with pytest.raises(AllocationError):
        cluster.matchmaker.borrow_memory(0, 200 * MB, spill=False)
    # Fleet-wide shortfall (3 donors x 100 MB < 400 MB) still raises.
    with pytest.raises(AllocationError):
        cluster.matchmaker.borrow_memory(0, 400 * MB)
    # Nothing was left half-borrowed.
    assert cluster.matchmaker.shares == []
    assert cluster.matchmaker.shares_of_kind(ResourceKind.MEMORY) == []


def test_spill_skips_donors_behind_down_links():
    from repro.runtime.tables import LinkStatus

    cluster = Cluster(ClusterConfig(num_nodes=4, topology="star"))
    _limit_idle_memory(cluster, {n: 100 * MB for n in cluster.node_ids})
    # Node 1 is unreachable: its hub link is down.  The plan must route
    # around it instead of including it and unwinding the whole spill.
    hub = next(n for n in cluster.topology.nodes
               if n not in cluster.topology.compute_nodes)
    cluster.monitor.tst.report(1, hub, LinkStatus.DOWN, now_ns=0)
    cluster.monitor.tst.report(hub, 1, LinkStatus.DOWN, now_ns=0)
    shares = cluster.matchmaker.borrow_memory(0, 200 * MB)
    assert sum(share.amount for share in shares) == 200 * MB
    assert 1 not in {share.donor for share in shares}


def test_spilled_shares_release_independently():
    cluster = Cluster(ClusterConfig(num_nodes=4))
    _limit_idle_memory(cluster, {n: 64 * MB for n in cluster.node_ids})
    shares = cluster.matchmaker.borrow_memory(0, 128 * MB)
    assert len(shares) == 2
    first, second = shares
    cluster.matchmaker.release(first)
    assert first.released and not second.released
    assert cluster.node(0).borrowed_memory_bytes == 64 * MB
    cluster.matchmaker.release(second)
    assert cluster.node(0).borrowed_memory_bytes == 0
