"""Unit tests for the cluster subsystem (fleet, paths, matchmaker)."""

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.latency_cache import ClusterLatencyCache
from repro.core.channels.path import CachedFabricPath, FabricPath, size_class
from repro.fabric.phy import RouterConfig
from repro.runtime.tables import ResourceKind

MB = 1024 * 1024


# ----------------------------------------------------------------------
# Construction over the configurable topologies
# ----------------------------------------------------------------------
def test_cluster_builds_over_every_topology():
    for config in (
        ClusterConfig(num_nodes=2, topology="direct_pair"),
        ClusterConfig(num_nodes=6, topology="star"),
        ClusterConfig(num_nodes=16, topology="fat_tree"),
        ClusterConfig(num_nodes=8, topology="mesh3d", mesh_dims=(2, 2, 2)),
    ):
        cluster = Cluster(config)
        assert cluster.num_nodes == config.num_nodes
        assert cluster.monitor.registered_nodes == cluster.node_ids


def test_cluster_rejects_unknown_topology_and_policy():
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(num_nodes=4, topology="ring"))
    with pytest.raises(ValueError):
        Cluster(ClusterConfig(num_nodes=4, policy="nearest-neighbour"))


def test_shared_cache_instance_is_not_replaced():
    # Regression: an empty cache has len() == 0 and is falsy; the
    # constructor must still adopt it rather than allocate a new one.
    cache = ClusterLatencyCache()
    cluster = Cluster(ClusterConfig(num_nodes=4), latency_cache=cache)
    assert cluster.latency_cache is cache
    cluster.path_between(0, 1).one_way_latency_ns(64)
    assert cache.lookups == 1


# ----------------------------------------------------------------------
# Router-aware cached paths
# ----------------------------------------------------------------------
def test_fat_tree_paths_charge_router_crossings():
    cluster = Cluster(ClusterConfig(num_nodes=16, leaf_radix=4))
    same_leaf = cluster.path_between(0, 1)
    cross_leaf = cluster.path_between(0, 15)
    assert same_leaf.external_router_count == 1
    assert cross_leaf.external_router_count == 3
    assert (cross_leaf.one_way_latency_ns(64)
            > same_leaf.one_way_latency_ns(64))


def test_pair_cluster_path_matches_seed_point_to_point_model():
    cluster = Cluster(ClusterConfig(num_nodes=2, topology="direct_pair"))
    path = cluster.path_between(0, 1)
    plain = FabricPath(fabric=cluster.venice.fabric, hops=1)
    assert path.external_router is None
    assert path.one_way_latency_ns(64) == plain.one_way_latency_ns(64)


def test_cached_path_matches_uncached_at_size_class_boundaries():
    cluster = Cluster(ClusterConfig(num_nodes=8))
    cached = cluster.path_between(0, 1)
    plain = FabricPath(fabric=cluster.venice.fabric, hops=cached.hops,
                       external_router=cached.external_router,
                       external_router_count=cached.external_router_count)
    for size in (8, 64, 4096):
        assert size_class(size) == size
        assert cached.one_way_latency_ns(size) == plain.one_way_latency_ns(size)
        assert cached.serialization_ns(size) == plain.serialization_ns(size)


def test_cached_path_variants_keep_type_and_cache():
    cluster = Cluster(ClusterConfig(num_nodes=16))
    path = cluster.path_between(0, 1)
    from repro.core.config import ChannelPlacement
    off_chip = path.with_placement(ChannelPlacement.OFF_CHIP)
    assert isinstance(off_chip, CachedFabricPath)
    assert off_chip.cache is cluster.latency_cache
    assert isinstance(path.with_hops(2), CachedFabricPath)
    assert isinstance(path.with_router(RouterConfig()), CachedFabricPath)


def test_size_class_rounds_up_to_powers_of_two():
    assert size_class(0) == 8
    assert size_class(8) == 8
    assert size_class(9) == 16
    assert size_class(4096) == 4096
    assert size_class(4097) == 8192
    with pytest.raises(ValueError):
        size_class(-1)


def test_cache_hits_across_clusters_of_different_sizes():
    cache = ClusterLatencyCache()
    for num_nodes in (4, 8, 16):
        cluster = Cluster(ClusterConfig(num_nodes=num_nodes),
                          latency_cache=cache)
        cluster.path_between(0, 1).one_way_latency_ns(64)
    # Same route shape in every cluster: one miss, then hits.
    assert cache.misses == 1
    assert cache.hits == 2
    assert cache.hit_rate == pytest.approx(2 / 3)


# ----------------------------------------------------------------------
# Matchmaker
# ----------------------------------------------------------------------
def test_matchmaker_memory_share_roundtrip():
    cluster = Cluster(ClusterConfig(num_nodes=8, policy="load-balanced"))
    [share] = cluster.matchmaker.borrow_memory(0, 32 * MB)
    assert share.kind is ResourceKind.MEMORY
    assert share.donor != 0
    assert cluster.node(share.donor).donated_memory_bytes == 32 * MB
    assert cluster.node(0).borrowed_memory_bytes == 32 * MB
    assert share.channel.read_latency_ns(64) > 0
    # The matchmaker goes through the system front door, so the two
    # grant-tracking layers stay in sync.
    assert cluster.system.grants == [share.grant]
    assert isinstance(share.grant.channel.path, CachedFabricPath)
    cluster.matchmaker.release(share)
    assert share.released
    assert cluster.matchmaker.shares == []
    assert cluster.system.grants == []
    assert cluster.node(share.donor).donated_memory_bytes == 0
    with pytest.raises(ValueError):
        cluster.matchmaker.release(share)


def test_matchmaker_accelerator_and_nic_shares():
    cluster = Cluster(ClusterConfig(num_nodes=4))
    accel = cluster.matchmaker.borrow_accelerator(1)
    nic = cluster.matchmaker.borrow_nic(2)
    assert accel.target.is_remote
    assert accel.target.task_latency_ns(4096, 4096, 512) > 0
    assert nic.vnic.throughput_gbps(256) > 0
    assert {share.kind for share in cluster.matchmaker.shares} == {
        ResourceKind.ACCELERATOR, ResourceKind.NIC}
    cluster.matchmaker.release_all()
    assert cluster.matchmaker.shares == []


def test_provision_fleet_gives_every_node_a_distinct_donor_share():
    cluster = Cluster(ClusterConfig(num_nodes=16, policy="load-balanced"))
    shares = cluster.matchmaker.provision_fleet(memory_bytes_per_node=4 * MB)
    assert len(shares) == 16
    assert [share.requester for share in shares] == cluster.node_ids
    for share in shares:
        assert share.donor != share.requester
    # Load balancing: every node donates exactly one share.
    donors = sorted(share.donor for share in shares)
    assert donors == cluster.node_ids


def test_provision_fleet_full_resource_mix():
    cluster = Cluster(ClusterConfig(num_nodes=4, policy="load-balanced"))
    shares = cluster.matchmaker.provision_fleet(
        memory_bytes_per_node=1 * MB, accelerators_per_node=1,
        nics_per_node=1)
    assert len(shares) == 12
    assert len(cluster.matchmaker.shares_of_kind(ResourceKind.MEMORY)) == 4
    assert len(cluster.matchmaker.shares_of_kind(ResourceKind.ACCELERATOR)) == 4
    assert len(cluster.matchmaker.shares_of_kind(ResourceKind.NIC)) == 4
    cluster.matchmaker.release_all()
    for node_id in cluster.node_ids:
        agent = cluster.node(node_id).agent
        assert agent.donated_bytes == 0
        assert agent.accelerators_donated == 0
        assert agent.nics_donated == 0
