#!/usr/bin/env python3
"""Cluster fleets: borrow resources across an N-node fat-tree fabric.

The quickstart walks one requester/donor pair; this example scales the
same flow to a fleet:

1. build a 16-node cluster over a two-level fat-tree (4 nodes per leaf
   router, 2 spine routers);
2. let the matchmaker give every node a remote-memory share, plus one
   remote accelerator and one remote NIC for node 0;
3. show how the route shape (same-leaf versus cross-leaf) sets the
   per-share latency, and how the shared latency cache absorbs the
   repeated path queries;
4. tear everything down.

Run with:  python examples/cluster_scaling.py
"""

from repro.cluster.cluster import Cluster, ClusterConfig

MB = 1024 * 1024


def main() -> None:
    # 1. A 16-node fleet over the multi-router fat-tree fabric.
    cluster = Cluster(ClusterConfig(num_nodes=16, topology="fat_tree",
                                    leaf_radix=4, num_spines=2,
                                    policy="load-balanced"))
    print(f"built {cluster!r}")

    # 2. Fleet-wide provisioning: every node borrows 32 MB.
    shares = cluster.matchmaker.provision_fleet(memory_bytes_per_node=32 * MB)
    accel = cluster.matchmaker.borrow_accelerator(0)
    nic = cluster.matchmaker.borrow_nic(0)
    print(f"matchmaker placed {len(shares)} memory shares, one accelerator "
          f"(donor {accel.donor}) and one NIC (donor {nic.donor}) for node 0")

    # 3. Route shape decides the cost of a share.
    for share in shares[:4]:
        print(f"  node {share.requester:2d} <- donor {share.donor:2d}: "
              f"{share.link_hops} links, {share.router_crossings} routers, "
              f"64 B read = {share.channel.read_latency_ns(64)} ns")
    cross_leaf = cluster.remote_read_latency_ns(0, 15, 64)
    same_leaf = cluster.remote_read_latency_ns(0, 1, 64)
    print(f"same-leaf read {same_leaf} ns versus cross-leaf read "
          f"{cross_leaf} ns ({cross_leaf / same_leaf:.2f}x)")
    cache = cluster.latency_cache
    print(f"latency cache: {cache.lookups} lookups, "
          f"{100 * cache.hit_rate:.1f}% hits, {len(cache)} entries")

    # 4. Return everything to the donors.
    cluster.matchmaker.release_all()
    print(f"released: {sum(node.donated_memory_bytes for node in cluster.nodes.values())} "
          f"bytes still donated across the fleet")


if __name__ == "__main__":
    main()
