"""Cluster scaling: per-share degradation as the fleet grows.

The paper's prototype measures resource sharing between one
requester/donor pair (optionally through one external router).  This
experiment scales that setup out: clusters of 2 to 64 nodes are built
over the multi-router fat-tree fabric (the 2-node baseline keeps the
paper's point-to-point link), every node borrows a remote-memory share
through the matchmaker, and the sweep reports how per-share remote-read
latency and bulk throughput degrade relative to the directly connected
pair.  One :class:`~repro.cluster.latency_cache.ClusterLatencyCache` is
shared across the whole sweep, and the report includes its measured hit
rate -- the fast path that keeps N-node sweeps from recomputing the
same closed-form latencies per access.

Methodology per Wei et al. (arXiv:2010.07098): one model, many
configurations, measured uniformly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.report import FigureReport
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.latency_cache import ClusterLatencyCache

MB = 1024 * 1024


@dataclass
class ClusterScalingConfig:
    """Sweep parameters (node counts 2 -> 64 by default)."""

    node_counts: Tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    #: Compute nodes per fat-tree leaf router.
    leaf_radix: int = 4
    #: Spine routers joining the leaves.
    num_spines: int = 2
    #: Donor-selection policy used by the matchmaker.
    policy: str = "load-balanced"
    #: Remote-memory share each node borrows from the fleet.
    borrow_bytes: int = 8 * MB
    #: Payload of one remote read (a cacheline).
    read_bytes: int = 64
    #: Bulk-transfer size used for the throughput measurement.
    bulk_bytes: int = 64 * 1024
    #: Remote reads issued per share (exercises the latency cache).
    reads_per_share: int = 32

    def __post_init__(self) -> None:
        if not self.node_counts or min(self.node_counts) < 2:
            raise ValueError("node counts must all be at least 2")
        if self.reads_per_share < 1:
            raise ValueError("each share needs at least one read")
        # Sweep smallest to largest so the first point is the baseline
        # and the last cluster hosts the hop-count profile.
        self.node_counts = tuple(sorted(set(self.node_counts)))


def _cluster_config(config: ClusterScalingConfig, num_nodes: int) -> ClusterConfig:
    """Fleet shape for one sweep point (pair baseline at two nodes)."""
    if num_nodes == 2:
        return ClusterConfig(num_nodes=2, topology="direct_pair",
                             policy=config.policy)
    return ClusterConfig(num_nodes=num_nodes, topology="fat_tree",
                         leaf_radix=config.leaf_radix,
                         num_spines=config.num_spines,
                         policy=config.policy)


def run_fig_cluster_scaling(config: Optional[ClusterScalingConfig] = None
                            ) -> FigureReport:
    """Sweep node counts and report per-share latency/throughput."""
    config = config or ClusterScalingConfig()
    cache = ClusterLatencyCache()

    latency_ns: Dict[str, float] = {}
    latency_degradation: Dict[str, float] = {}
    throughput_gbps: Dict[str, float] = {}
    throughput_degradation: Dict[str, float] = {}
    mean_link_hops: Dict[str, float] = {}
    largest_cluster: Optional[Cluster] = None

    for num_nodes in config.node_counts:
        cluster = Cluster(_cluster_config(config, num_nodes),
                          latency_cache=cache)
        shares = cluster.matchmaker.provision_fleet(
            memory_bytes_per_node=config.borrow_bytes)

        reads = []
        for share in shares:
            reads.extend(share.channel.read_latency_ns(config.read_bytes)
                         for _ in range(config.reads_per_share))
        bulk = [
            config.bulk_bytes * 8
            / cluster.rdma_channel(share.requester, share.donor)
                     .transfer_latency_ns(config.bulk_bytes)
            for share in shares
        ]

        label = f"{num_nodes}_nodes"
        latency_ns[label] = statistics.mean(reads)
        throughput_gbps[label] = statistics.mean(bulk)
        mean_link_hops[label] = statistics.mean(s.link_hops for s in shares)
        largest_cluster = cluster

    baseline_label = f"{config.node_counts[0]}_nodes"
    for label in latency_ns:
        latency_degradation[label] = (
            100.0 * (latency_ns[label] / latency_ns[baseline_label] - 1.0))
        throughput_degradation[label] = (
            100.0 * (1.0 - throughput_gbps[label] / throughput_gbps[baseline_label]))

    # Remote-read latency as a function of hop count, measured on the
    # largest cluster: group every route from node 0 by its link count.
    by_hops: Dict[int, list] = {}
    for dst in largest_cluster.node_ids[1:]:
        hops = largest_cluster.topology.hop_count(0, dst)
        by_hops.setdefault(hops, []).append(
            largest_cluster.remote_read_latency_ns(0, dst, config.read_bytes))
    latency_by_hops = {
        f"{hops}_hops": statistics.mean(values)
        for hops, values in sorted(by_hops.items())
    }

    report = FigureReport(
        figure_id="fig_cluster_scaling",
        title="Per-share remote-memory latency/throughput versus cluster size "
              "(fat-tree fabric, every node borrowing one share)",
        notes="shape target: latency non-decreasing in hop count; the shared "
              "latency cache answers >90% of path queries during the sweep",
    )
    report.add_series("remote_read_latency_ns", latency_ns)
    report.add_series("latency_degradation_percent_vs_baseline", latency_degradation)
    report.add_series("bulk_throughput_gbps", throughput_gbps)
    report.add_series("throughput_degradation_percent_vs_baseline",
                      throughput_degradation)
    report.add_series("mean_link_hops", mean_link_hops)
    report.add_series("remote_read_latency_ns_by_hops", latency_by_hops)
    report.add_series("latency_cache", {
        "hit_rate_percent": 100.0 * cache.hit_rate,
        "lookups": float(cache.lookups),
        "entries": float(len(cache)),
    })
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig_cluster_scaling().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
