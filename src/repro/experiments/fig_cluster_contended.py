"""Cluster sweeps with *real* concurrent workload interference.

The PR 2 ``contention`` sweep measures queueing delay by blasting
injected noise waves at timed probe packets; the contention there is
synthetic cross-traffic.  This experiment instead makes the borrowers
themselves the load: every compute node of an event-backed
:class:`~repro.cluster.Cluster` borrows remote memory through the
batched matchmaker (:meth:`~repro.cluster.matchmaker.Matchmaker
.borrow_many`), and then all borrowers issue CRMA reads on their shares
*concurrently* -- submitted as :class:`~repro.core.channels.backend
.PendingOp` handles and driven together through one
:meth:`~repro.core.channels.backend.EventTransport.drive_all` call per
wave -- so every measured packet queues behind other borrowers' measured
packets on the shared fleet fabric.

Each node count is also run through the *serialized* driver (the
pre-refactor behaviour: each op runs to completion before the next is
submitted, so ops never coexist on the fabric).  Two quantities fall
out per cluster size:

* ``per_borrower_slowdown`` -- mean concurrent op latency over mean
  serialized op latency.  Any value above 1.0 is interference between
  *measured* ops, which the serialized driver cannot produce by
  construction.
* ``overlap_speedup`` -- serialized span over concurrent makespan: how
  much sim time overlapping the same op budget saves.  With N
  borrowers on mostly disjoint routes this approaches N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import FigureReport
from repro.cluster.cluster import Cluster, ClusterConfig

#: Bytes of remote memory each borrower requests (small: the sweep
#: measures transport interference, not capacity pressure).
_MEMORY_PER_BORROWER = 1 << 20


@dataclass
class ClusterContendedConfig:
    """Sweep parameters (node counts 2 -> 16 by default)."""

    node_counts: Tuple[int, ...] = (2, 4, 8, 16)
    #: "fat_tree" or "star"; the 2-node point is always the direct pair.
    topology: str = "fat_tree"
    #: Compute nodes per fat-tree leaf router.
    leaf_radix: int = 4
    #: Spine routers joining the leaves (fat-tree only).
    num_spines: int = 2
    #: CRMA read payload (one cacheline).
    read_bytes: int = 64
    #: Concurrent read waves issued per borrower share.
    reads_per_borrower: int = 8
    #: Remote memory each borrower requests.
    memory_per_borrower: int = _MEMORY_PER_BORROWER

    def __post_init__(self) -> None:
        if not self.node_counts or min(self.node_counts) < 2:
            raise ValueError("node counts must all be at least 2")
        if self.topology not in ("fat_tree", "star"):
            raise ValueError(
                f"unsupported contended topology {self.topology!r}")
        if self.reads_per_borrower < 1:
            raise ValueError("each borrower needs at least one read")
        self.node_counts = tuple(sorted(set(self.node_counts)))


def _cluster_config(config: ClusterContendedConfig,
                    num_nodes: int) -> ClusterConfig:
    if num_nodes == 2:
        return ClusterConfig(num_nodes=2, topology="direct_pair",
                             transport_backend="event")
    return ClusterConfig(num_nodes=num_nodes, topology=config.topology,
                         leaf_radix=config.leaf_radix,
                         num_spines=config.num_spines,
                         transport_backend="event")


def _provision(cluster: Cluster, config: ClusterContendedConfig):
    """Every compute node borrows memory through the batched matchmaker."""
    requests = [(node, config.memory_per_borrower)
                for node in cluster.node_ids]
    batches = cluster.matchmaker.borrow_many(requests)
    return [share for batch in batches for share in batch]


def _run_concurrent(config: ClusterContendedConfig,
                    num_nodes: int) -> Dict[str, float]:
    """All borrowers' reads per wave submitted together, driven together."""
    cluster = Cluster(_cluster_config(config, num_nodes))
    shares = _provision(cluster, config)
    transport = cluster.event_transport()
    latencies: Dict[object, List[int]] = {share: [] for share in shares}
    for _wave in range(config.reads_per_borrower):
        ops = [(share, share.channel.submit_read(config.read_bytes))
               for share in shares]
        transport.drive_all([op for _share, op in ops])
        for share, op in ops:
            latencies[share].append(op.latency_ns)
    per_share_mean = {share: sum(values) / len(values)
                      for share, values in latencies.items()}
    hottest = max(link.busy_fraction()
                  for link in transport.fabric.links.values())
    return {
        "per_share_mean_ns": per_share_mean,
        "makespan_ns": float(transport.sim.now),
        "events": float(transport.sim.events_processed),
        "hottest_link_busy": hottest,
    }


def _run_serialized(config: ClusterContendedConfig,
                    num_nodes: int) -> Dict[str, float]:
    """Same op budget, pre-refactor driving: one op at a time."""
    cluster = Cluster(_cluster_config(config, num_nodes))
    shares = _provision(cluster, config)
    transport = cluster.event_transport()
    per_share_mean: Dict[object, float] = {}
    for share in shares:
        values = [share.channel.read_latency_ns(config.read_bytes)
                  for _ in range(config.reads_per_borrower)]
        per_share_mean[share] = sum(values) / len(values)
    return {
        "per_share_mean_ns": per_share_mean,
        "span_ns": float(transport.sim.now),
        "events": float(transport.sim.events_processed),
    }


def run_fig_cluster_contended(
        config: Optional[ClusterContendedConfig] = None) -> FigureReport:
    """Sweep node counts; report overlap speedup and borrower slowdown."""
    config = config or ClusterContendedConfig()

    serialized_ns: Dict[str, float] = {}
    concurrent_ns: Dict[str, float] = {}
    slowdown: Dict[str, float] = {}
    overlap_speedup: Dict[str, float] = {}
    busy_pct: Dict[str, float] = {}
    events: Dict[str, float] = {}

    for num_nodes in config.node_counts:
        label = f"{num_nodes}_nodes"
        concurrent = _run_concurrent(config, num_nodes)
        serialized = _run_serialized(config, num_nodes)

        # The two runs are built identically (same borrow batch, same
        # donors), so their share lists align pairwise in creation
        # order: slowdown is a per-borrower-share ratio, then averaged.
        concurrent_means = list(concurrent["per_share_mean_ns"].values())
        serialized_means = list(serialized["per_share_mean_ns"].values())
        ratios = [conc / ser for conc, ser
                  in zip(concurrent_means, serialized_means)]

        serialized_ns[label] = sum(serialized_means) / len(serialized_means)
        concurrent_ns[label] = sum(concurrent_means) / len(concurrent_means)
        slowdown[label] = sum(ratios) / len(ratios)
        overlap_speedup[label] = (serialized["span_ns"]
                                  / concurrent["makespan_ns"])
        busy_pct[label] = 100.0 * concurrent["hottest_link_busy"]
        events[label] = concurrent["events"] + serialized["events"]

    report = FigureReport(
        figure_id="fig_cluster_contended",
        title="Concurrent borrowers on the shared fleet fabric versus the "
              f"serialized op driver ({config.topology}, "
              f"{config.reads_per_borrower} reads/borrower, "
              "2-node pair baseline)",
        notes="shape target: overlap_speedup grows towards the borrower "
              "count (submitted ops share sim time) while "
              "per_borrower_slowdown rises above 1.0 wherever borrowers' "
              "measured packets queue behind each other -- interference "
              "the one-op-at-a-time driver cannot produce",
    )
    report.add_series("serialized_read_ns", serialized_ns)
    report.add_series("concurrent_read_ns", concurrent_ns)
    report.add_series("per_borrower_slowdown", slowdown)
    report.add_series("overlap_speedup", overlap_speedup)
    report.add_series("hottest_link_busy_percent", busy_pct)
    report.add_series("events_processed", events)
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig_cluster_contended().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
