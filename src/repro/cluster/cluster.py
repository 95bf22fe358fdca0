"""N-node cluster over a configurable fabric topology.

The seed experiments hard-wire a requester/donor pair over a single
link or one external router.  :class:`Cluster` scales that setup to a
fleet: it instantiates a :class:`~repro.core.system.VeniceSystem` over
a configurable topology (point-to-point pair, single-external-router
star, multi-router fat-tree, or the prototype's 3D mesh), shares one
:class:`~repro.cluster.latency_cache.ClusterLatencyCache` across every
transport channel, and exposes a borrower/donor
:class:`~repro.cluster.matchmaker.Matchmaker` that assigns
remote-memory, remote-NIC and remote-accelerator shares across the
fleet through the Monitor-Node runtime.

Routes are described by :class:`~repro.core.channels.path.CachedFabricPath`
instances whose hop count and external-router crossings come from the
topology: a same-leaf fat-tree route crosses one router, a cross-leaf
route crosses three, and every crossing pays the external router's
forwarding latency plus its short-link traversal (the Figure 6 model,
generalised to multi-router paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.latency_cache import ClusterLatencyCache
from repro.cluster.matchmaker import Matchmaker
from repro.core.channels.backend import CrossTrafficDriver, EventTransport
from repro.core.channels.crma import CrmaChannel
from repro.core.channels.path import CachedFabricPath
from repro.core.channels.qpair import QPairChannel
from repro.core.channels.rdma import RdmaChannel
from repro.core.config import ChannelPlacement, VeniceConfig
from repro.core.node import VeniceNode
from repro.core.system import VeniceSystem
from repro.fabric.phy import RouterConfig
from repro.fabric.topology import Topology
from repro.runtime.monitor import MonitorNode
from repro.runtime.policies import (
    ContentionAwarePolicy,
    FabricContentionTelemetry,
    make_policy,
)
from repro.runtime.shard import ShardedMonitor


@dataclass
class ClusterConfig:
    """Shape and policy of one cluster instance.

    Channel, fabric and per-node parameters stay at the Table 1
    defaults of :class:`~repro.core.config.VeniceConfig`; the cluster
    adds the fleet-level knobs.
    """

    num_nodes: int = 8
    #: "direct_pair" | "star" | "fat_tree" | "mesh3d"
    topology: str = "fat_tree"
    #: Compute nodes per leaf router (fat-tree only).
    leaf_radix: int = 4
    #: Spine routers joining the leaves (fat-tree only).
    num_spines: int = 2
    #: Mesh dimensions (mesh3d only); must multiply to ``num_nodes``.
    mesh_dims: Tuple[int, int, int] = (2, 2, 2)
    #: Transport-channel interface-logic placement for every route.
    placement: ChannelPlacement = ChannelPlacement.ON_CHIP
    #: Donor-selection policy name (see :data:`repro.runtime.policies.POLICIES`).
    policy: str = "distance-first"
    #: Run the Monitor Node sharded: partition the RRT/RAT/TST by
    #: fat-tree leaf into this many replicated shards behind a
    #: coordinator (see :mod:`repro.runtime.shard`).  ``None`` keeps
    #: the single-instance MonitorNode; values above the leaf count
    #: are clamped.
    monitor_shards: Optional[int] = None
    #: External-router model paid once per router crossed on a route.
    router: RouterConfig = field(default_factory=RouterConfig)
    #: How the cluster's channels cost operations: "closed_form" keeps
    #: the cached closed-form sweeps; "event" runs every operation as
    #: packets over the system's shared event fabric.
    transport_backend: str = "closed_form"
    #: Runtime sanitizer for the shared simulator (event backend only):
    #: True/False force it, None defers to ``SIM_SANITIZE``.
    sanitize: Optional[bool] = None

    def venice(self) -> VeniceConfig:
        """The equivalent whole-system configuration."""
        return VeniceConfig(
            num_nodes=self.num_nodes,
            topology=self.topology,
            mesh_dims=self.mesh_dims,
            fat_tree_leaf_radix=self.leaf_radix,
            fat_tree_spines=self.num_spines,
        )


class Cluster:
    """A fleet of Venice nodes with shared-latency fast paths."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 latency_cache: Optional[ClusterLatencyCache] = None):
        self.config = config or ClusterConfig()
        self.venice = self.config.venice()
        self.system = VeniceSystem.build(
            self.venice,
            transport_backend=self.config.transport_backend,
            sanitize=self.config.sanitize)
        if self.config.monitor_shards is not None:
            # Swap the single-instance MN for the sharded, replicated
            # one before any allocation state exists; every runtime
            # caller goes through the same facade API.
            sharded = ShardedMonitor(self.system.topology,
                                     num_shards=self.config.monitor_shards)
            for node_id in self.system.node_ids:
                sharded.register_agent(self.system.node(node_id).agent)
            self.system.monitor = sharded
        self.system.monitor.policy = make_policy(self.config.policy)
        #: Shared by every path of this cluster; pass one cache to
        #: several clusters to share latencies across a sweep.  (An
        #: empty cache has len() == 0 and is falsy, so test for None.)
        self.latency_cache = (latency_cache if latency_cache is not None
                              else ClusterLatencyCache())
        #: (src, dst) -> CachedFabricPath.  Paths are immutable shape
        #: descriptors over a topology that is fixed once the cluster is
        #: built, and the sharded-MN hot path builds a channel (hence a
        #: path) per allocation -- memoizing skips the per-allocation
        #: route-shape query and dataclass rebuilds.
        self._paths: Dict[Tuple[int, int], CachedFabricPath] = {}  # simlint: disable=SIM006 -- bounded by node pairs, not traffic
        self.matchmaker = Matchmaker(self)

    # ------------------------------------------------------------------
    # Fleet-wide event transport (event backend only)
    # ------------------------------------------------------------------
    @property
    def event_backed(self) -> bool:
        """True when this cluster's channels measure ops as packets."""
        return self.config.transport_backend == "event"

    def event_transport(self) -> EventTransport:
        """The fleet-wide event-fabric executor every channel shares.

        Built lazily over the cluster's *full* topology (leaves, spines,
        hubs and all): one simulator and one fabric serve every
        per-route :class:`~repro.core.channels.backend.EventBackend`
        this cluster hands out, so concurrent borrowers' measured
        packets genuinely queue behind each other on shared links.
        """
        if not self.event_backed:
            raise ValueError(
                "this cluster costs transport through the closed forms; "
                "build it with ClusterConfig(transport_backend='event') "
                "to get a fleet-wide event transport")
        return self.system.event_transport()

    def cross_traffic(self, flows: Optional[List[Tuple[int, int]]] = None,
                      **kwargs) -> CrossTrafficDriver:
        """Closed-loop background load over the fleet fabric.

        ``flows`` defaults to a ring over the compute nodes, which
        crosses every leaf/hub of the topology so all shared links see
        noise.  Remaining keyword arguments go to
        :class:`~repro.core.channels.backend.CrossTrafficDriver`.
        """
        if flows is None:
            ids = self.node_ids
            flows = [(ids[i], ids[(i + 1) % len(ids)])
                     for i in range(len(ids))]
        return CrossTrafficDriver(self.event_transport(), flows=flows,
                                  **kwargs)

    # ------------------------------------------------------------------
    # Topology / node access
    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        return self.system.topology

    @property
    def monitor(self) -> MonitorNode:
        """The fleet's Monitor Node (a :class:`ShardedMonitor` facade
        when ``monitor_shards`` is configured -- same API)."""
        return self.system.monitor

    def enable_contention_telemetry(
            self, busy_weight: float = 8.0) -> ContentionAwarePolicy:
        """Steer donor selection by *measured* link busy fractions.

        Installs (or re-wires) a
        :class:`~repro.runtime.policies.ContentionAwarePolicy` fed by
        the live event fabric's per-link telemetry.  Event backend
        only: the closed forms have no measured busy fractions.
        """
        telemetry = FabricContentionTelemetry(self.event_transport().fabric)
        policy = self.monitor.policy
        if isinstance(policy, ContentionAwarePolicy):
            policy.telemetry = telemetry
        else:
            policy = ContentionAwarePolicy(telemetry=telemetry,
                                           busy_weight=busy_weight)
            self.monitor.policy = policy
        return policy

    @property
    def nodes(self) -> Dict[int, VeniceNode]:
        return self.system.nodes

    @property
    def node_ids(self) -> List[int]:
        return self.system.node_ids

    def node(self, node_id: int) -> VeniceNode:
        return self.system.node(node_id)

    @property
    def num_nodes(self) -> int:
        return len(self.system.nodes)

    # ------------------------------------------------------------------
    # Cached fabric paths and channels
    # ------------------------------------------------------------------
    def path_between(self, src: int, dst: int) -> CachedFabricPath:
        """Cached, router-aware fabric path between two compute nodes.

        Route shape (hops and router crossings) comes from
        :meth:`VeniceSystem.path_between`; the cluster swaps in its own
        router model and the shared latency cache.  Cached queries are
        answered at :func:`~repro.core.channels.path.size_class`
        granularity -- exact for power-of-two payloads (every channel's
        request/cacheline/chunk size), rounded up otherwise.

        The returned path is memoized per (src, dst) -- callers share
        one object and must treat it as read-only (every consumer in
        the tree does; paths are value descriptors).
        """
        path = self._paths.get((src, dst))
        if path is None:
            base = self.system.path_between(src, dst,
                                            placement=self.config.placement)
            path = self._paths[(src, dst)] = CachedFabricPath(
                fabric=base.fabric,
                hops=base.hops,
                placement=base.placement,
                external_router=(self.config.router
                                 if base.external_router is not None else None),
                external_router_count=base.external_router_count,
                cache=self.latency_cache,
            )
        return path

    def crma_channel(self, recipient: int, donor: int) -> CrmaChannel:
        """CRMA channel from ``recipient`` towards ``donor``'s memory."""
        return self.system.crma_channel(recipient, donor,
                                        path=self.path_between(recipient, donor))

    def rdma_channel(self, recipient: int, donor: int) -> RdmaChannel:
        """RDMA channel from ``recipient`` towards ``donor``'s memory."""
        return self.system.rdma_channel(recipient, donor,
                                        path=self.path_between(recipient, donor))

    def qpair_channel(self, local: int, remote: int) -> QPairChannel:
        """QPair channel between two nodes."""
        return self.system.qpair_channel(local, remote,
                                         path=self.path_between(local, remote))

    def remote_read_latency_ns(self, requester: int, donor: int,
                               size_bytes: int = 64) -> int:
        """Closed-form CRMA read latency between two nodes."""
        return self.crma_channel(requester, donor).read_latency_ns(size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Cluster(nodes={self.num_nodes}, "
                f"topology={self.topology.name!r}, "
                f"policy={self.config.policy!r})")
