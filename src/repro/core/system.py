"""Whole-system composition: nodes + topology + channels + runtime.

:class:`VeniceSystem` is the top of the public API.  It builds the node
set over the configured topology, wires the Monitor-Node runtime, and
hands out transport channels and sharing grants between node pairs.  It
also knows how to construct the event-driven fabric (switches, links,
datalinks with programmed routing tables) for experiments that need to
observe contention rather than just closed-form latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.channels.backend import (
    ClosedFormBackend,
    EventBackend,
    EventTransport,
    TransportBackend,
)
from repro.core.channels.crma import CrmaChannel, CrmaRemoteBackend
from repro.core.channels.path import FabricPath
from repro.core.channels.qpair import QPairChannel
from repro.core.channels.rdma import RdmaChannel, RdmaSwapDevice
from repro.core.config import ChannelPlacement, VeniceConfig
from repro.core.node import VeniceNode
from repro.core.sharing.remote_memory import RemoteMemoryGrant, share_memory, stop_sharing
from repro.fabric.datalink import DataLink
from repro.fabric.network import Switch
from repro.fabric.phy import PhysicalLink, RouterConfig
from repro.fabric.topology import (
    Topology,
    build_direct_pair,
    build_fat_tree,
    build_mesh3d,
    build_star,
    dimension_order_route,
)
from repro.runtime.monitor import Allocation, MonitorNode
from repro.sim.engine import Simulator


@dataclass
class EventFabric:
    """Handles to the event-driven fabric built by ``build_event_fabric``."""

    sim: Simulator
    switches: Dict[int, Switch]
    links: Dict[Tuple[int, int], PhysicalLink]
    datalinks: Dict[Tuple[int, int], DataLink]


class VeniceSystem:
    """A rack of Venice nodes plus the Monitor-Node runtime.

    ``transport_backend`` selects how the system's channels cost their
    operations: ``"closed_form"`` (default -- the uncontended formulas
    every seed experiment and the cached cluster sweeps use) or
    ``"event"`` (each operation runs as credit-flow-controlled packets
    over one shared event-driven fabric; all channels of the system
    contend on the same :class:`~repro.sim.engine.Simulator`).
    """

    def __init__(self, config: VeniceConfig, topology: Topology,
                 nodes: Dict[int, VeniceNode], monitor: MonitorNode,
                 transport_backend: str = "closed_form",
                 sanitize: Optional[bool] = None):
        if transport_backend not in ("closed_form", "event"):
            raise ValueError(
                f"unknown transport backend {transport_backend!r}; "
                "choose 'closed_form' or 'event'")
        self.config = config
        self.topology = topology
        self.nodes = nodes
        self.monitor = monitor
        self.transport_backend = transport_backend
        #: ``None`` defers to the ``SIM_SANITIZE`` environment variable
        #: when the system builds its simulators.
        self.sanitize = sanitize
        self.grants: List[RemoteMemoryGrant] = []
        #: Lazily built shared event executor (event backend only).
        self._event_transport: Optional[EventTransport] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, config: Optional[VeniceConfig] = None,
              transport_backend: str = "closed_form",
              sanitize: Optional[bool] = None) -> "VeniceSystem":
        """Build a system from a configuration (Table 1 defaults)."""
        config = config or VeniceConfig()
        topology = cls._build_topology(config)
        nodes = {
            node_id: VeniceNode(node_id, config.node,
                                neighbors=tuple(topology.neighbors(node_id)))
            for node_id in topology.compute_nodes
        }
        monitor = MonitorNode(topology)
        for node_id in sorted(nodes):
            monitor.register_agent(nodes[node_id].agent)
        return cls(config=config, topology=topology, nodes=nodes,
                   monitor=monitor, transport_backend=transport_backend,
                   sanitize=sanitize)

    @staticmethod
    def _build_topology(config: VeniceConfig) -> Topology:
        if config.topology == "mesh3d":
            topology = build_mesh3d(config.mesh_dims)
        elif config.topology == "direct_pair":
            topology = build_direct_pair()
        elif config.topology == "fat_tree":
            topology = build_fat_tree(config.num_nodes,
                                      leaf_radix=config.fat_tree_leaf_radix,
                                      num_spines=config.fat_tree_spines)
        else:
            topology = build_star(config.num_nodes)
        topology.validate()
        return topology

    # ------------------------------------------------------------------
    # Node / path access
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> VeniceNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} does not exist in this system") from None

    @property
    def node_ids(self) -> List[int]:
        return sorted(self.nodes)

    def path_between(self, src: int, dst: int,
                     placement: Optional[ChannelPlacement] = None,
                     through_router: bool = False) -> FabricPath:
        """Fabric path description between two compute nodes.

        Router nodes on the topology's shortest path (star hubs,
        fat-tree leaves and spines) are charged as external-router
        crossings; the remaining node-level links are the path's hops.
        ``through_router`` inserts one additional external router on top
        (the Figure 6 knob).
        """
        if src == dst:
            raise ValueError("a fabric path requires two distinct nodes")
        links, crossings = self.topology.route_shape(src, dst)
        path = FabricPath(
            fabric=self.config.fabric,
            hops=max(1, links - crossings),
            placement=placement or ChannelPlacement.ON_CHIP,
        )
        total_routers = crossings + (1 if through_router else 0)
        if total_routers:
            path = path.with_router(RouterConfig(), count=total_routers)
        return path

    # ------------------------------------------------------------------
    # Transport backend
    # ------------------------------------------------------------------
    def event_transport(self) -> EventTransport:
        """The system's shared event-fabric executor (built on first use).

        One simulator and one fabric serve every event-backed channel of
        this system, so their packets -- and any registered cross-traffic
        -- contend on the same links and switches.
        """
        if self._event_transport is None:
            fabric = self.build_event_fabric(
                sim=Simulator(sanitize=self.sanitize))
            self._event_transport = EventTransport(fabric)
        return self._event_transport

    def channel_backend(self, src: int, dst: int,
                        path: FabricPath) -> TransportBackend:
        """Transport backend for a channel between two compute nodes."""
        if self.transport_backend == "event":
            return EventBackend(self.event_transport(), src=src, dst=dst,
                                path=path)
        return ClosedFormBackend(path)

    # ------------------------------------------------------------------
    # Channels
    # ------------------------------------------------------------------
    def crma_channel(self, recipient: int, donor: int,
                     placement: Optional[ChannelPlacement] = None,
                     through_router: bool = False,
                     path: Optional[FabricPath] = None) -> CrmaChannel:
        """CRMA channel from ``recipient`` towards ``donor``'s memory."""
        path = path or self.path_between(recipient, donor, placement, through_router)
        return CrmaChannel(config=self.config.crma, path=path,
                           donor_dram=self.node(donor).dram,
                           name=f"crma{recipient}->{donor}",
                           backend=self.channel_backend(recipient, donor, path))

    def rdma_channel(self, recipient: int, donor: int,
                     placement: Optional[ChannelPlacement] = None,
                     through_router: bool = False,
                     path: Optional[FabricPath] = None) -> RdmaChannel:
        """RDMA channel from ``recipient`` towards ``donor``'s memory."""
        path = path or self.path_between(recipient, donor, placement, through_router)
        return RdmaChannel(config=self.config.rdma, path=path,
                           donor_dram=self.node(donor).dram,
                           name=f"rdma{recipient}->{donor}",
                           backend=self.channel_backend(recipient, donor, path))

    def qpair_channel(self, local: int, remote: int,
                      placement: Optional[ChannelPlacement] = None,
                      through_router: bool = False,
                      path: Optional[FabricPath] = None) -> QPairChannel:
        """QPair channel between two nodes."""
        path = path or self.path_between(local, remote, placement, through_router)
        return QPairChannel(config=self.config.qpair, path=path,
                            name=f"qpair{local}<->{remote}",
                            backend=self.channel_backend(local, remote, path))

    # ------------------------------------------------------------------
    # Memory sharing front door
    # ------------------------------------------------------------------
    def request_remote_memory(self, requester: int, size_bytes: int,
                              channel_factory=None, donor: Optional[int] = None
                              ) -> Tuple[Allocation, RemoteMemoryGrant]:
        """Full Figure 2 flow: MN allocation + hot-remove/hot-plug + RAMT.

        ``channel_factory`` (donor id -> :class:`CrmaChannel`) lets
        callers such as the cluster matchmaker supply channels over their
        own paths; the donor is only known after the MN picks it.
        ``donor`` pins the MN's choice (the matchmaker's spill path).
        """
        allocation = self.monitor.request_memory(requester, size_bytes,
                                                 donor=donor)
        if channel_factory is not None:
            channel = channel_factory(allocation.donor)
        else:
            channel = self.crma_channel(recipient=requester, donor=allocation.donor)
        grant = share_memory(
            donor_map=self.node(allocation.donor).memory_map,
            recipient_map=self.node(requester).memory_map,
            size=size_bytes,
            channel=channel,
        )
        self.grants.append(grant)
        return allocation, grant

    def release_remote_memory(self, allocation: Allocation,
                              grant: RemoteMemoryGrant) -> None:
        """Tear down a sharing relationship and notify the runtime."""
        stop_sharing(grant, donor_map=self.node(grant.donor_node).memory_map,
                     recipient_map=self.node(grant.recipient_node).memory_map)
        self.monitor.release(allocation)
        self.grants.remove(grant)

    def remote_backend_for(self, grant: RemoteMemoryGrant) -> CrmaRemoteBackend:
        """Remote-memory backend serving a grant's hot-plugged region."""
        return CrmaRemoteBackend(grant.channel)

    def swap_device_between(self, recipient: int, donor: int) -> RdmaSwapDevice:
        """Remote memory on ``donor`` exposed as an RDMA-backed swap device."""
        return RdmaSwapDevice(self.rdma_channel(recipient, donor))

    # ------------------------------------------------------------------
    # Event-driven fabric (for contention/integration experiments)
    # ------------------------------------------------------------------
    def build_event_fabric(self, sim: Optional[Simulator] = None) -> EventFabric:
        """Instantiate switches, links and datalinks over the topology.

        Routing tables are programmed with dimension-order routes (falling
        back to shortest paths off-mesh).  Router nodes of star/fat-tree
        topologies get switches too, so packets relay through them; only
        compute nodes are routing destinations.  The local sink of every
        switch is left unconnected; callers attach their own packet
        consumers.
        """
        # Simulator defines __len__, so an idle simulator is falsy --
        # test for None, never truthiness.
        if sim is None:
            sim = Simulator(sanitize=self.sanitize)
        # Router nodes (star hubs, fat-tree leaves/spines) can have more
        # neighbours than the compute nodes' embedded radix-7 switch; give
        # every switch enough ports for its topology degree + local ejection.
        base_switch = self.config.fabric.switch
        switches: Dict[int, Switch] = {}
        for node_id in self.topology.nodes:
            degree = self.topology.graph.degree(node_id)
            if degree + 1 > base_switch.radix:
                switch_config = replace(base_switch, radix=degree + 1)
            else:
                switch_config = base_switch
            switches[node_id] = Switch(sim, node_id, switch_config)
        links: Dict[Tuple[int, int], PhysicalLink] = {}
        datalinks: Dict[Tuple[int, int], DataLink] = {}
        port_counters = {node_id: 1 for node_id in switches}  # port 0 = local
        for node_a, node_b in self.topology.links:
            for src, dst in ((node_a, node_b), (node_b, node_a)):
                link = PhysicalLink(sim, self.config.fabric.link,
                                    name=f"link{src}->{dst}")
                datalink = DataLink(sim, link, self.config.fabric.datalink,
                                    name=f"dl{src}->{dst}")
                datalink.connect(switches[dst].inject)
                links[(src, dst)] = link
                datalinks[(src, dst)] = datalink
                port = port_counters[src]
                port_counters[src] += 1
                switches[src].attach_output(port, datalink)
                # Program routes through this port for every destination
                # whose dimension-order path leaves ``src`` towards ``dst``.
                for destination in self.topology.compute_nodes:
                    if destination == src:
                        continue
                    route = dimension_order_route(self.topology, src, destination)
                    if len(route) > 1 and route[1] == dst:
                        switches[src].routing_table.install(destination, port)
        return EventFabric(sim=sim, switches=switches, links=links, datalinks=datalinks)
