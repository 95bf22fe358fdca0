"""Fabric path description used by every transport channel.

A :class:`FabricPath` captures everything that determines the latency
and bandwidth of one requester-to-donor route:

* the per-hop physical link parameters and embedded-switch forwarding
  latency;
* the number of hops (1 for directly connected neighbours, more across
  the mesh);
* whether the transport-channel interface logic is integrated on-chip
  or sits off-chip behind I/O buses and adapters (the Figure 5 knob);
* zero or more external routers on the path (one is the Figure 6 knob;
  multi-router fat-tree routes cross several).

Channels use the closed-form latency queries for their per-operation
costs; contention-sensitive experiments additionally run packets
through the event-driven fabric components.  Cluster-scale sweeps reuse
the same closed forms through :class:`CachedFabricPath`, which memoizes
them per (route shape, size class) in a shared cache so N-node
experiments do not recompute identical latencies per access.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.config import ChannelPlacement, FabricConfig
from repro.fabric.packet import HEADER_BYTES
from repro.fabric.phy import RouterConfig

#: Smallest payload size class used by the latency memoization.
_MIN_SIZE_CLASS = 8


def size_class(payload_bytes: int) -> int:
    """Round a payload size up to its power-of-two size class.

    Memoized latencies are computed at the class-representative size, so
    all payloads in one class share one cached result.  The rounding is
    conservative (never under-reports) but coarse: a payload just past a
    boundary is charged as the next power of two, up to 2x its own
    serialization cost.  Attach a cache only where size-class accuracy
    is acceptable -- the cluster sweeps use power-of-two payloads, where
    the rounding is exact.
    """
    if payload_bytes < 0:
        raise ValueError(f"payload size must be non-negative, got {payload_bytes}")
    cls = _MIN_SIZE_CLASS
    while cls < payload_bytes:
        cls <<= 1
    return cls


@dataclass
class FabricPath:
    """Latency/bandwidth model of one route through the Venice fabric."""

    fabric: FabricConfig = field(default_factory=FabricConfig)
    hops: int = 1
    placement: ChannelPlacement = ChannelPlacement.ON_CHIP
    external_router: Optional[RouterConfig] = None
    #: How many external routers of that configuration the route crosses
    #: (1 for the Figure 6 setup; fat-tree routes cross up to three).
    external_router_count: int = 1

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError("a fabric path needs at least one hop")
        if self.external_router_count < 1:
            raise ValueError("a routed path crosses at least one router")

    # ------------------------------------------------------------------
    # Component latencies
    # ------------------------------------------------------------------
    @property
    def endpoint_overhead_ns(self) -> int:
        """Extra latency paid at each endpoint when the logic is off-chip."""
        if self.placement is ChannelPlacement.OFF_CHIP:
            return self.fabric.off_chip_adapter_ns
        return 0

    def serialization_ns(self, payload_bytes: int) -> int:
        """Time to clock one packet of ``payload_bytes`` onto a link."""
        return self.fabric.link.serialization_ns(payload_bytes + HEADER_BYTES)

    def one_way_latency_ns(self, payload_bytes: int) -> int:
        """Uncontended one-way latency for a packet of ``payload_bytes``."""
        per_hop = (self.fabric.link.packet_latency_ns(payload_bytes + HEADER_BYTES)
                   + self.fabric.switch.forwarding_latency_ns)
        latency = per_hop * self.hops
        # Off-chip interface logic is crossed on the way out of the
        # source and into the destination.
        latency += 2 * self.endpoint_overhead_ns
        if self.external_router is not None:
            per_router = (self.external_router.forwarding_latency_ns
                          + self.external_router.link.packet_latency_ns(
                              payload_bytes + HEADER_BYTES))
            latency += per_router * self.external_router_count
        return latency

    def round_trip_latency_ns(self, request_bytes: int, response_bytes: int) -> int:
        """Uncontended request/response latency."""
        return (self.one_way_latency_ns(request_bytes)
                + self.one_way_latency_ns(response_bytes))

    # ------------------------------------------------------------------
    # Bandwidth
    # ------------------------------------------------------------------
    @property
    def link_bandwidth_gbps(self) -> float:
        """Raw bandwidth of one lane of the path."""
        return self.fabric.link.bandwidth_gbps

    def packet_occupancy_ns(self, payload_bytes: int) -> int:
        """Link occupancy of one packet (limits pipelined throughput)."""
        return self.serialization_ns(payload_bytes)

    def streaming_bandwidth_gbps(self, payload_bytes: int,
                                 per_packet_overhead_ns: float = 0.0) -> float:
        """Sustained goodput when packets of ``payload_bytes`` are pipelined."""
        per_packet_ns = self.packet_occupancy_ns(payload_bytes) + per_packet_overhead_ns
        if per_packet_ns <= 0:
            return 0.0
        return payload_bytes * 8 / per_packet_ns

    # ------------------------------------------------------------------
    # Derived variants
    # ------------------------------------------------------------------
    def with_router(self, router: RouterConfig,
                    count: int = 1) -> "FabricPath":
        """Copy of this path with ``count`` external routers inserted.

        Variants are built with :func:`dataclasses.replace`, so a
        :class:`CachedFabricPath` keeps its type and shared cache.
        """
        return replace(self,
                       external_router=router,
                       external_router_count=count)

    def with_placement(self, placement: ChannelPlacement) -> "FabricPath":
        """Copy of this path with different interface-logic placement."""
        return replace(self, placement=placement)

    def with_hops(self, hops: int) -> "FabricPath":
        """Copy of this path with a different hop count."""
        return replace(self, hops=hops)


@dataclass
class CachedFabricPath(FabricPath):
    """Fabric path whose closed-form queries go through a shared cache.

    The cache key is purely structural -- hop count, placement, router
    crossings, and the latency-relevant link/switch parameters -- so one
    cache can be shared by every path of a cluster (and across clusters
    of different sizes): routes with the same shape hit the same entry.
    Latencies are computed at the :func:`size_class` representative, so
    each (shape, size-class) pair is computed exactly once.
    """

    #: Shared memo store; duck-typed so the cluster layer can supply its
    #: instrumented :class:`~repro.cluster.latency_cache.ClusterLatencyCache`.
    cache: Optional[object] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        # The path is immutable in practice; computing the shape key
        # once keeps cache hits cheaper than the closed forms they skip.
        self._shape_key_cache: Optional[Tuple] = None

    def _shape_key(self) -> Tuple:
        if self._shape_key_cache is None:
            self._shape_key_cache = self._compute_shape_key()
        return self._shape_key_cache

    def _compute_shape_key(self) -> Tuple:
        link = self.fabric.link
        router = self.external_router
        return (
            self.hops,
            self.placement.value,
            link.bandwidth_gbps, link.phy_latency_ns, link.extra_delay_ns,
            self.fabric.switch.forwarding_latency_ns,
            self.fabric.off_chip_adapter_ns,
            None if router is None else (
                self.external_router_count,
                router.forwarding_latency_ns,
                router.link.bandwidth_gbps,
                router.link.phy_latency_ns,
                router.link.extra_delay_ns,
            ),
        )

    def _memoized(self, kind: str, payload_bytes: int, compute) -> int:
        if self.cache is None:
            return compute(payload_bytes)
        cls = size_class(payload_bytes)
        return self.cache.lookup((kind, cls) + self._shape_key(),
                                 lambda: compute(cls))

    def one_way_latency_ns(self, payload_bytes: int) -> int:
        return self._memoized(
            "one_way", payload_bytes,
            lambda size: FabricPath.one_way_latency_ns(self, size))

    def serialization_ns(self, payload_bytes: int) -> int:
        return self._memoized(
            "serialization", payload_bytes,
            lambda size: FabricPath.serialization_ns(self, size))
