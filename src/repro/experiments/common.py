"""Shared plumbing for the experiment drivers.

Experiments repeatedly need "a core whose memory is supplied in one of
the paper's ways": all local, partially remote via CRMA, partially
remote via a swap device (local disk, commodity interconnect, or Venice
RDMA), or remote via explicit QPair messaging.  The builders here
assemble those memory hierarchies from the substrate pieces so the
per-figure drivers stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.channels.backend import (
    CrossTrafficDriver,
    EventBackend,
    EventTransport,
    TransportBackend,
)
from repro.core.channels.crma import CrmaChannel, CrmaRemoteBackend
from repro.core.channels.path import FabricPath
from repro.core.channels.qpair import QPairChannel, QPairRemoteMemoryBackend
from repro.core.channels.rdma import RdmaChannel, RdmaSwapDevice
from repro.core.config import ChannelPlacement, VeniceConfig
from repro.cpu.core import CpuConfig, TimingCore
from repro.cpu.hierarchy import MemoryHierarchy, RemoteMemoryBackend
from repro.fabric.phy import RouterConfig
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import Dram, DramConfig
from repro.mem.memory_map import PhysicalMemoryMap
from repro.mem.swap import SwapConfig, SwapDevice, SwapManager
from repro.workloads.base import Workload, WorkloadResult

#: Address-space slack reserved above the dataset so writebacks of the
#: top-most cache lines still fall inside visible memory.
_SLACK_BYTES = 1 << 20


def compare_transport_backends(runner, config, cross_traffic: bool = True,
                               cross_payload_bytes: int = 1024,
                               cross_window: int = 2,
                               cross_turnaround_ns: int = 0):
    """Run one figure driver on both transport backends.

    The shared harness behind the ``*_contended`` experiments: the same
    ``runner(config, platform)`` executes once on a closed-form platform
    and once on an event platform (optionally under cross-traffic), so
    the two reports differ only in how channel operations were costed.
    Returns ``(closed_report, event_report, event_platform, driver)``.
    """
    closed = runner(config, ExperimentPlatform())
    event_platform = ExperimentPlatform(backend="event")
    driver = None
    if cross_traffic:
        driver = event_platform.start_cross_traffic(
            payload_bytes=cross_payload_bytes, window=cross_window,
            turnaround_ns=cross_turnaround_ns)
    event = runner(config, event_platform)
    return closed, event, event_platform, driver


def series_relative_deviations(closed_report, event_report,
                               series_names=None):
    """Per-label relative deviations of event results from closed forms."""
    deviations = []
    for name in (series_names if series_names is not None
                 else closed_report.series):
        for label, closed_value in closed_report.series[name].items():
            if closed_value > 0:
                deviations.append(
                    abs(event_report.series[name][label] - closed_value)
                    / closed_value)
    return deviations


@dataclass
class ExperimentPlatform:
    """Per-experiment platform knobs (scaled-down Table 1 node).

    ``backend="event"`` makes every channel the platform hands out run
    its operations as packets over one shared event-driven fabric (a
    direct requester/donor pair, nodes 0 and 1), so operations see
    queueing from each other and from any cross-traffic started with
    :meth:`start_cross_traffic`.  The default ``"closed_form"`` keeps
    the uncontended formulas of the seed experiments.
    """

    venice: VeniceConfig = None
    cache: CacheConfig = None
    cpu: CpuConfig = None
    dram: DramConfig = None
    #: "closed_form" | "event" transport for the platform's channels.
    backend: str = "closed_form"

    def __post_init__(self) -> None:
        self.venice = self.venice or VeniceConfig.pair()
        self.cache = self.cache or CacheConfig()
        self.cpu = self.cpu or CpuConfig()
        self.dram = self.dram or DramConfig()
        if self.backend not in ("closed_form", "event"):
            raise ValueError(f"unknown transport backend {self.backend!r}")
        self._system = None
        self._cross_traffic = None

    # ------------------------------------------------------------------
    # Event-fabric plumbing (event backend only)
    # ------------------------------------------------------------------
    def system(self):
        """The two-node system whose fabric event-backed channels share."""
        if self._system is None:
            from repro.core.system import VeniceSystem

            self._system = VeniceSystem.build(self.venice,
                                              transport_backend=self.backend)
        return self._system

    def event_transport(self) -> EventTransport:
        if self.backend != "event":
            raise ValueError("the closed-form platform has no event transport")
        return self.system().event_transport()

    def start_cross_traffic(self, payload_bytes: int = 256, window: int = 4,
                            turnaround_ns: int = 200) -> CrossTrafficDriver:
        """Contend the pair link: closed-loop flows in both directions.

        Restarting with new parameters stops the previous driver first,
        so exactly one configured load runs at a time.
        """
        if self._cross_traffic is not None:
            self._cross_traffic.stop()
        self._cross_traffic = CrossTrafficDriver(
            self.event_transport(), flows=[(0, 1), (1, 0)],
            payload_bytes=payload_bytes, window=window,
            turnaround_ns=turnaround_ns)
        return self._cross_traffic

    def _backend_for(self, path: FabricPath,
                     through_router: bool) -> Optional[TransportBackend]:
        if self.backend != "event":
            return None  # channels default to ClosedFormBackend(path)
        if through_router or path.placement is not ChannelPlacement.ON_CHIP:
            raise ValueError(
                "the event-backed platform models the on-chip direct pair; "
                "off-chip placement and extra routers are closed-form knobs")
        return EventBackend(self.event_transport(), src=0, dst=1, path=path)

    # ------------------------------------------------------------------
    # Fabric paths and channels between the two nodes of the experiment
    # ------------------------------------------------------------------
    def path(self, placement: ChannelPlacement = ChannelPlacement.ON_CHIP,
             through_router: bool = False, hops: int = 1) -> FabricPath:
        fabric_path = FabricPath(fabric=self.venice.fabric, hops=hops,
                                 placement=placement)
        if through_router:
            fabric_path = fabric_path.with_router(RouterConfig())
        return fabric_path

    def crma_channel(self, placement: ChannelPlacement = ChannelPlacement.ON_CHIP,
                     through_router: bool = False) -> CrmaChannel:
        path = self.path(placement, through_router)
        return CrmaChannel(config=self.venice.crma, path=path,
                           donor_dram=Dram(self.dram),
                           backend=self._backend_for(path, through_router))

    def rdma_channel(self, placement: ChannelPlacement = ChannelPlacement.ON_CHIP,
                     through_router: bool = False) -> RdmaChannel:
        path = self.path(placement, through_router)
        return RdmaChannel(config=self.venice.rdma, path=path,
                           donor_dram=Dram(self.dram),
                           backend=self._backend_for(path, through_router))

    def qpair_channel(self, placement: ChannelPlacement = ChannelPlacement.ON_CHIP,
                      through_router: bool = False) -> QPairChannel:
        path = self.path(placement, through_router)
        return QPairChannel(config=self.venice.qpair, path=path,
                            backend=self._backend_for(path, through_router))

    # ------------------------------------------------------------------
    # Core builders for the paper's memory-supply strategies
    # ------------------------------------------------------------------
    def run_configurations(self, workload: Workload,
                           builders: Sequence[Callable[..., TimingCore]]
                           ) -> List[WorkloadResult]:
        """Run ``workload`` once per memory configuration; one result each.

        Each builder is a core builder of this platform with its
        arguments bound (``functools.partial``), called with
        ``cache=``.  On the closed-form platform the cores are built
        over one shared cache and run as one lockstep group, so the
        workload's stream and its cache simulation run once for all of
        them.  On the event platform every channel drives one shared
        simulator, so interleaving the cores' operations would change
        their timing: each core is built and run on its own, in order.
        """
        if self.backend != "closed_form":
            return [workload.run(build()) for build in builders]
        cache = Cache(self.cache)
        return workload.run_all([build(cache=cache) for build in builders])

    def _core(self, memory_map: PhysicalMemoryMap, cache: Optional[Cache],
              **parts) -> TimingCore:
        hierarchy = MemoryHierarchy(
            memory_map, cache=cache if cache is not None else Cache(self.cache),
            dram=Dram(self.dram), **parts)
        return TimingCore(hierarchy, config=self.cpu)

    def all_local_core(self, dataset_bytes: int,
                       cache: Optional[Cache] = None) -> TimingCore:
        """Ideal configuration: the whole dataset fits in local memory."""
        memory_map = PhysicalMemoryMap(dataset_bytes + _SLACK_BYTES, node_id=0)
        return self._core(memory_map, cache)

    def swap_core(self, dataset_bytes: int, local_bytes: int,
                  device: SwapDevice, page_bytes: int = 4096,
                  fault_overhead_ns: int = 8000,
                  cache: Optional[Cache] = None) -> TimingCore:
        """Dataset paged against ``local_bytes`` of resident frames.

        Models the conventional configuration: the OS keeps
        ``local_bytes`` worth of the dataset resident and pages the rest
        to ``device`` (local disk, vDisk over a commodity interconnect,
        or the Venice RDMA block device).
        """
        if local_bytes <= 0 or local_bytes > dataset_bytes:
            raise ValueError("local_bytes must be positive and below the dataset size")
        # Visible physical memory is kept to a single page so that every
        # dataset address is swap-backed and the swap manager decides
        # residency (the resident-frame count is what models the local
        # memory actually available to the workload).
        memory_map = PhysicalMemoryMap(4096, node_id=0)
        swap = SwapManager(
            SwapConfig(page_bytes=page_bytes,
                       resident_frames=max(1, local_bytes // page_bytes),
                       fault_overhead_ns=fault_overhead_ns),
            device=device,
        )
        return self._core(memory_map, cache, swap=swap)

    def remote_backend_core(self, dataset_bytes: int, local_bytes: int,
                            backend: RemoteMemoryBackend,
                            donor_node: int = 1,
                            cache: Optional[Cache] = None) -> TimingCore:
        """Dataset split: ``local_bytes`` local, the rest remote via ``backend``.

        Models direct remote memory access (hot-plugged region served by
        CRMA, QPair messaging, or a commodity load/store bridge).  When
        ``local_bytes`` is zero the whole dataset lives remotely.
        """
        if local_bytes < 0 or local_bytes > dataset_bytes:
            raise ValueError("local_bytes must be within [0, dataset size]")
        local_capacity = max(local_bytes, 4096)
        memory_map = PhysicalMemoryMap(local_capacity, node_id=0)
        remote_bytes = dataset_bytes - local_bytes + _SLACK_BYTES
        memory_map.hot_plug_remote(remote_bytes, donor_node=donor_node,
                                   donor_base=0, label="experiment-remote")
        return self._core(memory_map, cache, remote_backend=backend)

    def crma_core(self, dataset_bytes: int, local_bytes: int,
                  placement: ChannelPlacement = ChannelPlacement.ON_CHIP,
                  through_router: bool = False,
                  cache: Optional[Cache] = None) -> TimingCore:
        """Remote portion of the dataset served by the CRMA channel."""
        backend = CrmaRemoteBackend(self.crma_channel(placement, through_router))
        return self.remote_backend_core(dataset_bytes, local_bytes, backend,
                                        cache=cache)

    def qpair_memory_core(self, dataset_bytes: int, local_bytes: int,
                          placement: ChannelPlacement = ChannelPlacement.ON_CHIP,
                          through_router: bool = False,
                          remote_handler_ns: int = 14_000,
                          cache: Optional[Cache] = None) -> TimingCore:
        """Remote portion accessed by explicit QPair request/response."""
        backend = QPairRemoteMemoryBackend(
            self.qpair_channel(placement, through_router),
            donor_dram=Dram(self.dram),
            remote_handler_ns=remote_handler_ns,
        )
        return self.remote_backend_core(dataset_bytes, local_bytes, backend,
                                        cache=cache)

    def rdma_swap_core(self, dataset_bytes: int, local_bytes: int,
                       placement: ChannelPlacement = ChannelPlacement.ON_CHIP,
                       through_router: bool = False,
                       cache: Optional[Cache] = None) -> TimingCore:
        """Remote portion supplied as swap space over the RDMA channel."""
        device = RdmaSwapDevice(self.rdma_channel(placement, through_router))
        return self.swap_core(dataset_bytes, local_bytes, device, cache=cache)
