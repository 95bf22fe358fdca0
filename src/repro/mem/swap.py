"""Page-granularity swap subsystem.

Several configurations in the paper supply extra memory capacity by
paging: to a local disk (the conventional baseline in Figure 15), to
remote memory presented as a virtual block device over 10 GbE or
InfiniBand SRP (Figure 3), or to remote memory over the Venice RDMA
channel (Section 5.2.1, Figure 15).  :class:`SwapManager` models the
kernel side -- a resident-set of page frames with LRU replacement and
dirty-page writeback -- against a pluggable :class:`SwapDevice` backend
that supplies the per-page transfer latencies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.sim.stats import Counter, StatsRegistry

#: Default page size (4 KiB, as on the prototype's Linux kernel).
PAGE_BYTES = 4096


@dataclass
class SwapConfig:
    """Parameters of the swap manager."""

    page_bytes: int = PAGE_BYTES
    #: Number of page frames that fit in local memory for this workload.
    resident_frames: int = 1024
    #: Kernel overhead per page fault (trap, page-table walk, driver), ns.
    fault_overhead_ns: int = 3000
    #: Pages fetched per cluster read when faults are sequential (Linux
    #: swap readahead).  1 disables readahead.
    readahead_pages: int = 8

    def __post_init__(self) -> None:
        if self.page_bytes <= 0 or self.resident_frames <= 0:
            raise ValueError("page size and resident frames must be positive")
        if self.readahead_pages <= 0:
            raise ValueError("readahead_pages must be at least 1")


class SwapDevice:
    """Backend that stores evicted pages (disk, remote memory, ...)."""

    name = "abstract"

    def read_page_latency_ns(self, page_bytes: int) -> int:
        """Latency to fetch one page from the device."""
        raise NotImplementedError

    def write_page_latency_ns(self, page_bytes: int) -> int:
        """Latency to write one page out to the device."""
        raise NotImplementedError

    def read_cluster_latency_ns(self, page_bytes: int, count: int) -> int:
        """Latency to fetch ``count`` contiguous pages in one request.

        The default issues a single larger read, which amortises the
        device's fixed per-request cost across the cluster -- the effect
        Linux swap readahead relies on.
        """
        if count <= 0:
            raise ValueError("cluster size must be positive")
        return self.read_page_latency_ns(page_bytes * count)

    def supports_write_overlap(self) -> bool:
        """True when writebacks overlap with the fetch (double buffering).

        The Venice RDMA swap driver uses double buffering of DMA
        descriptors (Section 5.2.1), letting the dirty-page writeback
        proceed concurrently with the demand fetch.
        """
        return False


class LocalDiskSwapDevice(SwapDevice):
    """Conventional swap-to-local-storage baseline.

    Latency defaults model the slow flash-class storage attached to the
    prototype's Zynq boards (sub-millisecond random reads, slower
    writes, modest bandwidth); the paper's "local memory swap space"
    reference point in Figure 15 uses this backend.  Pass faster
    SSD-class numbers for a modern server baseline.
    """

    name = "local-disk"

    def __init__(self, read_latency_us: float = 280.0,
                 write_latency_us: float = 420.0,
                 bandwidth_mbps: float = 320.0):
        if read_latency_us <= 0 or write_latency_us <= 0 or bandwidth_mbps <= 0:
            raise ValueError("latencies and bandwidth must be positive")
        self.read_latency_ns = int(read_latency_us * 1000)
        self.write_latency_ns = int(write_latency_us * 1000)
        self.bandwidth_mbps = bandwidth_mbps

    def _transfer_ns(self, page_bytes: int) -> int:
        return int(page_bytes * 8 * 1000 / self.bandwidth_mbps)

    def read_page_latency_ns(self, page_bytes: int) -> int:
        return self.read_latency_ns + self._transfer_ns(page_bytes)

    def write_page_latency_ns(self, page_bytes: int) -> int:
        return self.write_latency_ns + self._transfer_ns(page_bytes)


class SwapManager:
    """LRU resident set with dirty-page writeback over a swap device."""

    def __init__(self, config: Optional[SwapConfig] = None,
                 device: Optional[SwapDevice] = None, name: str = "swap"):
        self.config = config or SwapConfig()
        self.device = device or LocalDiskSwapDevice()
        self.name = name
        self.stats = StatsRegistry(name)
        # page_id -> dirty flag, LRU order (oldest first).
        self._resident: OrderedDict = OrderedDict()
        # Last demand-faulted page and the page just past the last
        # readahead cluster, used to detect sequential fault streams.
        self._last_faulted_page: Optional[int] = None
        self._readahead_frontier: Optional[int] = None
        # Counter handles, bound on first use (None until then) so the
        # registry only ever holds counters that have fired.
        self._c_accesses: Optional[Counter] = None
        self._c_resident_hits: Optional[Counter] = None
        self._c_faults: Optional[Counter] = None
        self._c_writebacks: Optional[Counter] = None
        self._c_pages_in: Optional[Counter] = None
        self._c_readahead: Optional[Counter] = None

    def page_of(self, address: int) -> int:
        """Page identifier containing ``address``."""
        if address < 0:
            raise ValueError(f"negative address: {address}")
        return address // self.config.page_bytes

    def is_resident(self, page_id: int) -> bool:
        return page_id in self._resident

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    @property
    def fault_count(self) -> int:
        return self.stats.counter("faults").value

    @property
    def fault_rate(self) -> float:
        accesses = self.stats.counter("accesses").value
        return self.fault_count / accesses if accesses else 0.0

    def access(self, address: int, is_write: bool = False) -> int:
        """Touch the page containing ``address``; return latency in ns.

        A resident page costs nothing extra (the caller accounts for the
        DRAM access).  A non-resident page triggers a fault: the LRU
        victim is evicted (with a device write if dirty), the demanded
        page is fetched, and the total stall time is returned.
        """
        if self._c_accesses is None:
            self._c_accesses = self.stats.counter("accesses")
        self._c_accesses.value += 1
        page_id = self.page_of(address)
        resident = self._resident
        if page_id in resident:
            resident.move_to_end(page_id)
            if is_write:
                resident[page_id] = True
            if self._c_resident_hits is None:
                self._c_resident_hits = self.stats.counter("resident_hits")
            self._c_resident_hits.value += 1
            return 0

        if self._c_faults is None:
            self._c_faults = self.stats.counter("faults")
        self._c_faults.value += 1
        config = self.config
        latency = config.fault_overhead_ns

        # Sequential faults trigger readahead: the demanded page and the
        # following pages of the cluster are brought in with one larger
        # device request (Linux swap readahead behaviour).  A fault is
        # part of a sequential stream when it lands on the page right
        # after the previous fault, or on the page just past the last
        # readahead cluster.
        sequential = (
            (self._last_faulted_page is not None
             and page_id == self._last_faulted_page + 1)
            or (self._readahead_frontier is not None
                and page_id == self._readahead_frontier)
        )
        self._last_faulted_page = page_id
        cluster = config.readahead_pages if sequential else 1
        cluster = min(cluster, config.resident_frames)
        self._readahead_frontier = page_id + cluster

        writeback_ns = 0
        evictions_needed = max(0, len(resident) + cluster - config.resident_frames)
        for _ in range(evictions_needed):
            victim_page, victim_dirty = resident.popitem(last=False)
            if victim_dirty:
                writeback_ns += self.device.write_page_latency_ns(config.page_bytes)
                self._count_writeback()
        fetch_ns = self.device.read_cluster_latency_ns(config.page_bytes, cluster)
        if self._c_pages_in is None:
            self._c_pages_in = self.stats.counter("pages_in")
        self._c_pages_in.value += cluster
        if cluster > 1:
            if self._c_readahead is None:
                self._c_readahead = self.stats.counter("readahead_clusters")
            self._c_readahead.value += 1
        if writeback_ns and self.device.supports_write_overlap():
            latency += max(fetch_ns, writeback_ns)
        else:
            latency += fetch_ns + writeback_ns
        # Install the readahead pages as clean, least-recently used so
        # the demanded page outlives them under pressure.
        for ahead in range(cluster - 1, 0, -1):
            ahead_page = page_id + ahead
            if ahead_page not in resident:
                resident[ahead_page] = False
        resident[page_id] = is_write
        resident.move_to_end(page_id)
        return latency

    def _count_writeback(self) -> None:
        if self._c_writebacks is None:
            self._c_writebacks = self.stats.counter("writebacks")
        self._c_writebacks.value += 1


    def prefault(self, pages: int) -> None:
        """Mark the first ``pages`` pages resident (warm-up helper)."""
        for page_id in range(min(pages, self.config.resident_frames)):
            self._resident[page_id] = False

    def flush(self) -> int:
        """Write back all dirty resident pages; return total latency."""
        total = 0
        for page_id, dirty in list(self._resident.items()):
            if dirty:
                total += self.device.write_page_latency_ns(self.config.page_bytes)
                self._resident[page_id] = False
                self._count_writeback()
        return total
