"""Per-node memory hierarchy: cache -> (local DRAM | remote | swap).

The hierarchy decides, per access, whether a cache miss is served by
local DRAM, by a remote node over a transport channel (when the address
falls in a hot-plugged region), or by the swap subsystem (when the
address lies beyond the node's visible physical memory).  This is where
the three memory-supply strategies the paper compares meet:

* all-local (ideal)           -- every miss hits local DRAM.
* hot-plugged remote (CRMA)   -- misses to borrowed regions cross the
  fabric at cacheline granularity.
* swap (local disk / RDMA / commodity block device) -- accesses beyond
  visible memory fault and move whole pages.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

from repro.mem.cache import HIT, Cache, CacheConfig
from repro.mem.dram import Dram, DramConfig
from repro.mem.memory_map import MemoryMapError, PhysicalMemoryMap, RegionKind
from repro.mem.prefetch import StreamPrefetcher
from repro.mem.swap import SwapManager
from repro.sim.stats import Counter, StatsRegistry


class RemoteMemoryBackend:
    """Latency provider for accesses to hot-plugged remote regions.

    Implemented by the CRMA channel (and by commodity-interconnect
    load/store paths) -- anything that can satisfy a cacheline-sized
    remote read or write and report its latency.
    """

    def remote_read_latency_ns(self, size_bytes: int) -> int:
        raise NotImplementedError

    def remote_write_latency_ns(self, size_bytes: int) -> int:
        raise NotImplementedError


class LocalOnlyBackend(RemoteMemoryBackend):
    """Backend that refuses remote accesses (all-local configurations)."""

    def remote_read_latency_ns(self, size_bytes: int) -> int:
        raise RuntimeError("no remote memory backend configured")

    def remote_write_latency_ns(self, size_bytes: int) -> int:
        raise RuntimeError("no remote memory backend configured")


@dataclass
class AccessOutcome:
    """Result of one hierarchy access."""

    latency_ns: int
    cache_hit: bool
    served_by: str  # "cache" | "dram" | "remote" | "swap"


#: Level that served an access; :meth:`MemoryHierarchy.access_many`
#: reports each access as an index into this tuple.
SOURCES = ("cache", "dram", "remote", "swap")
CACHE, DRAM, REMOTE, SWAP = range(4)
#: Fill-table entry for a hole (a donated range): nothing serves it.
#: SWAP in the table covers everything beyond visible memory that is
#: not hot-plugged remote memory.
_UNMAPPED = 4


def as_batch(addresses: Iterable[int], writes: Union[bool, Iterable[bool]]) -> tuple:
    """``(addresses, writes)`` as indexable sequences; one flag stays a bool."""
    if addresses.__class__ not in (list, tuple, range):
        addresses = list(addresses)
    if writes.__class__ is not bool and writes.__class__ not in (list, tuple):
        writes = list(writes)
    return addresses, writes


class MemoryHierarchy:
    """Cache + DRAM + optional remote backend + optional swap manager."""

    def __init__(self, memory_map: PhysicalMemoryMap,
                 cache: Optional[Cache] = None,
                 dram: Optional[Dram] = None,
                 remote_backend: Optional[RemoteMemoryBackend] = None,
                 swap: Optional[SwapManager] = None,
                 prefetcher: Optional[StreamPrefetcher] = None,
                 enable_prefetch: bool = True,
                 name: str = "memhier"):
        self.memory_map = memory_map
        self.cache = cache or Cache(CacheConfig())
        self.dram = dram or Dram(DramConfig())
        self.remote_backend = remote_backend
        self.swap = swap
        self.prefetcher = prefetcher if prefetcher is not None else (
            StreamPrefetcher() if enable_prefetch else None)
        self.name = name
        self.stats = StatsRegistry(name)
        # Geometry and closed-form latencies, bound once.
        config = self.cache.config
        self._line = config.line_bytes
        self._hit_ns = config.hit_latency_ns
        self._miss_ns = config.hit_latency_ns + config.miss_penalty_ns
        self._dram_ns = self.dram.fill_latency_ns(config.line_bytes)
        # Counter handles, bound on first use (None until then) so the
        # registry only ever holds counters that have fired.
        self._c_hits: Optional[Counter] = None
        self._c_covered: Optional[Counter] = None
        self._c_fills: List[Optional[Counter]] = [None] * len(SOURCES)
        # Fill source per address interval, valid for one map version.
        self._table_version = -1
        self._bounds: List[int] = []
        self._kinds: List[int] = []

    @property
    def line_bytes(self) -> int:
        return self.cache.config.line_bytes

    def visible_capacity(self) -> int:
        return self.memory_map.visible_capacity()

    def access(self, address: int, is_write: bool = False) -> AccessOutcome:
        """Perform one demand access and return its latency and source."""
        latencies, served = self.access_many((address,), (is_write,))
        return AccessOutcome(latency_ns=latencies[0], cache_hit=served[0] == CACHE,
                             served_by=SOURCES[served[0]])

    def access_many(self, addresses: Iterable[int],
                    writes: Union[bool, Iterable[bool]] = False) -> tuple:
        """Perform demand accesses in order; return ``(latencies, served)``.

        ``writes`` is one flag for every access or a sequence of
        per-access flags.  ``latencies[i]`` is the latency of access ``i``
        and ``SOURCES[served[i]]`` the level that served it.  The cache
        looks up the whole batch first, then :meth:`serve` serves the
        misses; if serving one raises, the cache holds the whole batch.
        """
        addresses, writes = as_batch(addresses, writes)
        return self.serve(addresses, writes, self.cache.lookup_many(addresses, writes))

    def serve(self, addresses: Sequence[int], writes: Union[bool, Sequence[bool]],
              outcomes: Sequence[Optional[int]]) -> tuple:
        """Serve a batch the cache has looked up; return ``(latencies, served)``.

        ``outcomes`` is what :meth:`Cache.lookup_many` returned for
        ``addresses`` and ``writes`` (both as :func:`as_batch` gives
        them).  The cache is not touched again, so several hierarchies
        over one cache can each serve the same lookup.  Every other side
        effect (prefetcher, swap, backend, counters) happens in access
        order, exactly as for the same accesses made one at a time.  If
        serving a miss raises, the accesses before the failing one have
        been served and counted, and the exception propagates.
        """
        uniform = writes.__class__ is bool
        line, hit_ns, miss_ns, dram_ns = self._line, self._hit_ns, self._miss_ns, self._dram_ns
        backend = self.remote_backend
        swap = self.swap
        prefetcher = self.prefetcher
        stats = self.stats
        c_hits, c_covered, c_fills = self._c_hits, self._c_covered, self._c_fills
        memory_map = self.memory_map
        bounds, kinds, version = self._fill_table()

        # Hits need nothing beyond the cache: start every access as a
        # hit and serve the misses in order.
        count = len(outcomes)
        latencies: List[int] = [hit_ns] * count
        served: List[int] = [CACHE] * count
        misses = [index for index, victim in enumerate(outcomes) if victim != HIT]
        # cache_hits is created at the first hit: ahead of a fill counter
        # only when that hit comes before the fill's miss.
        first_hit = (outcomes.index(HIT)
                     if c_hits is None and len(misses) < count else count)
        # DRAM line accesses (fills, writebacks, prefetch floors) are
        # counted here and folded into the DRAM's counters on the way out.
        dram_lines = 0
        index = misses_served = 0
        try:
            for index in misses:
                if index > first_hit and c_hits is None:
                    c_hits = self._c_hits = stats.counter("cache_hits")
                victim = outcomes[index]
                address = addresses[index]
                is_write = writes if uniform else writes[index]
                if memory_map.version != version:
                    bounds, kinds, version = self._fill_table()
                latency = miss_ns
                if victim is not None:
                    # Write back the evicted dirty line first.
                    kind = kinds[bisect_right(bounds, victim) - 1]
                    if kind == DRAM:
                        dram_lines += 1
                        latency += dram_ns
                    else:
                        latency += self._writeback_ns(victim, kind)

                kind = kinds[bisect_right(bounds, address) - 1]
                if kind == DRAM:
                    dram_lines += 1
                    fill_ns = dram_ns
                elif kind == REMOTE and backend is not None:
                    if is_write:
                        fill_ns = backend.remote_write_latency_ns(line)
                    else:
                        fill_ns = backend.remote_read_latency_ns(line)
                elif kind == SWAP and swap is not None:
                    # After the page is resident the line is filled from DRAM.
                    fill_ns = swap.access(address, is_write=is_write) + dram_ns
                    dram_lines += 1
                else:
                    raise self._unbacked_error(address, kind)

                if prefetcher is not None and kind != SWAP:
                    # Sequential-stream fills pipeline behind the prefetcher;
                    # the demand miss only observes a fraction of the fill
                    # latency, bounded below by the line's DRAM occupancy
                    # (charged as one more DRAM access).
                    factor = prefetcher.observe_miss(address // line)
                    if factor > 1:
                        dram_lines += 1
                        fill_ns = max(fill_ns // factor, dram_ns)
                        if c_covered is None:
                            c_covered = self._c_covered = stats.counter(
                                "prefetch_covered_fills")
                        c_covered.value += 1
                latencies[index] = latency + fill_ns
                served[index] = kind
                counter = c_fills[kind]
                if counter is None:
                    counter = c_fills[kind] = stats.counter("fills_" + SOURCES[kind])
                counter.value += 1
                misses_served += 1
            index = count
        finally:
            # The accesses before ``index`` were served; count their hits.
            hits = index - misses_served
            if hits:
                if c_hits is None:
                    c_hits = self._c_hits = stats.counter("cache_hits")
                c_hits.value += hits
            if dram_lines:
                accesses, nbytes = self.dram.access_counters()
                accesses.value += dram_lines
                nbytes.value += dram_lines * line
        return latencies, served

    def _fill_table(self) -> tuple:
        """``(bounds, kinds, version)`` for the memory map's current version.

        Address interval ``[bounds[i], bounds[i+1])`` (the last one is
        open-ended) is filled from ``kinds[i]``.  The table is rebuilt
        only when the map's version changes.
        """
        memory_map = self.memory_map
        if memory_map.version != self._table_version:
            visible = memory_map.visible_capacity()
            highest = memory_map.highest_address()
            edges = {0, visible, highest}
            for region in memory_map.regions:
                edges.update((region.start, region.end))
            bounds: List[int] = []
            kinds: List[int] = []
            # Every classification predicate is constant between two
            # consecutive edges, so classifying each interval's first
            # address classifies the whole interval.
            for start in sorted(edges):
                kind = self._classify(start, visible, highest)
                if not kinds or kinds[-1] != kind:
                    bounds.append(start)
                    kinds.append(kind)
            self._bounds, self._kinds = bounds, kinds
            self._table_version = memory_map.version
        return self._bounds, self._kinds, self._table_version

    def _classify(self, address: int, visible: int, highest: int) -> int:
        memory_map = self.memory_map
        if address >= highest or (
            address >= visible and not memory_map.is_remote(address)
        ):
            return SWAP
        try:
            region = memory_map.lookup(address)
        except MemoryMapError:
            return _UNMAPPED
        if region.kind == RegionKind.REMOTE_MAPPED:
            return REMOTE
        return DRAM

    def _writeback_ns(self, address: int, kind: int) -> int:
        """Latency of writing back a dirty line to ``address``.

        Writebacks to a range that is no longer backed -- a donated hole,
        or memory beyond the visible range with no swap manager (the top
        of an unplugged remote region) -- are dropped by the sharing
        protocol's cleanup and cost nothing.  Every other failure, such
        as a remote backend or swap device error, propagates.
        """
        if kind == _UNMAPPED or (kind == SWAP and self.swap is None):
            return 0
        if kind == REMOTE:
            if self.remote_backend is None:
                raise self._unbacked_error(address, kind)
            return self.remote_backend.remote_write_latency_ns(self._line)
        swap_ns = self.swap.access(address, is_write=True)
        return swap_ns + self.dram.access_latency_ns(self._line)

    def _unbacked_error(self, address: int, kind: int) -> Exception:
        """The error a demand miss to ``address`` raises when nothing serves it."""
        if kind == SWAP:
            return RuntimeError(
                f"{self.name}: address {address:#x} exceeds visible memory and no "
                "swap manager is configured"
            )
        if kind == REMOTE:
            return RuntimeError(
                f"{self.name}: address {address:#x} is remote-mapped but no remote "
                "backend is configured"
            )
        return MemoryMapError(
            f"address {address:#x} is not mapped on node {self.memory_map.node_id}")

    # Convenience read-only metrics ------------------------------------
    @property
    def cache_miss_rate(self) -> float:
        return self.cache.miss_rate

    @property
    def swap_fault_count(self) -> int:
        return self.swap.fault_count if self.swap is not None else 0
