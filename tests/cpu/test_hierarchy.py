"""Unit tests for the memory hierarchy (cache -> DRAM | remote | swap)."""

import pytest

from repro.cpu.hierarchy import (
    SOURCES,
    LocalOnlyBackend,
    MemoryHierarchy,
    RemoteMemoryBackend,
)
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import Dram, DramConfig
from repro.mem.memory_map import MemoryMapError, PhysicalMemoryMap
from repro.mem.swap import SwapConfig, SwapManager

MB = 1024 * 1024


class FixedRemoteBackend(RemoteMemoryBackend):
    def __init__(self, read_ns=3000, write_ns=150):
        self.read_ns = read_ns
        self.write_ns = write_ns
        self.reads = 0
        self.writes = 0

    def remote_read_latency_ns(self, size_bytes):
        self.reads += 1
        return self.read_ns

    def remote_write_latency_ns(self, size_bytes):
        self.writes += 1
        return self.write_ns


def small_cache():
    return Cache(CacheConfig(size_bytes=4096, line_bytes=32, associativity=2))


def local_hierarchy(capacity=64 * MB, prefetch=False):
    return MemoryHierarchy(PhysicalMemoryMap(capacity), cache=small_cache(),
                           dram=Dram(DramConfig()), enable_prefetch=prefetch)


def test_local_miss_served_by_dram():
    hierarchy = local_hierarchy()
    outcome = hierarchy.access(0x1000)
    assert not outcome.cache_hit
    assert outcome.served_by == "dram"
    assert outcome.latency_ns > 0


def test_second_access_hits_in_cache():
    hierarchy = local_hierarchy()
    hierarchy.access(0x1000)
    outcome = hierarchy.access(0x1000)
    assert outcome.cache_hit
    assert outcome.served_by == "cache"


def test_remote_region_uses_backend():
    memory_map = PhysicalMemoryMap(1 * MB)
    memory_map.hot_plug_remote(8 * MB, donor_node=1, donor_base=0)
    backend = FixedRemoteBackend()
    hierarchy = MemoryHierarchy(memory_map, cache=small_cache(),
                                remote_backend=backend, enable_prefetch=False)
    outcome = hierarchy.access(2 * MB)
    assert outcome.served_by == "remote"
    assert outcome.latency_ns >= backend.read_ns
    assert backend.reads == 1


def test_remote_write_uses_backend_write_path():
    memory_map = PhysicalMemoryMap(1 * MB)
    memory_map.hot_plug_remote(8 * MB, donor_node=1, donor_base=0)
    backend = FixedRemoteBackend()
    hierarchy = MemoryHierarchy(memory_map, cache=small_cache(),
                                remote_backend=backend, enable_prefetch=False)
    outcome = hierarchy.access(2 * MB, is_write=True)
    assert outcome.served_by == "remote"
    assert backend.writes == 1


def test_remote_region_without_backend_raises():
    memory_map = PhysicalMemoryMap(1 * MB)
    memory_map.hot_plug_remote(8 * MB, donor_node=1, donor_base=0)
    hierarchy = MemoryHierarchy(memory_map, cache=small_cache())
    with pytest.raises(RuntimeError):
        hierarchy.access(2 * MB)


def test_local_only_backend_refuses():
    backend = LocalOnlyBackend()
    with pytest.raises(RuntimeError):
        backend.remote_read_latency_ns(32)
    with pytest.raises(RuntimeError):
        backend.remote_write_latency_ns(32)


def test_address_beyond_visible_memory_uses_swap():
    swap = SwapManager(SwapConfig(resident_frames=16, fault_overhead_ns=1000))
    hierarchy = MemoryHierarchy(PhysicalMemoryMap(1 * MB), cache=small_cache(),
                                swap=swap, enable_prefetch=False)
    outcome = hierarchy.access(32 * MB)
    assert outcome.served_by == "swap"
    assert swap.fault_count == 1


def test_address_beyond_visible_memory_without_swap_raises():
    hierarchy = local_hierarchy(capacity=1 * MB)
    with pytest.raises(RuntimeError):
        hierarchy.access(32 * MB)


def test_dirty_writeback_to_remote_counted():
    memory_map = PhysicalMemoryMap(1 * MB)
    memory_map.hot_plug_remote(64 * MB, donor_node=1, donor_base=0)
    backend = FixedRemoteBackend()
    hierarchy = MemoryHierarchy(memory_map, cache=small_cache(),
                                remote_backend=backend, enable_prefetch=False)
    # Dirty a remote line, then force its eviction by filling the set.
    set_stride = 64 * 32  # num_sets * line_bytes for the small cache
    base = 2 * MB
    hierarchy.access(base, is_write=True)
    hierarchy.access(base + set_stride)
    hierarchy.access(base + 2 * set_stride)
    assert backend.writes >= 1


def test_prefetcher_reduces_sequential_remote_latency():
    def build(prefetch):
        memory_map = PhysicalMemoryMap(4096)
        memory_map.hot_plug_remote(64 * MB, donor_node=1, donor_base=0)
        return MemoryHierarchy(memory_map, cache=small_cache(),
                               remote_backend=FixedRemoteBackend(read_ns=3000),
                               enable_prefetch=prefetch)

    without = build(False)
    with_prefetch = build(True)
    total_without = sum(without.access(1 * MB + line * 32).latency_ns
                        for line in range(64))
    total_with = sum(with_prefetch.access(1 * MB + line * 32).latency_ns
                     for line in range(64))
    assert total_with < total_without


def test_cache_miss_rate_property():
    hierarchy = local_hierarchy()
    hierarchy.access(0)
    hierarchy.access(0)
    assert hierarchy.cache_miss_rate == pytest.approx(0.5)
    assert hierarchy.swap_fault_count == 0


# ----------------------------------------------------------------------
# Fill classification follows the memory map's version
# ----------------------------------------------------------------------
def test_hot_plug_turns_swap_classified_range_remote():
    memory_map = PhysicalMemoryMap(1 * MB)
    swap = SwapManager(SwapConfig(resident_frames=16, fault_overhead_ns=1000))
    hierarchy = MemoryHierarchy(memory_map, cache=small_cache(), swap=swap,
                                remote_backend=FixedRemoteBackend(),
                                enable_prefetch=False)
    assert hierarchy.access(2 * MB).served_by == "swap"
    memory_map.hot_plug_remote(8 * MB, donor_node=1, donor_base=0)
    # A fresh line in the same range: the classification cached for the
    # old map version must not be reused.
    assert hierarchy.access(2 * MB + 4096).served_by == "remote"
    assert swap.fault_count == 1


def test_map_changed_by_a_fill_is_seen_within_the_batch():
    memory_map = PhysicalMemoryMap(1 * MB)
    swap = SwapManager(SwapConfig(resident_frames=16, fault_overhead_ns=1000))
    hierarchy = MemoryHierarchy(memory_map, cache=small_cache(), swap=swap,
                                remote_backend=FixedRemoteBackend(),
                                enable_prefetch=False)
    original_access = swap.access

    def access_then_plug(address, is_write=False):
        latency = original_access(address, is_write=is_write)
        if not memory_map.remote_capacity():
            memory_map.hot_plug_remote(8 * MB, donor_node=1, donor_base=0)
        return latency

    swap.access = access_then_plug
    latencies, served = hierarchy.access_many((2 * MB, 2 * MB + 4096))
    assert [SOURCES[source] for source in served] == ["swap", "remote"]


# ----------------------------------------------------------------------
# Dirty writebacks: unmapped targets are dropped, errors propagate
# ----------------------------------------------------------------------
class FailingWriteBackend(FixedRemoteBackend):
    """Remote backend whose writes fail once armed (a link going down)."""

    def __init__(self):
        super().__init__()
        self.armed = False

    def remote_write_latency_ns(self, size_bytes):
        if self.armed:
            raise RuntimeError("remote write failed: link down")
        return super().remote_write_latency_ns(size_bytes)


def evict_set_of(hierarchy, address, ways=2):
    """Access ``ways`` local lines sharing ``address``'s set; return latencies."""
    set_stride = hierarchy.cache.config.num_sets * hierarchy.line_bytes
    base = address % set_stride
    return [hierarchy.access(base + way * set_stride).latency_ns
            for way in range(ways)]


def test_backend_error_during_dirty_writeback_reaches_caller():
    memory_map = PhysicalMemoryMap(1 * MB)
    memory_map.hot_plug_remote(8 * MB, donor_node=1, donor_base=0)
    backend = FailingWriteBackend()
    hierarchy = MemoryHierarchy(memory_map, cache=small_cache(),
                                remote_backend=backend, enable_prefetch=False)
    hierarchy.access(2 * MB, is_write=True)       # dirty a remote line
    backend.armed = True
    with pytest.raises(RuntimeError, match="link down"):
        evict_set_of(hierarchy, 2 * MB)


def test_writeback_to_unplugged_region_is_dropped():
    memory_map = PhysicalMemoryMap(1 * MB)
    region = memory_map.hot_plug_remote(8 * MB, donor_node=1, donor_base=0)
    backend = FixedRemoteBackend()
    hierarchy = MemoryHierarchy(memory_map, cache=small_cache(),
                                remote_backend=backend, enable_prefetch=False)
    hierarchy.access(2 * MB, is_write=True)
    memory_map.hot_unplug(region)
    clean = local_hierarchy(capacity=1 * MB)
    # Same fills as a cache with nothing to write back.
    assert evict_set_of(hierarchy, 2 * MB) == evict_set_of(clean, 2 * MB)
    assert hierarchy.cache.stats.counter("writebacks").value == 1
    assert backend.writes == 1                     # only the demand write


def test_writeback_to_donated_hole_is_dropped():
    memory_map = PhysicalMemoryMap(2 * MB)
    memory_map.hot_plug_remote(4 * MB, donor_node=2, donor_base=0)
    hierarchy = MemoryHierarchy(memory_map, cache=small_cache(),
                                remote_backend=FixedRemoteBackend(),
                                enable_prefetch=False)
    hierarchy.access(1 * MB + 64, is_write=True)
    # Donating the top of local memory leaves a hole below the borrowed
    # region: still inside visible memory, but mapped by nothing.
    memory_map.hot_remove(1 * MB, recipient_node=1)
    assert evict_set_of(hierarchy, 1 * MB + 64) == \
        evict_set_of(local_hierarchy(capacity=1 * MB), 1 * MB + 64)
    with pytest.raises(MemoryMapError, match="not mapped"):
        hierarchy.access(1 * MB + 64)

