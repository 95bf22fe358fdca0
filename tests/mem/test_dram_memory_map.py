"""Unit tests for the DRAM model and the hot-plug memory map."""

import pytest

from repro.mem.dram import Dram, DramConfig
from repro.mem.memory_map import (
    MemoryMapError,
    MemoryRegion,
    PhysicalMemoryMap,
    RegionKind,
)

MB = 1024 * 1024
GB = 1024 * MB


# ----------------------------------------------------------------------
# DRAM
# ----------------------------------------------------------------------
def test_dram_access_latency_has_fixed_and_transfer_parts():
    dram = Dram(DramConfig(access_latency_ns=60, bandwidth_gbps=25.6))
    small = dram.access_latency_ns(32)
    large = dram.access_latency_ns(4096)
    assert small >= 60
    assert large > small


def test_dram_dma_includes_setup():
    config = DramConfig(dma_setup_ns=500)
    dram = Dram(config)
    assert dram.dma_latency_ns(4096) >= 500 + config.access_latency_ns


def test_dram_rejects_nonpositive_sizes():
    dram = Dram()
    with pytest.raises(ValueError):
        dram.access_latency_ns(0)
    with pytest.raises(ValueError):
        dram.dma_latency_ns(-1)


def test_dram_config_validation():
    with pytest.raises(ValueError):
        DramConfig(capacity_bytes=0)
    with pytest.raises(ValueError):
        DramConfig(bandwidth_gbps=-1)


def test_dram_default_capacity_matches_table1():
    assert DramConfig().capacity_bytes == 1 * GB


# ----------------------------------------------------------------------
# MemoryRegion
# ----------------------------------------------------------------------
def test_region_contains_and_overlaps():
    region = MemoryRegion(start=100, size=50, kind=RegionKind.LOCAL)
    assert region.contains(100) and region.contains(149)
    assert not region.contains(150)
    other = MemoryRegion(start=140, size=20, kind=RegionKind.LOCAL)
    disjoint = MemoryRegion(start=150, size=20, kind=RegionKind.LOCAL)
    assert region.overlaps(other)
    assert not region.overlaps(disjoint)


def test_region_validation():
    with pytest.raises(ValueError):
        MemoryRegion(start=0, size=0, kind=RegionKind.LOCAL)
    with pytest.raises(ValueError):
        MemoryRegion(start=-1, size=10, kind=RegionKind.LOCAL)


# ----------------------------------------------------------------------
# PhysicalMemoryMap: the Figure 10 flow
# ----------------------------------------------------------------------
def test_initial_map_is_all_local():
    memory_map = PhysicalMemoryMap(4 * GB, node_id=0)
    assert memory_map.local_capacity() == 4 * GB
    assert memory_map.visible_capacity() == 4 * GB
    assert memory_map.lookup(0).kind == RegionKind.LOCAL


def test_figure10_hot_remove_and_hot_plug_flow():
    donor = PhysicalMemoryMap(4 * GB, node_id=0)       # Node A
    recipient = PhysicalMemoryMap(4 * GB, node_id=1)   # Node B

    donated = donor.hot_remove(1 * GB, recipient_node=1)
    assert donated.start == 3 * GB                      # top of Node A memory
    assert donor.local_capacity() == 3 * GB
    assert donor.donated_capacity() == 1 * GB

    borrowed = recipient.hot_plug_remote(1 * GB, donor_node=0,
                                         donor_base=donated.start)
    assert borrowed.start == 4 * GB                     # 0x1_0000_0000
    assert recipient.visible_capacity() == 5 * GB
    assert recipient.is_remote(4 * GB + 123)

    donor_node, donor_address = recipient.translate_to_donor(4 * GB + 123)
    assert donor_node == 0
    assert donor_address == donated.start + 123


def test_hot_removed_region_is_invisible_to_donor():
    donor = PhysicalMemoryMap(4 * GB, node_id=0)
    donor.hot_remove(1 * GB, recipient_node=1)
    with pytest.raises(MemoryMapError):
        donor.lookup(3 * GB + 100)


def test_hot_remove_more_than_available_fails():
    memory_map = PhysicalMemoryMap(1 * GB)
    with pytest.raises(MemoryMapError):
        memory_map.hot_remove(2 * GB, recipient_node=1)


def test_hot_add_back_restores_local_capacity():
    donor = PhysicalMemoryMap(2 * GB, node_id=0)
    region = donor.hot_remove(1 * GB, recipient_node=1)
    donor.hot_add_back(region)
    assert donor.local_capacity() == 2 * GB
    assert donor.donated_capacity() == 0
    # Now the address is visible again.
    assert donor.lookup(2 * GB - 1).kind == RegionKind.LOCAL


def test_hot_unplug_removes_borrowed_region():
    recipient = PhysicalMemoryMap(1 * GB, node_id=1)
    region = recipient.hot_plug_remote(512 * MB, donor_node=0, donor_base=0)
    recipient.hot_unplug(region)
    assert recipient.remote_capacity() == 0
    assert not recipient.is_remote(1 * GB + 10)


def test_translate_local_address_fails():
    memory_map = PhysicalMemoryMap(1 * GB)
    with pytest.raises(MemoryMapError):
        memory_map.translate_to_donor(100)


def test_multiple_hot_plugs_stack_upwards():
    recipient = PhysicalMemoryMap(1 * GB, node_id=1)
    first = recipient.hot_plug_remote(256 * MB, donor_node=2, donor_base=0)
    second = recipient.hot_plug_remote(256 * MB, donor_node=3, donor_base=0)
    assert second.start == first.end
    assert recipient.remote_capacity() == 512 * MB
    assert recipient.translate_to_donor(second.start + 5)[0] == 3


def test_invalid_hot_operations_raise():
    memory_map = PhysicalMemoryMap(1 * GB)
    with pytest.raises(MemoryMapError):
        memory_map.hot_remove(0, recipient_node=1)
    with pytest.raises(MemoryMapError):
        memory_map.hot_plug_remote(-5, donor_node=1, donor_base=0)
    foreign = MemoryRegion(start=0, size=10, kind=RegionKind.REMOTE_MAPPED)
    with pytest.raises(MemoryMapError):
        memory_map.hot_unplug(foreign)


# ----------------------------------------------------------------------
# Map version: derived queries are cached per version
# ----------------------------------------------------------------------
def test_every_mutator_bumps_the_version():
    memory_map = PhysicalMemoryMap(1 * GB)
    assert memory_map.version == 0
    donated = memory_map.hot_remove(256 * MB, recipient_node=1)
    assert memory_map.version == 1
    memory_map.hot_add_back(donated)
    assert memory_map.version == 2
    borrowed = memory_map.hot_plug_remote(512 * MB, donor_node=2, donor_base=0)
    assert memory_map.version == 3
    memory_map.hot_unplug(borrowed)
    assert memory_map.version == 4


def test_failed_mutations_and_queries_leave_the_version_alone():
    memory_map = PhysicalMemoryMap(1 * GB)
    with pytest.raises(MemoryMapError):
        memory_map.hot_remove(2 * GB, recipient_node=1)
    with pytest.raises(MemoryMapError):
        memory_map.hot_unplug(MemoryRegion(start=0, size=10,
                                           kind=RegionKind.REMOTE_MAPPED))
    memory_map.lookup(5)
    memory_map.visible_capacity()
    memory_map.highest_address()
    assert memory_map.version == 0


def test_cached_queries_follow_every_mutation():
    memory_map = PhysicalMemoryMap(1 * GB, node_id=4)
    assert (memory_map.visible_capacity(), memory_map.highest_address()) == (1 * GB, 1 * GB)
    first = memory_map.hot_plug_remote(256 * MB, donor_node=1, donor_base=0)
    second = memory_map.hot_plug_remote(256 * MB, donor_node=2, donor_base=0)
    assert memory_map.highest_address() == second.end
    assert memory_map.lookup(first.start + 7) is first
    memory_map.hot_unplug(first)
    # The unplugged range is now a hole below the remaining remote region.
    with pytest.raises(MemoryMapError, match="not mapped on node 4"):
        memory_map.lookup(first.start + 7)
    assert memory_map.lookup(second.start) is second
    assert memory_map.visible_capacity() == 1 * GB + 256 * MB
    donated = memory_map.hot_remove(128 * MB, recipient_node=3)
    with pytest.raises(MemoryMapError):
        memory_map.lookup(donated.start)
    assert memory_map.visible_capacity() == 1 * GB + 128 * MB
    memory_map.hot_add_back(donated)
    assert memory_map.lookup(donated.start) is donated
    assert memory_map.lookup(donated.start).kind == RegionKind.LOCAL
