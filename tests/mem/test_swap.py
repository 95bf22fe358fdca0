"""Unit tests for the swap subsystem (residency, LRU, readahead)."""

import pytest

from repro.mem.swap import (
    LocalDiskSwapDevice,
    SwapConfig,
    SwapDevice,
    SwapManager,
)


class InstrumentedDevice(SwapDevice):
    """Fixed-latency device that records request sizes."""

    def __init__(self, read_ns=1000, write_ns=2000):
        self.read_ns = read_ns
        self.write_ns = write_ns
        self.read_requests = []
        self.write_requests = []

    def read_page_latency_ns(self, page_bytes):
        self.read_requests.append(page_bytes)
        return self.read_ns

    def write_page_latency_ns(self, page_bytes):
        self.write_requests.append(page_bytes)
        return self.write_ns


def manager(frames=4, readahead=1, device=None):
    return SwapManager(SwapConfig(page_bytes=4096, resident_frames=frames,
                                  fault_overhead_ns=100, readahead_pages=readahead),
                       device=device or InstrumentedDevice())


def test_first_touch_faults_then_hits():
    swap = manager()
    assert swap.access(0) > 0
    assert swap.access(0) == 0
    assert swap.access(4095) == 0
    assert swap.fault_count == 1


def test_fault_latency_includes_overhead_and_read():
    device = InstrumentedDevice(read_ns=5000)
    swap = manager(device=device)
    assert swap.access(0) == 100 + 5000


def test_lru_eviction_of_clean_page_has_no_writeback():
    device = InstrumentedDevice()
    swap = manager(frames=2, device=device)
    swap.access(0 * 4096)
    swap.access(1 * 4096)
    swap.access(2 * 4096)          # evicts page 0 (clean)
    assert device.write_requests == []
    assert swap.access(0) > 0      # page 0 faults again


def test_dirty_page_eviction_writes_back():
    device = InstrumentedDevice()
    swap = manager(frames=2, device=device)
    swap.access(0, is_write=True)
    swap.access(1 * 4096)
    swap.access(2 * 4096)          # evicts dirty page 0
    assert len(device.write_requests) == 1
    assert swap.stats.counter("writebacks").value == 1


def test_resident_count_never_exceeds_frames():
    swap = manager(frames=3)
    for page in range(20):
        swap.access(page * 4096)
    assert swap.resident_count <= 3


def test_fault_rate_metric():
    swap = manager(frames=8)
    for page in range(4):
        swap.access(page * 4096)
    for page in range(4):
        swap.access(page * 4096)
    assert swap.fault_rate == pytest.approx(0.5)


def test_sequential_faults_trigger_readahead():
    device = InstrumentedDevice()
    swap = manager(frames=32, readahead=8, device=device)
    # Touch pages sequentially: after the stream is detected, whole
    # clusters come in with a single device read.
    faults = 0
    for page in range(32):
        if swap.access(page * 4096) > 0:
            faults += 1
    assert faults < 32
    assert swap.stats.counter("readahead_clusters").value > 0
    assert any(size > 4096 for size in device.read_requests)


def test_random_faults_do_not_trigger_readahead():
    device = InstrumentedDevice()
    swap = manager(frames=8, readahead=8, device=device)
    for page in [50, 3, 97, 21, 64, 8, 33]:
        swap.access(page * 4096)
    assert swap.stats.counter("readahead_clusters").value == 0
    assert all(size == 4096 for size in device.read_requests)


def test_prefault_marks_pages_resident():
    swap = manager(frames=8)
    swap.prefault(4)
    assert swap.access(0) == 0
    assert swap.access(3 * 4096) == 0
    assert swap.fault_count == 0


def test_flush_writes_back_only_dirty_pages():
    device = InstrumentedDevice()
    swap = manager(frames=8, device=device)
    swap.access(0, is_write=True)
    swap.access(4096)
    total = swap.flush()
    assert total == device.write_ns
    # Flushing twice writes nothing new.
    assert swap.flush() == 0


def test_negative_address_rejected():
    with pytest.raises(ValueError):
        manager().access(-1)


def test_config_validation():
    with pytest.raises(ValueError):
        SwapConfig(resident_frames=0)
    with pytest.raises(ValueError):
        SwapConfig(readahead_pages=0)


def test_local_disk_device_latencies():
    device = LocalDiskSwapDevice(read_latency_us=100, write_latency_us=200,
                                 bandwidth_mbps=1000)
    assert device.read_page_latency_ns(4096) > 100_000
    assert device.write_page_latency_ns(4096) > device.read_page_latency_ns(4096) - 150_000
    with pytest.raises(ValueError):
        LocalDiskSwapDevice(read_latency_us=0)


def test_cluster_read_amortises_fixed_cost():
    device = LocalDiskSwapDevice()
    single = device.read_page_latency_ns(4096)
    cluster = device.read_cluster_latency_ns(4096, 8)
    assert cluster < 8 * single


def test_counters_are_created_on_first_use_in_event_order():
    swap = SwapManager(SwapConfig(resident_frames=2, readahead_pages=2,
                                  fault_overhead_ns=100),
                       device=InstrumentedDevice())
    assert swap.stats.snapshot() == {}
    swap.access(0, is_write=True)   # fault
    swap.access(0)                  # resident hit
    swap.access(4096)               # sequential fault: readahead evicts dirty page 0
    assert list(swap.stats.snapshot().items()) == [
        ("accesses", 3), ("faults", 2), ("pages_in", 3), ("resident_hits", 1),
        ("writebacks", 1), ("readahead_clusters", 1)]


def test_fault_metrics_read_before_any_access_share_the_live_counters():
    swap = SwapManager(SwapConfig(resident_frames=4), device=InstrumentedDevice())
    assert swap.fault_rate == 0.0
    assert swap.fault_count == 0
    assert list(swap.stats.snapshot()) == ["accesses", "faults"]
    swap.access(0)
    swap.access(0)
    assert swap.fault_count == 1
    assert swap.fault_rate == 0.5
    assert list(swap.stats.snapshot()) == ["accesses", "faults", "pages_in",
                                           "resident_hits"]
