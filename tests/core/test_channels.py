"""Unit tests for the FabricPath and the three transport channels."""

import pytest

from repro.cluster.latency_cache import ClusterLatencyCache
from repro.core.channels.backend import ClosedFormBackend
from repro.core.channels.crma import CrmaChannel, CrmaRemoteBackend
from repro.core.channels.path import CachedFabricPath, FabricPath
from repro.core.channels.qpair import QPairChannel, QPairRemoteMemoryBackend
from repro.core.channels.rdma import RdmaChannel, RdmaSwapDevice
from repro.core.config import ChannelPlacement, QPairConfig, RdmaConfig
from repro.fabric.phy import RouterConfig

MB = 1024 * 1024
LINE = 32
PAGE = 4096


# ----------------------------------------------------------------------
# FabricPath
# ----------------------------------------------------------------------
def test_path_one_way_latency_close_to_table1():
    path = FabricPath()
    assert 1200 <= path.one_way_latency_ns(64) <= 1700


def test_off_chip_placement_adds_adapter_crossings():
    on_chip = FabricPath(placement=ChannelPlacement.ON_CHIP)
    off_chip = FabricPath(placement=ChannelPlacement.OFF_CHIP)
    difference = off_chip.one_way_latency_ns(64) - on_chip.one_way_latency_ns(64)
    assert difference == 2 * off_chip.fabric.off_chip_adapter_ns


def test_external_router_adds_latency():
    direct = FabricPath()
    routed = direct.with_router(RouterConfig())
    assert routed.one_way_latency_ns(64) > direct.one_way_latency_ns(64)


def test_multi_hop_paths_scale_latency():
    one_hop = FabricPath(hops=1)
    three_hops = FabricPath(hops=3)
    assert three_hops.one_way_latency_ns(64) > 2 * one_hop.one_way_latency_ns(64)
    with pytest.raises(ValueError):
        FabricPath(hops=0)


def test_round_trip_is_sum_of_one_ways():
    path = FabricPath()
    assert path.round_trip_latency_ns(8, 32) == \
        path.one_way_latency_ns(8) + path.one_way_latency_ns(32)


def test_streaming_bandwidth_bounded_by_link_rate():
    path = FabricPath()
    bandwidth = path.streaming_bandwidth_gbps(4096)
    assert 0 < bandwidth <= path.link_bandwidth_gbps


def test_with_variants_do_not_mutate_original():
    path = FabricPath()
    off_chip = path.with_placement(ChannelPlacement.OFF_CHIP)
    more_hops = path.with_hops(2)
    assert path.placement is ChannelPlacement.ON_CHIP
    assert path.hops == 1
    assert off_chip.placement is ChannelPlacement.OFF_CHIP
    assert more_hops.hops == 2


# ----------------------------------------------------------------------
# CRMA channel
# ----------------------------------------------------------------------
def test_crma_read_is_a_round_trip_plus_dram():
    crma = CrmaChannel()
    read = crma.read_latency_ns(LINE)
    assert read > 2 * crma.path.one_way_latency_ns(8)
    assert 2000 <= read <= 5000


def test_crma_posted_write_is_much_cheaper_than_read():
    crma = CrmaChannel()
    assert crma.write_latency_ns(LINE) < crma.read_latency_ns(LINE) / 5


def test_crma_mapping_and_translation():
    crma = CrmaChannel()
    entry = crma.map_region(local_base=1024 * MB, size=256 * MB,
                            remote_node=1, remote_base=768 * MB)
    node, address = crma.translate(1024 * MB + 12345)
    assert node == 1
    assert address == 768 * MB + 12345
    # Second translation of the same page is a TLB hit.
    crma.translate(1024 * MB + 12345)
    assert crma.tlb.hits >= 1
    crma.unmap_region(entry)
    from repro.core.address import AddressMappingError
    with pytest.raises(AddressMappingError):
        crma.translate(1024 * MB + 12345)


def test_crma_backend_adapts_channel():
    backend = CrmaRemoteBackend(CrmaChannel())
    assert backend.remote_read_latency_ns(LINE) > 0
    assert backend.remote_write_latency_ns(LINE) > 0


class RecomputingClosedForm(ClosedFormBackend):
    """The closed forms, recomputed on every op (a subclass is never memoized)."""


def test_crma_closed_form_latencies_are_computed_once_per_size():
    path = FabricPath()
    once = CrmaChannel(path=path)
    every_op = CrmaChannel(path=path, backend=RecomputingClosedForm(path))
    for size in (LINE, 8, LINE, 64, LINE):
        assert once.read_latency_ns(size) == every_op.read_latency_ns(size)
        assert once.write_latency_ns(size) == every_op.write_latency_ns(size)
    assert sorted(once._fixed) == [8, LINE, 64]
    assert every_op.fixed_latencies_ns(LINE) is None
    # Every op still counts, at the channel and at the donor's DRAM.
    for ours, theirs in ((once.stats, every_op.stats),
                         (once.donor_dram.stats, every_op.donor_dram.stats)):
        assert list(ours.snapshot().items()) == list(theirs.snapshot().items())
    assert once.stats.snapshot()["reads"] == 5
    assert once.donor_dram.stats.snapshot() == {"accesses": 5, "bytes": 3 * LINE + 8 + 64}


def test_crma_latencies_through_a_shared_cache_are_never_memoized():
    cache = ClusterLatencyCache()
    channel = CrmaChannel(path=CachedFabricPath(cache=cache))
    assert channel.fixed_latencies_ns(LINE) is None
    channel.read_latency_ns(LINE)
    channel.read_latency_ns(LINE)
    # Two one-way queries per read, each one a counted cache lookup.
    assert cache.lookups == 4
    # A CachedFabricPath with no cache is the plain closed forms.
    assert CrmaChannel(path=CachedFabricPath()).fixed_latencies_ns(LINE) is not None


def test_crma_invalid_sizes():
    crma = CrmaChannel()
    with pytest.raises(ValueError):
        crma.read_latency_ns(0)
    with pytest.raises(ValueError):
        crma.write_latency_ns(-1)


# ----------------------------------------------------------------------
# RDMA channel
# ----------------------------------------------------------------------
def test_rdma_chunk_count():
    rdma = RdmaChannel(RdmaConfig(max_chunk_bytes=4096))
    assert rdma.chunk_count(4096) == 1
    assert rdma.chunk_count(4097) == 2
    assert rdma.chunk_count(1) == 1
    with pytest.raises(ValueError):
        rdma.chunk_count(0)


def test_rdma_large_transfers_amortise_setup():
    rdma = RdmaChannel()
    one_page = rdma.transfer_latency_ns(PAGE)
    many_pages = rdma.transfer_latency_ns(16 * PAGE)
    assert many_pages < 16 * one_page


def test_rdma_page_transfer_beats_per_line_crma_for_bulk():
    """Bulk data: one page over RDMA is cheaper than 128 CRMA line reads."""
    rdma = RdmaChannel()
    crma = CrmaChannel()
    lines_per_page = PAGE // LINE
    assert rdma.transfer_latency_ns(PAGE) < lines_per_page * crma.read_latency_ns(LINE)


def test_rdma_double_buffering_helps():
    pipelined = RdmaChannel(RdmaConfig(double_buffering=True))
    serialised = RdmaChannel(RdmaConfig(double_buffering=False))
    assert pipelined.transfer_latency_ns(64 * PAGE) < \
        serialised.transfer_latency_ns(64 * PAGE)


def test_rdma_lane_striping_raises_bandwidth():
    single = RdmaChannel(RdmaConfig(stripe_lanes=1))
    striped = RdmaChannel(RdmaConfig(stripe_lanes=4))
    assert striped.transfer_latency_ns(256 * 1024) < single.transfer_latency_ns(256 * 1024)
    assert striped.streaming_bandwidth_gbps() > single.streaming_bandwidth_gbps()


def test_rdma_swap_device_round_trip_and_overlap():
    device = RdmaSwapDevice(RdmaChannel())
    assert device.read_page_latency_ns(PAGE) > 0
    assert device.write_page_latency_ns(PAGE) > 0
    assert device.supports_write_overlap() is True
    no_overlap = RdmaSwapDevice(RdmaChannel(RdmaConfig(double_buffering=False)))
    assert no_overlap.supports_write_overlap() is False
    with pytest.raises(ValueError):
        RdmaSwapDevice(RdmaChannel(), driver_overhead_ns=-1)


# ----------------------------------------------------------------------
# QPair channel
# ----------------------------------------------------------------------
def test_qpair_message_latency_includes_software_ends():
    qpair = QPairChannel()
    latency = qpair.message_latency_ns(64)
    assert latency > qpair.path.one_way_latency_ns(64)
    assert latency >= qpair.send_overhead_ns() + qpair.receive_overhead_ns()


def test_qpair_round_trip_with_handler():
    qpair = QPairChannel()
    base = qpair.round_trip_latency_ns(16, 64)
    with_handler = qpair.round_trip_latency_ns(16, 64, remote_handler_ns=5000)
    assert with_handler == base + 5000


def test_qpair_streaming_bandwidth_higher_for_bigger_messages():
    qpair = QPairChannel()
    assert qpair.streaming_bandwidth_gbps(4096) > qpair.streaming_bandwidth_gbps(64)


def test_qpair_credit_limited_bandwidth_below_streaming():
    qpair = QPairChannel(QPairConfig(queue_depth=4))
    credit_limited = qpair.credit_limited_bandwidth_gbps(256, credit_return_latency_ns=5000)
    assert credit_limited <= qpair.streaming_bandwidth_gbps(256)
    with pytest.raises(ValueError):
        qpair.credit_limited_bandwidth_gbps(256, 1000, credits=0)


def test_qpair_memory_backend_far_slower_than_crma():
    """The Figure 5 gap: explicit messaging pays software on both ends."""
    qpair_backend = QPairRemoteMemoryBackend(QPairChannel())
    crma = CrmaChannel()
    assert qpair_backend.remote_read_latency_ns(LINE) > 3 * crma.read_latency_ns(LINE)
    assert qpair_backend.remote_write_latency_ns(LINE) < \
        qpair_backend.remote_read_latency_ns(LINE)


def test_qpair_backend_validation():
    with pytest.raises(ValueError):
        QPairRemoteMemoryBackend(QPairChannel(), remote_handler_ns=-1)
    with pytest.raises(ValueError):
        QPairChannel().message_latency_ns(0)
