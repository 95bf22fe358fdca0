"""Unit tests for the Redis-cache service, FFT offload and iPerf workloads."""

from collections import OrderedDict

import pytest

from repro.accel.device import FftAccelerator
from repro.cpu.core import TimingCore
from repro.cpu.hierarchy import MemoryHierarchy
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import Dram
from repro.mem.memory_map import PhysicalMemoryMap
from repro.core.sharing.remote_accelerator import LocalAcceleratorTarget
from repro.nic.nic import Nic, NicConfig
from repro.workloads.fft_offload import FftOffloadConfig, FftOffloadWorkload
from repro.workloads.iperf import IperfConfig, IperfWorkload
from repro.sim.rng import DeterministicRNG
from repro.workloads.rediscache import (
    MysqlBackingStore,
    RedisCacheConfig,
    RedisCacheWorkload,
    WarmLru,
)

MB = 1024 * 1024


def make_core():
    hierarchy = MemoryHierarchy(PhysicalMemoryMap(512 * MB),
                                cache=Cache(CacheConfig()))
    return TimingCore(hierarchy)


# ----------------------------------------------------------------------
# Redis cache + MySQL backing store
# ----------------------------------------------------------------------
def test_rediscache_miss_rate_tracks_capacity():
    small = RedisCacheConfig(cache_capacity_bytes=1 * MB, key_space=50_000,
                             record_bytes=256, num_queries=2_000, seed=1)
    large = RedisCacheConfig(cache_capacity_bytes=8 * MB, key_space=50_000,
                             record_bytes=256, num_queries=2_000, seed=1)
    small_result = RedisCacheWorkload(small).run(make_core())
    large_result = RedisCacheWorkload(large).run(make_core())
    assert small_result.metric("miss_rate") > large_result.metric("miss_rate")
    # Uniform random queries: miss rate roughly 1 - capacity/key-space.
    expected = 1 - (small.cache_capacity_records / small.key_space)
    assert small_result.metric("miss_rate") == pytest.approx(expected, abs=0.05)


def test_rediscache_misses_dominate_execution_time():
    config = RedisCacheConfig(cache_capacity_bytes=1 * MB, key_space=50_000,
                              record_bytes=256, num_queries=1_000, seed=2)
    backing = MysqlBackingStore(miss_latency_ns=5_000_000)
    result = RedisCacheWorkload(config, backing_store=backing).run(make_core())
    miss_time = result.metric("misses") * backing.query_latency_ns()
    assert miss_time > 0.8 * result.total_time_ns


def test_rediscache_cold_cache_misses_more():
    config = RedisCacheConfig(cache_capacity_bytes=4 * MB, key_space=20_000,
                              record_bytes=256, num_queries=1_000, seed=3)
    warm = RedisCacheWorkload(config, warm=True).run(make_core())
    cold = RedisCacheWorkload(config, warm=False).run(make_core())
    assert cold.metric("miss_rate") > warm.metric("miss_rate")


@pytest.mark.parametrize("capacity, warm, key_space", [
    (50, 50, 400), (50, 20, 400), (50, 0, 400), (64, 64, 64), (30, 30, 31),
])
def test_warm_lru_matches_a_prefilled_ordered_dict(capacity, warm, key_space):
    rng = DeterministicRNG(capacity + warm)
    lru = WarmLru(capacity, warm)
    # Reference: the LRU prefilled eagerly, key k in slot capacity-1-k.
    free = list(range(capacity))
    reference = OrderedDict((key, free.pop()) for key in range(warm))
    for _ in range(3_000):
        key = rng.uniform_int(0, key_space - 1)
        assert (key in lru) == (key in reference)
        if key in reference:
            reference.move_to_end(key)
            assert lru.touch(key) == reference[key]
        else:
            slot = free.pop() if free else reference.popitem(last=False)[1]
            reference[key] = slot
            assert lru.insert(key) == slot
    assert all(key in lru for key in reference)
    assert sum(key in lru for key in range(key_space)) == len(reference)


def test_warm_lru_rejects_more_warm_keys_than_slots():
    with pytest.raises(ValueError):
        WarmLru(10, 11)


def test_rediscache_validation():
    with pytest.raises(ValueError):
        RedisCacheConfig(cache_capacity_bytes=0)


# ----------------------------------------------------------------------
# FFT offload
# ----------------------------------------------------------------------
def local_target():
    return LocalAcceleratorTarget(FftAccelerator(), dram=Dram())


def test_fft_offload_dispatches_every_block():
    config = FftOffloadConfig(dataset_bytes=4 * MB, block_bytes=512 * 1024)
    workload = FftOffloadWorkload(config, targets=[local_target()])
    result = workload.run(make_core())
    assert result.metric("blocks_dispatched") == 8
    assert result.total_time_ns > 0


def test_fft_offload_scales_with_targets():
    config = FftOffloadConfig(dataset_bytes=8 * MB, block_bytes=512 * 1024)
    one = FftOffloadWorkload(config, targets=[local_target()]).run(make_core())
    four = FftOffloadWorkload(config, targets=[local_target() for _ in range(4)]).run(
        make_core())
    assert four.total_time_ns < one.total_time_ns
    speedup = one.total_time_ns / four.total_time_ns
    assert speedup > 2.5


def test_fft_offload_requires_targets_and_valid_sizes():
    with pytest.raises(ValueError):
        FftOffloadWorkload(FftOffloadConfig(), targets=[])
    with pytest.raises(ValueError):
        FftOffloadConfig(dataset_bytes=1024, block_bytes=4096)


# ----------------------------------------------------------------------
# iPerf
# ----------------------------------------------------------------------
def test_iperf_measures_all_payload_sizes():
    iperf = IperfWorkload(IperfConfig(payload_sizes=(4, 64, 256)))
    nic = Nic()
    throughput = iperf.measure(nic)
    assert set(throughput) == {4, 64, 256}
    assert throughput[256] > throughput[4]


def test_iperf_utilization_and_speedup():
    iperf = IperfWorkload(IperfConfig(payload_sizes=(256,)))
    fast = Nic(NicConfig(line_rate_gbps=10.0))
    slow = Nic(NicConfig(line_rate_gbps=1.0))
    assert iperf.speedup_over(fast, slow)[256] > 1.0
    assert 0 < iperf.measure_utilization(slow)[256] <= 1.0


def test_iperf_validation():
    with pytest.raises(ValueError):
        IperfConfig(payload_sizes=())
    with pytest.raises(ValueError):
        IperfConfig(payload_sizes=(0,))
