"""Whole-run access streams of the analytic workloads.

Each analytic workload sends its run as lazily generated
``TimingCore.execute`` streams.  Three properties are checked here:

* a run is repeatable: one instance gives the same result on every core
  it runs on;
* ``Workload.run_all`` over a lockstep group of all-local, closed-form
  CRMA, local-disk-swap and RDMA-swap cores equals solo runs on fresh
  cores -- results, every registry of every core and its channel, and
  the shared cache, which ends as a solo run's cache does.  The paper
  figure drivers rely on both to run each workload once for all of its
  memory configurations;
* a run's memory does not grow with the workload's size, solo or in a
  group.
"""

import gc
import tracemalloc

import pytest

from repro.cpu.core import CpuConfig, TimingCore
from repro.cpu.hierarchy import MemoryHierarchy
from repro.experiments.common import ExperimentPlatform
from repro.mem.cache import Cache, CacheConfig
from repro.mem.memory_map import PhysicalMemoryMap
from repro.mem.swap import LocalDiskSwapDevice
from repro.workloads.connected_components import (
    ConnectedComponentsConfig,
    ConnectedComponentsWorkload,
)
from repro.workloads.graph500 import Graph500Config, Graph500Workload
from repro.workloads.grep import GrepConfig, GrepWorkload
from repro.workloads.kvstore import (
    KeyValueConfig,
    KeyValueWorkload,
    TransactionalKeyValueWorkload,
)
from repro.workloads.pagerank import PageRankConfig, PageRankWorkload
from repro.workloads.rediscache import RedisCacheConfig, RedisCacheWorkload

MB = 1024 * 1024


def all_local_core(dataset_bytes=8 * MB, cache=None):
    hierarchy = MemoryHierarchy(PhysicalMemoryMap(dataset_bytes + MB),
                                cache=cache or Cache(CacheConfig()))
    return TimingCore(hierarchy, CpuConfig(max_outstanding=4))


WORKLOADS = {
    "kvstore": lambda: KeyValueWorkload(KeyValueConfig(
        dataset_bytes=2 * MB, num_queries=300, per_query_overhead_ns=40, seed=3)),
    "kvstore-txn": lambda: TransactionalKeyValueWorkload(KeyValueConfig(
        dataset_bytes=2 * MB, num_queries=300, seed=4)),
    "pagerank-async": lambda: PageRankWorkload(PageRankConfig(
        num_vertices=1024, num_edges=3000, iterations=2, asynchronous=True,
        per_access_overhead_ns=25, seed=5)),
    "cc": lambda: ConnectedComponentsWorkload(ConnectedComponentsConfig(
        num_vertices=512, num_edges=2000, iterations=2, seed=6)),
    "grep": lambda: GrepWorkload(GrepConfig(dataset_bytes=MB, stride_records=2)),
    "graph500": lambda: Graph500Workload(Graph500Config(scale=8, num_roots=2, seed=7)),
    "redis": lambda: RedisCacheWorkload(RedisCacheConfig(
        cache_capacity_bytes=512 * 1024, key_space=4000, num_queries=400, seed=8)),
}


def outcome(result, core):
    return (result.execution, result.metrics,
            list(core.stats.snapshot().items()),
            list(core.hierarchy.stats.snapshot().items()))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_is_repeatable(name):
    workload = WORKLOADS[name]()
    runs = []
    for _ in range(2):
        core = all_local_core()
        runs.append(outcome(workload.run(core), core))
    core = all_local_core()
    fresh = outcome(WORKLOADS[name]().run(core), core)
    assert runs[0] == runs[1] == fresh
    assert runs[0][0].accesses > 0


# ----------------------------------------------------------------------
# Lockstep groups: one run for several memory configurations
# ----------------------------------------------------------------------
DATASET = 8 * MB
#: Local memory of the CRMA and swap configurations: small enough that
#: every workload fills remotely and faults pages.
LOCAL = 8 * 1024


def configurations():
    """Core builders (each taking ``cache=``) of four memory configurations."""
    platform = ExperimentPlatform(cpu=CpuConfig(max_outstanding=4))
    return {
        "all_local": lambda cache=None: platform.all_local_core(DATASET, cache=cache),
        "crma": lambda cache=None: platform.crma_core(DATASET, LOCAL, cache=cache),
        "disk_swap": lambda cache=None: platform.swap_core(
            DATASET, LOCAL, LocalDiskSwapDevice(), cache=cache),
        "rdma_swap": lambda cache=None: platform.rdma_swap_core(DATASET, LOCAL,
                                                                cache=cache),
    }


def registries(core):
    """Every registry of a core, its hierarchy, swap and channel, in order."""
    hierarchy = core.hierarchy
    found = [core.stats, hierarchy.stats, hierarchy.prefetcher.stats,
             hierarchy.dram.stats]
    channel = getattr(hierarchy.remote_backend, "channel", None)
    if hierarchy.swap is not None:
        found.append(hierarchy.swap.stats)
        channel = getattr(hierarchy.swap.device, "channel", None)
    if channel is not None:
        found += [channel.stats, channel.donor_dram.stats]
    # Same values and the same creation order.
    return [list(registry.snapshot().items()) for registry in found]


def cache_state(cache):
    return ([list(cache_set.items()) for cache_set in cache._sets],
            list(cache.stats.snapshot().items()))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_all_matches_solo_runs(name):
    builders = configurations()
    cache = Cache(CacheConfig())
    grouped = [build(cache=cache) for build in builders.values()]
    results = WORKLOADS[name]().run_all(grouped)
    assert len(results) == len(grouped)
    for (label, build), core, result in zip(builders.items(), grouped, results):
        solo = build()
        expected = WORKLOADS[name]().run(solo)
        assert (result.name, result.execution, result.metrics) == \
            (expected.name, expected.execution, expected.metrics), label
        assert registries(core) == registries(solo), label
        assert core.hierarchy.cache is cache
        assert cache_state(cache) == cache_state(solo.hierarchy.cache), label
    # The members served the one stream each in its own way.
    fills = [core.hierarchy.stats.snapshot() for core in grouped]
    assert fills[1].get("fills_remote", 0) > 0
    assert all(core.hierarchy.swap.fault_count > 0 for core in grouped[2:])
    assert len({result.total_time_ns for result in results}) == len(results)


def grep_peak_bytes(dataset_bytes, members=1):
    """Peak traced allocation of a grep run on ``members`` all-local cores."""
    workload = GrepWorkload(GrepConfig(dataset_bytes=dataset_bytes, stride_records=16))
    cache = Cache(CacheConfig())
    cores = [all_local_core(dataset_bytes, cache) for _ in range(members)]
    gc.collect()
    tracemalloc.start()
    try:
        results = workload.run_all(cores)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [result.metric("bytes_scanned") for result in results] == \
        [dataset_bytes // 16] * members
    return peak, cache.occupancy


def test_run_memory_does_not_grow_with_the_dataset():
    small, small_lines = grep_peak_bytes(4 * MB)
    large, large_lines = grep_peak_bytes(16 * MB)
    # Both scans overflow the 512 KB cache, which holds as many lines at
    # the end of either run, so only the stream could make the peaks
    # differ.
    assert small_lines == large_lines
    assert large <= 1.10 * small, (small, large)


def test_group_run_memory_does_not_grow_with_the_dataset():
    # Four times the work per access: a quarter of the solo sizes.
    small, small_lines = grep_peak_bytes(2 * MB, members=4)
    large, large_lines = grep_peak_bytes(8 * MB, members=4)
    assert small_lines == large_lines
    assert large <= 1.10 * small, (small, large)
