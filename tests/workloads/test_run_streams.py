"""Whole-run access streams of the analytic workloads.

Each analytic workload sends its run as lazily generated
``TimingCore.execute`` streams.  Two properties are checked here: a run
is repeatable (one instance gives the same result on every core it runs
on, which the Figure 15 driver relies on to build each workload once),
and a run's memory does not grow with the workload's size.
"""

import gc
import tracemalloc

import pytest

from repro.cpu.core import CpuConfig, TimingCore
from repro.cpu.hierarchy import MemoryHierarchy
from repro.mem.cache import Cache, CacheConfig
from repro.mem.memory_map import PhysicalMemoryMap
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


def all_local_core(dataset_bytes=8 * MB):
    hierarchy = MemoryHierarchy(PhysicalMemoryMap(dataset_bytes + MB),
                                cache=Cache(CacheConfig()))
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


def grep_peak_bytes(dataset_bytes):
    """Peak traced allocation of a grep run on an all-local core."""
    workload = GrepWorkload(GrepConfig(dataset_bytes=dataset_bytes, stride_records=16))
    core = all_local_core(dataset_bytes)
    gc.collect()
    tracemalloc.start()
    try:
        result = workload.run(core)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.metric("bytes_scanned") == dataset_bytes // 16
    return peak, core.hierarchy.cache.occupancy


def test_run_memory_does_not_grow_with_the_dataset():
    small, small_lines = grep_peak_bytes(4 * MB)
    large, large_lines = grep_peak_bytes(16 * MB)
    # Both scans overflow the 512 KB cache, which holds as many lines at
    # the end of either run, so only the stream could make the peaks
    # differ.
    assert small_lines == large_lines
    assert large <= 1.10 * small, (small, large)
