"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.address import RemoteAddressMappingTable
from repro.fabric.phy import LinkConfig
from repro.fabric.topology import build_mesh3d
from repro.mem.cache import Cache, CacheConfig
from repro.mem.memory_map import PhysicalMemoryMap
from repro.mem.swap import SwapConfig, SwapManager
from repro.sim.engine import Simulator
from repro.sim.resources import CreditPool
from repro.sim.rng import DeterministicRNG

MB = 1024 * 1024


# ----------------------------------------------------------------------
# Simulator ordering
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_simulator_executes_events_in_nondecreasing_time_order(delays):
    sim = Simulator()
    execution_times = []
    for delay in delays:
        sim.schedule(delay, lambda: execution_times.append(sim.now))
    sim.run_until_idle()
    assert execution_times == sorted(execution_times)
    assert len(execution_times) == len(delays)


# ----------------------------------------------------------------------
# Link latency model
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=1 << 20),
       st.integers(min_value=1, max_value=1 << 20))
def test_link_latency_is_monotonic_in_size(size_a, size_b):
    config = LinkConfig()
    small, large = sorted((size_a, size_b))
    assert config.packet_latency_ns(small) <= config.packet_latency_ns(large)


# ----------------------------------------------------------------------
# Cache invariants
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_cache_occupancy_bounded_and_rereads_hit(addresses):
    cache = Cache(CacheConfig(size_bytes=4096, line_bytes=32, associativity=4))
    max_lines = 4096 // 32
    for address in addresses:
        cache.access(address)
        assert cache.occupancy <= max_lines
    # Re-reading the most recent address always hits.
    assert cache.access(addresses[-1]).hit


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 16),
                          st.booleans()), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_cache_hits_plus_misses_equals_accesses(operations):
    cache = Cache(CacheConfig(size_bytes=2048, line_bytes=32, associativity=2))
    for address, is_write in operations:
        cache.access(address, is_write=is_write)
    hits = cache.stats.counter("hits").value
    misses = cache.stats.counter("misses").value
    assert hits + misses == len(operations)


# ----------------------------------------------------------------------
# Swap residency invariants
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300),
       st.integers(min_value=1, max_value=32),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_swap_resident_set_never_exceeds_frames(pages, frames, readahead):
    swap = SwapManager(SwapConfig(resident_frames=frames, readahead_pages=readahead))
    for page in pages:
        latency = swap.access(page * 4096)
        assert latency >= 0
        assert swap.resident_count <= frames
    # Touching the most recent page again is always resident.
    assert swap.access(pages[-1] * 4096) == 0


# ----------------------------------------------------------------------
# Credit pool conservation
# ----------------------------------------------------------------------
@given(st.lists(st.booleans(), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=16))
def test_credit_pool_conservation(operations, initial):
    sim = Simulator()
    pool = CreditPool(sim, initial=initial)
    taken = 0
    for take in operations:
        if take:
            if pool.try_take():
                taken += 1
        else:
            if taken > 0:
                pool.replenish()
                taken -= 1
    assert 0 <= pool.available <= initial
    assert pool.available == initial - taken


# ----------------------------------------------------------------------
# Memory map: hot-remove / hot-plug conservation
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_donor_capacity_is_conserved_across_sharing(sizes_mb):
    donor = PhysicalMemoryMap(1024 * MB, node_id=0)
    recipient = PhysicalMemoryMap(1024 * MB, node_id=1)
    donated = []
    for size_mb in sizes_mb:
        size = size_mb * MB
        if donor.local_capacity() >= size:
            region = donor.hot_remove(size, recipient_node=1)
            recipient.hot_plug_remote(size, donor_node=0, donor_base=region.start)
            donated.append(region)
        # Invariant: local + donated always equals the original capacity.
        assert donor.local_capacity() + donor.donated_capacity() == 1024 * MB
        assert recipient.remote_capacity() == sum(region.size for region in donated)
    for region in donated:
        donor.hot_add_back(region)
    assert donor.local_capacity() == 1024 * MB


# ----------------------------------------------------------------------
# RAMT translation round trip
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=(64 * MB) - 1))
def test_ramt_translation_preserves_offset(offset):
    ramt = RemoteAddressMappingTable()
    ramt.install(local_base=1024 * MB, size=64 * MB, remote_node=5,
                 remote_base=256 * MB)
    node, remote_address = ramt.translate(1024 * MB + offset)
    assert node == 5
    assert remote_address - 256 * MB == offset


# ----------------------------------------------------------------------
# Topology invariants
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_mesh_hop_count_equals_manhattan_distance(x_dim, y_dim, z_dim):
    topo = build_mesh3d((x_dim, y_dim, z_dim))
    assert topo.is_connected()
    coords = topo.coordinates
    for src in topo.nodes:
        for dst in topo.nodes:
            manhattan = sum(abs(a - b) for a, b in zip(coords[src], coords[dst]))
            assert topo.hop_count(src, dst) == manhattan


# ----------------------------------------------------------------------
# RNG determinism
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=1, max_value=1000))
def test_rng_streams_reproducible(seed, population):
    first = DeterministicRNG(seed)
    second = DeterministicRNG(seed)
    assert [first.uniform_int(0, population) for _ in range(10)] == \
        [second.uniform_int(0, population) for _ in range(10)]
