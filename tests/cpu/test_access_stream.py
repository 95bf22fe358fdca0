"""The batched access stream against a reference per-access model.

``MemoryHierarchy.access_many`` (and ``TimingCore.access_many`` over it)
is the only implementation of a demand access.  This module keeps a
test-local copy of the per-access algorithm it replaced -- one cache
lookup, a linear scan of the memory map, one prefetcher observation,
one fill and string-keyed counters per access -- and drives both models
with the same seeded random streams over local, CRMA-remote,
swap-backed and mixed hierarchies, hot-plugging, unplugging and
removing memory between batches.  After every batch the two must agree
bit for bit: the core's float clocks, every latency, every component's
counters (values and creation order) and, at the end, every cache set.
"""

import heapq
from collections import OrderedDict

import pytest

from repro.cpu.core import CpuConfig, TimingCore
from repro.cpu.hierarchy import MemoryHierarchy, RemoteMemoryBackend
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import Dram, DramConfig
from repro.mem.memory_map import MemoryMapError, PhysicalMemoryMap, RegionKind
from repro.mem.prefetch import PrefetcherConfig, StreamPrefetcher
from repro.mem.swap import LocalDiskSwapDevice, SwapConfig, SwapManager
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import StatsRegistry

KB = 1024
CACHE = CacheConfig(size_bytes=4 * KB, line_bytes=32, associativity=2,
                    hit_latency_ns=5, miss_penalty_ns=3)
PREFETCH = PrefetcherConfig(num_streams=3, training_threshold=2, degree=4)
#: 667 MHz: a non-integer cycle time, so the clocks carry fractions.
CPU = CpuConfig(clock_mhz=667.0, max_outstanding=4)


class DriftingBackend(RemoteMemoryBackend):
    """Remote latencies that depend on how many calls came before."""

    def __init__(self):
        self.calls = 0

    def remote_read_latency_ns(self, size_bytes):
        self.calls += 1
        return 2000 + 37 * (self.calls % 11) + size_bytes

    def remote_write_latency_ns(self, size_bytes):
        self.calls += 1
        return 150 + 13 * (self.calls % 5)


# ----------------------------------------------------------------------
# Reference: the per-access algorithm, one call per access
# ----------------------------------------------------------------------
def ref_lookup(memory_map, address):
    for region in memory_map.regions:
        if region.contains(address) and region.kind != RegionKind.REMOVED:
            return region
    raise MemoryMapError(f"address {address:#x} is not mapped")


def ref_visible(memory_map):
    return sum(region.size for region in memory_map.regions
               if region.kind in (RegionKind.LOCAL, RegionKind.REMOTE_MAPPED))


def ref_highest(memory_map):
    return max(region.end for region in memory_map.regions)


def ref_is_remote(memory_map, address):
    try:
        return ref_lookup(memory_map, address).kind == RegionKind.REMOTE_MAPPED
    except MemoryMapError:
        return False


class RefCache:
    def __init__(self, config):
        self.config = config
        self.stats = StatsRegistry("cache")
        self.sets = [OrderedDict() for _ in range(config.num_sets)]

    def access(self, address, is_write):
        line_address = address // self.config.line_bytes
        set_index = line_address % self.config.num_sets
        tag = line_address // self.config.num_sets
        cache_set = self.sets[set_index]
        self.stats.counter("writes" if is_write else "reads").increment()
        if tag in cache_set:
            cache_set.move_to_end(tag)
            if is_write:
                cache_set[tag] = True
            self.stats.counter("hits").increment()
            return True, self.config.hit_latency_ns, None, line_address
        self.stats.counter("misses").increment()
        writeback = None
        if len(cache_set) >= self.config.associativity:
            victim_tag, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty:
                victim_line = victim_tag * self.config.num_sets + set_index
                writeback = victim_line * self.config.line_bytes
                self.stats.counter("writebacks").increment()
        cache_set[tag] = is_write
        latency = self.config.hit_latency_ns + self.config.miss_penalty_ns
        return False, latency, writeback, line_address


class RefPrefetcher:
    def __init__(self, config):
        self.config = config
        self.stats = StatsRegistry("prefetch")
        self.streams = {}
        self.next_stream_id = 0

    def observe_miss(self, line_address):
        for state in self.streams.values():
            expected, trained = state
            if line_address == expected:
                state[0] = line_address + 1
                state[1] = trained + 1
                if trained >= self.config.training_threshold:
                    self.stats.counter("stream_hits").increment()
                    return self.config.degree
                self.stats.counter("training_hits").increment()
                return 1
        self.streams[self.next_stream_id] = [line_address + 1, 1]
        self.next_stream_id += 1
        while len(self.streams) > self.config.num_streams:
            del self.streams[min(self.streams)]
        self.stats.counter("stream_allocations").increment()
        return 1


class RefHierarchy:
    def __init__(self, memory_map, backend, swap):
        self.memory_map = memory_map
        self.cache = RefCache(CACHE)
        self.dram = Dram(DramConfig())
        self.backend = backend
        self.swap = swap
        self.prefetcher = RefPrefetcher(PREFETCH)
        self.stats = StatsRegistry("memhier")
        self.line = CACHE.line_bytes

    def access(self, address, is_write):
        hit, latency, writeback, line_address = self.cache.access(address, is_write)
        if hit:
            self.stats.counter("cache_hits").increment()
            return latency, "cache"
        if writeback is not None:
            latency += self._fill_latency(writeback)
        served_by, fill_ns = self._classify_and_fill(address, is_write)
        if served_by in ("dram", "remote"):
            factor = self.prefetcher.observe_miss(line_address)
            if factor > 1:
                floor = self.dram.access_latency_ns(self.line)
                fill_ns = max(fill_ns // factor, floor)
                self.stats.counter("prefetch_covered_fills").increment()
        latency += fill_ns
        self.stats.counter(f"fills_{served_by}").increment()
        return latency, served_by

    def _classify_and_fill(self, address, is_write):
        memory_map = self.memory_map
        visible = ref_visible(memory_map)
        if address >= ref_highest(memory_map) or (
            address >= visible and not ref_is_remote(memory_map, address)
        ):
            if self.swap is None:
                raise RuntimeError("beyond visible memory without swap")
            swap_ns = self.swap.access(address, is_write=is_write)
            return "swap", swap_ns + self.dram.access_latency_ns(self.line)
        region = ref_lookup(memory_map, address)
        if region.kind == RegionKind.REMOTE_MAPPED:
            if self.backend is None:
                raise RuntimeError("remote-mapped without backend")
            if is_write:
                return "remote", self.backend.remote_write_latency_ns(self.line)
            return "remote", self.backend.remote_read_latency_ns(self.line)
        return "dram", self.dram.access_latency_ns(self.line)

    def _fill_latency(self, address):
        try:
            return self._classify_and_fill(address, True)[1]
        except RuntimeError:
            return 0

    def backs(self, address):
        """True when a demand miss to ``address`` would not raise."""
        memory_map = self.memory_map
        if address >= ref_highest(memory_map) or (
            address >= ref_visible(memory_map)
            and not ref_is_remote(memory_map, address)
        ):
            return self.swap is not None
        try:
            region = ref_lookup(memory_map, address)
        except MemoryMapError:
            return False
        return region.kind != RegionKind.REMOTE_MAPPED or self.backend is not None


class RefCore:
    def __init__(self, hierarchy):
        self.hierarchy = hierarchy
        self.config = CPU
        self.stats = StatsRegistry("core")
        self.now = 0.0
        self.memory_ns = 0.0
        self.outstanding = []

    def compute(self, instructions):
        elapsed = self.config.cycles_to_ns(instructions * self.config.cycles_per_instruction)
        self.now += elapsed
        self.stats.counter("instructions").increment(int(instructions))

    def stall(self, nanoseconds):
        self.now += nanoseconds

    def blocking(self, address, is_write):
        latency, served_by = self.hierarchy.access(address, is_write)
        self.now += latency
        self.memory_ns += latency
        self._count(served_by)
        return latency

    def asynchronous(self, address, is_write):
        if len(self.outstanding) >= self.config.max_outstanding:
            oldest = heapq.heappop(self.outstanding)
            if oldest > self.now:
                stall = oldest - self.now
                self.now = oldest
                self.memory_ns += stall
        latency, served_by = self.hierarchy.access(address, is_write)
        self._count(served_by)
        heapq.heappush(self.outstanding, self.now + latency)
        return latency

    def drain(self):
        if not self.outstanding:
            return
        last = max(self.outstanding)
        if last > self.now:
            self.memory_ns += last - self.now
            self.now = last
        self.outstanding.clear()

    def _count(self, served_by):
        self.stats.counter("accesses").increment()
        if served_by == "cache":
            self.stats.counter("cache_hits").increment()
        if served_by == "remote":
            self.stats.counter("remote_accesses").increment()
        elif served_by == "swap":
            self.stats.counter("swap_accesses").increment()


# ----------------------------------------------------------------------
# Twin systems
# ----------------------------------------------------------------------
class Twins:
    """The batched system and the reference, built and mutated alike."""

    def __init__(self, layout):
        self.maps = []
        for _ in range(2):
            if layout == "swap":
                memory_map = PhysicalMemoryMap(4 * KB)
            else:
                memory_map = PhysicalMemoryMap(64 * KB)
            if layout in ("remote", "mixed"):
                memory_map.hot_plug_remote(64 * KB, donor_node=1, donor_base=0)
            self.maps.append(memory_map)
        remote = layout in ("remote", "mixed")
        swapped = layout in ("swap", "mixed")

        def swap_manager():
            return SwapManager(SwapConfig(resident_frames=6, fault_overhead_ns=800,
                                          readahead_pages=3),
                               device=LocalDiskSwapDevice(read_latency_us=20.0,
                                                          write_latency_us=31.0))

        self.swaps = [swap_manager() if swapped else None for _ in range(2)]
        self.backends = [DriftingBackend() if remote else None for _ in range(2)]
        self.hierarchy = MemoryHierarchy(
            self.maps[0], cache=Cache(CACHE), dram=Dram(DramConfig()),
            remote_backend=self.backends[0], swap=self.swaps[0],
            prefetcher=StreamPrefetcher(PREFETCH))
        self.core = TimingCore(self.hierarchy, config=CPU)
        self.ref = RefCore(RefHierarchy(self.maps[1], self.backends[1], self.swaps[1]))
        #: Hot-plugged regions on both sides, pairwise.
        self.plugged = []
        self.donated = []

    # -- map mutations, applied to both maps ---------------------------
    def hot_plug_remote(self, size):
        self.plugged.append(tuple(m.hot_plug_remote(size, donor_node=2, donor_base=0)
                                  for m in self.maps))

    def hot_unplug(self, index):
        pair = self.plugged.pop(index)
        for memory_map, region in zip(self.maps, pair):
            memory_map.hot_unplug(region)

    def hot_remove(self, size):
        self.donated.append(tuple(m.hot_remove(size, recipient_node=3)
                                  for m in self.maps))

    def hot_add_back(self):
        for memory_map, region in zip(self.maps, self.donated.pop(0)):
            memory_map.hot_add_back(region)

    # -- comparison ----------------------------------------------------
    def assert_identical(self):
        core, ref = self.core, self.ref
        assert (core._now, core._memory_ns) == (ref.now, ref.memory_ns)
        assert sorted(core._outstanding) == sorted(ref.outstanding)
        hierarchy, ref_h = self.hierarchy, ref.hierarchy
        pairs = [(core.stats, ref.stats), (hierarchy.stats, ref_h.stats),
                 (hierarchy.cache.stats, ref_h.cache.stats),
                 (hierarchy.prefetcher.stats, ref_h.prefetcher.stats),
                 (hierarchy.dram.stats, ref_h.dram.stats)]
        if self.swaps[0] is not None:
            pairs.append((self.swaps[0].stats, self.swaps[1].stats))
        for ours, theirs in pairs:
            # Same values and the same creation order.
            assert list(ours.snapshot().items()) == list(theirs.snapshot().items())

    def assert_same_state(self):
        self.assert_identical()
        ours = [list(cache_set.items()) for cache_set in self.hierarchy.cache._sets]
        assert ours == [list(cache_set.items()) for cache_set in self.ref.hierarchy.cache.sets]
        assert (list(self.hierarchy.prefetcher._streams.values())
                == list(self.ref.hierarchy.prefetcher.streams.values()))
        if self.swaps[0] is not None:
            assert self.swaps[0].resident_count == self.swaps[1].resident_count


def random_addresses(rng, twins, count):
    """``count`` demand addresses the hierarchy can serve."""
    ref = twins.ref.hierarchy
    line = CACHE.line_bytes
    span = ref_highest(ref.memory_map) + 32 * KB
    addresses = []
    while len(addresses) < count:
        style = rng.uniform_int(0, 3)
        if style == 0:
            # A sequential run: trains and then rides a prefetch stream.
            start = rng.uniform_int(0, span // line) * line
            run = [start + i * line for i in range(rng.uniform_int(2, 9))]
        elif style == 1 and addresses:
            run = [rng.choice(addresses) + rng.uniform_int(0, line - 1)]
        elif style == 2:
            # Lines sharing one set: evictions and dirty writebacks.
            base = rng.uniform_int(0, CACHE.num_sets - 1) * line
            stride = CACHE.num_sets * line
            run = [base + rng.uniform_int(0, span // stride) * stride]
        else:
            run = [rng.uniform_int(0, span - 1)]
        addresses.extend(a for a in run if ref.backs(a))
    return addresses[:count]


def run_twins(layout, seed, batches=160):
    rng = DeterministicRNG(seed)
    twins = Twins(layout)
    core, ref = twins.core, twins.ref
    for batch in range(batches):
        step = rng.uniform_int(0, 9)
        if step == 0:
            instructions = rng.uniform_int(1, 400)
            core.compute(instructions)
            ref.compute(instructions)
        elif step == 1:
            stall = rng.uniform(0.0, 500.0)
            core.stall(stall)
            ref.stall(stall)
        elif step == 2:
            core.drain()
            ref.drain()
        elif step == 3 and layout == "mixed":
            mutate = rng.uniform_int(0, 3)
            if mutate == 0 or not twins.plugged:
                twins.hot_plug_remote(rng.uniform_int(1, 8) * 4 * KB)
            elif mutate == 1:
                twins.hot_unplug(rng.uniform_int(0, len(twins.plugged) - 1))
            elif mutate == 2 and len(twins.donated) < 3:
                twins.hot_remove(rng.uniform_int(1, 4) * 4 * KB)
            elif twins.donated:
                twins.hot_add_back()

        addresses = random_addresses(rng, twins, rng.uniform_int(1, 12))
        if rng.bernoulli(0.5):
            writes = rng.bernoulli(0.4)
            flags = [writes] * len(addresses)
        else:
            flags = writes = [rng.bernoulli(0.4) for _ in addresses]
        asynchronous = rng.bernoulli(0.3)
        if len(addresses) == 1 and rng.bernoulli(0.5):
            # The per-access wrappers.
            address, is_write = addresses[0], flags[0]
            if asynchronous:
                method = core.write_async if is_write else core.read_async
            else:
                method = core.write if is_write else core.read
            latencies = [method(address)]
        else:
            latencies = core.access_many(addresses, writes, asynchronous=asynchronous)
        issue = ref.asynchronous if asynchronous else ref.blocking
        expected = [issue(address, is_write) for address, is_write in zip(addresses, flags)]
        assert latencies == expected, f"batch {batch}"
        twins.assert_identical()
    core.drain()
    ref.drain()
    twins.assert_same_state()
    return twins


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("layout", ["local", "remote", "swap", "mixed"])
def test_batched_stream_matches_per_access_reference(layout, seed):
    twins = run_twins(layout, seed)
    counters = twins.hierarchy.stats.snapshot()
    # The streams exercise what they are meant to.
    assert counters.get("cache_hits", 0) > 0
    assert twins.hierarchy.cache.stats.counter("writebacks").value > 0
    assert counters.get("prefetch_covered_fills", 0) > 0 or layout == "swap"
    if layout in ("remote", "mixed"):
        assert counters.get("fills_remote", 0) > 0
    if layout in ("swap", "mixed"):
        assert counters.get("fills_swap", 0) > 0


def test_mixed_stream_mutates_the_map_between_batches():
    twins = run_twins("mixed", seed=4)
    # hot_plug_remote, hot_unplug and hot_remove all ran (each bumps
    # the version once), and the batched side kept up with them.
    assert twins.maps[0].version >= 10
    assert twins.maps[0].version == twins.maps[1].version


def test_direct_hierarchy_access_matches_reference():
    rng = DeterministicRNG(9)
    twins = Twins("mixed")
    for _ in range(400):
        (address,) = random_addresses(rng, twins, 1)
        is_write = rng.bernoulli(0.3)
        outcome = twins.hierarchy.access(address, is_write=is_write)
        latency, served_by = twins.ref.hierarchy.access(address, is_write)
        assert (outcome.latency_ns, outcome.served_by, outcome.cache_hit) == \
            (latency, served_by, served_by == "cache")
    twins.assert_same_state()
