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

The ``crma`` layout serves remote misses through a closed-form CRMA
channel, which computes its constant fill costs once per size; its
reference twin recomputes every fill.

``TimingCore.execute`` -- the whole-run compute/access stream the
analytic workloads send -- is checked against the same stream made of
``compute()`` + ``access_many()`` calls, group by group, across its
chunk boundaries and for its mid-stream exception contract.

A ``LockstepGroup`` -- several cores over one cache, driven by one
stream -- is checked against solo cores, for its exception contract
with one failing member, and for the ``ExperimentPlatform`` entry
point that groups cores only on the closed-form backend.
"""

import heapq
from collections import OrderedDict

import pytest

from repro.core.channels.backend import ClosedFormBackend
from repro.core.channels.crma import CrmaChannel, CrmaRemoteBackend
from repro.core.channels.path import FabricPath
from repro.cpu.core import STREAM_CHUNK, CpuConfig, LockstepGroup, TimingCore
from repro.cpu.hierarchy import MemoryHierarchy, RemoteMemoryBackend
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import Dram, DramConfig
from repro.mem.memory_map import MemoryMapError, PhysicalMemoryMap, RegionKind
from repro.mem.prefetch import PrefetcherConfig, StreamPrefetcher
from repro.experiments.common import ExperimentPlatform
from repro.mem.swap import LocalDiskSwapDevice, SwapConfig, SwapManager
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import StatsRegistry
from repro.workloads.base import Workload
from repro.workloads.fft_offload import FftOffloadConfig, FftOffloadWorkload

KB = 1024
CACHE = CacheConfig(size_bytes=4 * KB, line_bytes=32, associativity=2,
                    hit_latency_ns=5, miss_penalty_ns=3)
PREFETCH = PrefetcherConfig(num_streams=3, training_threshold=2, degree=4)
#: 667 MHz: a non-integer cycle time, so the clocks carry fractions.
CPU = CpuConfig(clock_mhz=667.0, max_outstanding=4)


class RecomputingClosedForm(ClosedFormBackend):
    """The closed forms, recomputed on every op (a subclass is never memoized)."""


def crma_backend(memoized):
    path = FabricPath()
    backend = ClosedFormBackend(path) if memoized else RecomputingClosedForm(path)
    return CrmaRemoteBackend(CrmaChannel(path=path, backend=backend))


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
    """The batched system and the reference, built and mutated alike.

    ``cache`` is the batched hierarchy's cache (a fresh one by default).
    """

    def __init__(self, layout, cache=None):
        self.maps = []
        for _ in range(2):
            if layout == "swap":
                memory_map = PhysicalMemoryMap(4 * KB)
            else:
                memory_map = PhysicalMemoryMap(64 * KB)
            if layout in ("remote", "mixed", "crma"):
                memory_map.hot_plug_remote(64 * KB, donor_node=1, donor_base=0)
            self.maps.append(memory_map)
        remote = layout in ("remote", "mixed", "crma")
        swapped = layout in ("swap", "mixed", "crma")

        def swap_manager():
            return SwapManager(SwapConfig(resident_frames=6, fault_overhead_ns=800,
                                          readahead_pages=3),
                               device=LocalDiskSwapDevice(read_latency_us=20.0,
                                                          write_latency_us=31.0))

        self.swaps = [swap_manager() if swapped else None for _ in range(2)]
        if layout == "crma":
            self.backends = [crma_backend(memoized=True), crma_backend(memoized=False)]
        else:
            self.backends = [DriftingBackend() if remote else None for _ in range(2)]
        self.hierarchy = MemoryHierarchy(
            self.maps[0], cache=cache if cache is not None else Cache(CACHE),
            dram=Dram(DramConfig()),
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
        if isinstance(self.backends[0], CrmaRemoteBackend):
            ours, theirs = (backend.channel for backend in self.backends)
            pairs += [(ours.stats, theirs.stats),
                      (ours.donor_dram.stats, theirs.donor_dram.stats)]
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
        elif step == 3 and layout in ("mixed", "crma"):
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
@pytest.mark.parametrize("layout", ["local", "remote", "swap", "mixed", "crma"])
def test_batched_stream_matches_per_access_reference(layout, seed):
    twins = run_twins(layout, seed)
    counters = twins.hierarchy.stats.snapshot()
    # The streams exercise what they are meant to.
    assert counters.get("cache_hits", 0) > 0
    assert twins.hierarchy.cache.stats.counter("writebacks").value > 0
    assert counters.get("prefetch_covered_fills", 0) > 0 or layout == "swap"
    if layout in ("remote", "mixed", "crma"):
        assert counters.get("fills_remote", 0) > 0
    if layout in ("swap", "mixed", "crma"):
        assert counters.get("fills_swap", 0) > 0
    if layout == "crma":
        # Memoized reads, writes and remote writebacks all happened.
        channel = twins.backends[0].channel.stats.snapshot()
        assert channel["reads"] > 0 and channel["writes"] > 0


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


# ----------------------------------------------------------------------
# TimingCore.execute: compute folded into the access stream
# ----------------------------------------------------------------------
def stream_groups(seed, twins, accesses):
    """Seeded ``(instructions, [(address, is_write), ...])`` groups.

    Together they hold exactly ``accesses`` accesses; about a quarter of
    the groups carry no compute (None) and a quarter compute nothing (0).
    """
    rng = DeterministicRNG(seed)
    groups = []
    total = 0
    while total < accesses:
        size = min(rng.uniform_int(1, 5), accesses - total)
        pick = rng.uniform_int(0, 3)
        instructions = (None, 0)[pick] if pick < 2 else rng.uniform_int(1, 300)
        group = [(address, rng.bernoulli(0.4))
                 for address in random_addresses(rng, twins, size)]
        groups.append((instructions, group))
        total += size
    return groups


def as_stream(groups):
    """The groups as ``execute`` items: compute rides on the first access."""
    for instructions, group in groups:
        before = instructions
        for address, is_write in group:
            yield before, address, is_write
            before = None


def run_groups(core, groups, asynchronous, stall_ns):
    """The reference: ``stall`` + ``compute`` + ``access_many`` per group."""
    for instructions, group in groups:
        if instructions is not None:
            if stall_ns:
                core.stall(stall_ns)
            core.compute(instructions)
        core.access_many([address for address, _ in group],
                         [is_write for _, is_write in group],
                         asynchronous=asynchronous)


def core_state(twins):
    """Every number the core and the hierarchy below it hold."""
    core = twins.core
    hierarchy = core.hierarchy
    registries = [core.stats, hierarchy.stats, hierarchy.cache.stats,
                  hierarchy.prefetcher.stats, hierarchy.dram.stats]
    if hierarchy.swap is not None:
        registries.append(hierarchy.swap.stats)
    if isinstance(hierarchy.remote_backend, CrmaRemoteBackend):
        channel = hierarchy.remote_backend.channel
        registries += [channel.stats, channel.donor_dram.stats]
    return ((core._now, core._compute_ns, core._memory_ns, core._stall_ns,
             list(core._outstanding)),
            [list(registry.snapshot().items()) for registry in registries])


@pytest.mark.parametrize("stall_ns", [0, 37.5])
@pytest.mark.parametrize("length", [STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 1])
@pytest.mark.parametrize("asynchronous", [False, True])
@pytest.mark.parametrize("layout", ["mixed", "crma"])
def test_execute_matches_compute_and_access_many(layout, asynchronous, length, stall_ns):
    streamed, grouped = Twins(layout), Twins(layout)
    groups = stream_groups(length + 7 * asynchronous, streamed, length)
    assert sum(len(group) for _, group in groups) == length
    assert any(instructions is None for instructions, _ in groups)
    assert any(instructions == 0 for instructions, _ in groups)

    streamed.core.execute(as_stream(groups), asynchronous=asynchronous,
                          stall_ns=stall_ns)
    run_groups(grouped.core, groups, asynchronous, stall_ns)
    # Bit-identical clocks, outstanding window and counters (values and
    # creation order) in every component.
    assert core_state(streamed) == core_state(grouped)

    # ...and the same as the independent per-access model.
    for instructions, group in groups:
        if instructions is not None:
            streamed.ref.stall(stall_ns)
            streamed.ref.compute(instructions)
        access = streamed.ref.asynchronous if asynchronous else streamed.ref.blocking
        for address, is_write in group:
            access(address, is_write)
    streamed.assert_identical()


def test_execute_with_no_compute_creates_no_instruction_counter():
    streamed, grouped = Twins("local"), Twins("local")
    groups = [(None, group) for _, group in stream_groups(5, streamed, 40)]
    streamed.core.execute(as_stream(groups))
    run_groups(grouped.core, groups, False, 0)
    assert core_state(streamed) == core_state(grouped)
    assert "instructions" not in streamed.core.stats.snapshot()


def test_execute_counter_order_follows_first_use():
    """An access with no compute first: ``accesses`` precedes ``instructions``."""
    streamed, grouped = Twins("mixed"), Twins("mixed")
    groups = stream_groups(11, streamed, 64)
    groups[0] = (None, groups[0][1])
    streamed.core.execute(as_stream(groups))
    run_groups(grouped.core, groups, False, 0)
    assert core_state(streamed) == core_state(grouped)
    keys = list(streamed.core.stats.snapshot())
    assert keys.index("accesses") < keys.index("instructions")


# Mid-stream exceptions.  The contract: every chunk before the one that
# raises has been applied in full; the raising chunk's stalls, compute
# and latencies are not applied to the core; the hierarchy has served
# that chunk's accesses before the failing one, and its cache has
# looked up the whole chunk.
BAD_ADDRESS = 1 << 40  # beyond visible memory on a hierarchy with no swap


def test_execute_access_error_leaves_earlier_chunks_applied():
    streamed, grouped = Twins("remote"), Twins("remote")
    groups = stream_groups(21, streamed, 2 * STREAM_CHUNK + 10)
    items = list(as_stream(groups))
    failing = STREAM_CHUNK + 5
    items[failing] = (items[failing][0], BAD_ADDRESS, False)

    with pytest.raises(RuntimeError, match="exceeds visible memory"):
        streamed.core.execute(iter(items), stall_ns=12)

    # The core holds exactly the first chunk.
    first_chunk = items[:STREAM_CHUNK]
    for instructions, address, is_write in first_chunk:
        if instructions is not None:
            grouped.core.stall(12)
            grouped.core.compute(instructions)
        grouped.core.access_many([address], [is_write])
    ours, theirs = core_state(streamed), core_state(grouped)
    assert ours[0] == theirs[0]
    assert ours[1][0] == theirs[1][0]  # core counters
    # The hierarchy also served the second chunk up to the failing access...
    prefix = items[STREAM_CHUNK:failing]
    grouped.hierarchy.access_many([address for _, address, _ in prefix],
                                  [is_write for _, _, is_write in prefix])
    assert core_state(streamed)[1][1] == core_state(grouped)[1][1]
    # ...while its cache looked up the whole second chunk.
    looked_up = sum(streamed.hierarchy.cache.stats.snapshot().get(key, 0)
                    for key in ("reads", "writes"))
    assert looked_up == 2 * STREAM_CHUNK


def test_execute_stream_error_applies_nothing_of_its_chunk():
    streamed, grouped = Twins("mixed"), Twins("mixed")
    items = list(as_stream(stream_groups(22, streamed, STREAM_CHUNK + 3)))

    def failing_stream():
        yield from items
        raise KeyError("workload bug")

    with pytest.raises(KeyError):
        streamed.core.execute(failing_stream())
    first_chunk = items[:STREAM_CHUNK]
    for instructions, address, is_write in first_chunk:
        if instructions is not None:
            grouped.core.compute(instructions)
        grouped.core.access_many([address], [is_write])
    assert core_state(streamed) == core_state(grouped)


def test_execute_rejects_negative_compute_before_touching_the_chunk():
    streamed, grouped = Twins("local"), Twins("local")
    items = list(as_stream(stream_groups(23, streamed, STREAM_CHUNK + 3)))
    items[STREAM_CHUNK + 1] = (-1, items[STREAM_CHUNK + 1][1], False)
    with pytest.raises(ValueError, match="non-negative"):
        streamed.core.execute(iter(items))
    for instructions, address, is_write in items[:STREAM_CHUNK]:
        if instructions is not None:
            grouped.core.compute(instructions)
        grouped.core.access_many([address], [is_write])
    assert core_state(streamed) == core_state(grouped)
    with pytest.raises(ValueError, match="non-negative"):
        streamed.core.execute(iter(items[:1]), stall_ns=-1)


# ----------------------------------------------------------------------
# LockstepGroup: several cores over one cache, driven by one stream
# ----------------------------------------------------------------------
def lockstep(layouts):
    """Twins over one shared cache, and the group of their cores."""
    cache = Cache(CACHE)
    members = [Twins(layout, cache=cache) for layout in layouts]
    return members, LockstepGroup([twins.core for twins in members])


def cache_sets(twins):
    return [list(cache_set.items()) for cache_set in twins.hierarchy.cache._sets]


def without_cache(state):
    """``core_state`` without the cache's registry (index 2)."""
    clocks, registries = state
    return clocks, registries[:2] + registries[3:]


@pytest.mark.parametrize("asynchronous", [False, True])
def test_group_matches_solo_cores(asynchronous):
    layouts = ("mixed", "crma", "swap")
    members, group = lockstep(layouts)
    solos = [Twins(layout) for layout in layouts]
    items = list(as_stream(stream_groups(31, members[0], 2 * STREAM_CHUNK + 9)))
    for target in [group] + [twins.core for twins in solos]:
        target.execute(iter(items), asynchronous=asynchronous, stall_ns=12.5)
        target.compute(77)
        target.stall(3.25)
        target.access_many([64, 160 * KB, 96], [True, False, True],
                           asynchronous=asynchronous)
        target.drain()
    for twins, solo in zip(members, solos):
        # Clocks and every registry, the shared cache's included, match
        # a solo core; so do the shared cache's sets.
        assert core_state(twins) == core_state(solo)
        assert cache_sets(twins) == cache_sets(solo)
    assert group.line_bytes == CACHE.line_bytes


def test_group_members_must_share_one_cache():
    with pytest.raises(ValueError, match="share one Cache"):
        LockstepGroup([Twins("local").core, Twins("local").core])
    with pytest.raises(ValueError, match="at least one core"):
        LockstepGroup([])
    # Workload.run_all groups its cores, so it refuses them too.
    members = [Twins("local").core, Twins("local").core]
    with pytest.raises(ValueError, match="share one Cache"):
        RecordingWorkload([]).run_all(members)


def test_group_rejects_negative_compute_before_touching_the_cache():
    layouts = ("local", "crma")
    members, group = lockstep(layouts)
    items = list(as_stream(stream_groups(23, members[0], STREAM_CHUNK + 3)))
    items[STREAM_CHUNK + 1] = (-1, items[STREAM_CHUNK + 1][1], False)
    with pytest.raises(ValueError, match="non-negative"):
        group.execute(iter(items))
    # Every member, and the shared cache, hold exactly the first chunk.
    for layout, twins in zip(layouts, members):
        solo = Twins(layout)
        solo.core.execute(iter(items[:STREAM_CHUNK]))
        assert core_state(twins) == core_state(solo)
        assert cache_sets(twins) == cache_sets(solo)


def test_group_member_error_leaves_the_documented_partial_state():
    # Only the middle member has no swap: an access beyond visible
    # memory fails there and nowhere else.
    members, group = lockstep(("mixed", "remote", "crma"))
    items = list(as_stream(stream_groups(21, members[1], 2 * STREAM_CHUNK + 10)))
    failing = STREAM_CHUNK + 5
    items[failing] = (items[failing][0], BAD_ADDRESS, False)
    with pytest.raises(RuntimeError, match="exceeds visible memory"):
        group.execute(iter(items), stall_ns=12)
    raising_chunk_end = 2 * STREAM_CHUNK

    # The cache looked up the whole raising chunk...
    looked_up = sum(members[0].hierarchy.cache.stats.snapshot().get(key, 0)
                    for key in ("reads", "writes"))
    assert looked_up == raising_chunk_end
    # ...the member before the failing one applied all of it...
    before = Twins("mixed")
    before.core.execute(iter(items[:raising_chunk_end]), stall_ns=12)
    assert core_state(members[0]) == core_state(before)
    assert cache_sets(members[0]) == cache_sets(before)
    # ...the failing member's core holds the first chunk only, while its
    # hierarchy served the raising chunk up to the failing access...
    failed = Twins("remote")
    failed.core.execute(iter(items[:STREAM_CHUNK]), stall_ns=12)
    ours, theirs = without_cache(core_state(members[1])), without_cache(core_state(failed))
    assert ours[0] == theirs[0]
    assert ours[1][0] == theirs[1][0]  # core counters
    prefix = items[STREAM_CHUNK:failing]
    failed.hierarchy.access_many([address for _, address, _ in prefix],
                                 [is_write for _, _, is_write in prefix])
    assert without_cache(core_state(members[1])) == without_cache(core_state(failed))
    # ...and the member after it has not seen the raising chunk.
    after = Twins("crma")
    after.core.execute(iter(items[:STREAM_CHUNK]), stall_ns=12)
    assert without_cache(core_state(members[2])) == without_cache(core_state(after))


class FixedTarget:
    """An accelerator that takes the same time for every task."""

    def task_latency_ns(self, input_bytes, output_bytes, elements):
        return 5_000


def test_fft_offload_fails_loudly_in_a_group():
    workload = FftOffloadWorkload(FftOffloadConfig(dataset_bytes=4 * KB, block_bytes=KB),
                                  targets=[FixedTarget()])
    members, _ = lockstep(("local", "local"))
    # Its dispatch reads the core's clock, which a group does not offer.
    with pytest.raises(AttributeError, match="now_ns"):
        workload.run_all([twins.core for twins in members])
    assert workload.run(Twins("local").core).total_time_ns >= 4 * 5_000


class RecordingWorkload(Workload):
    """Logs what it runs on; one compute burst per run."""

    name = "recording"

    def __init__(self, log):
        self.log = log

    def _drive(self, core):
        self.log.append(("run", type(core).__name__))
        core.compute(10)
        return {"runs": 1}


@pytest.mark.parametrize("backend", ["closed_form", "event"])
def test_platform_groups_cores_only_on_the_closed_form_backend(backend):
    platform = ExperimentPlatform(backend=backend)
    log, cores = [], []

    def builder(index):
        def build(cache=None):
            log.append(("build", index))
            cores.append(platform.all_local_core(64 * KB, cache=cache))
            return cores[-1]
        return build

    results = platform.run_configurations(RecordingWorkload(log),
                                          [builder(0), builder(1), builder(2)])
    if backend == "closed_form":
        # Built over one cache from the start, then run as one group.
        assert log == [("build", 0), ("build", 1), ("build", 2),
                       ("run", "LockstepGroup")]
        assert len({id(core.hierarchy.cache) for core in cores}) == 1
    else:
        # Every channel drives one shared simulator: one core at a time.
        assert log == [("build", 0), ("run", "TimingCore"),
                       ("build", 1), ("run", "TimingCore"),
                       ("build", 2), ("run", "TimingCore")]
        assert len({id(core.hierarchy.cache) for core in cores}) == 3
    assert [result.execution for result in results] == [core.result() for core in cores]
    assert all(result.metrics == {"runs": 1} for result in results)
