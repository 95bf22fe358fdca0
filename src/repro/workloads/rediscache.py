"""Redis-cache-in-front-of-MySQL service (the Figure 13 mini data center).

One Venice node runs a Redis-style in-memory key/value cache whose
capacity is the memory available to it (local plus borrowed remote
memory).  Query misses fall through to a MySQL server modelled as a
disk-bound backing store on a separate x86 node.  The Figure 14
experiment sweeps the cache memory from 70 MB to 350 MB and shows that
(a) execution time is dominated by the miss penalty, so more memory --
local or remote -- buys a ~15x improvement, and (b) the local-vs-remote
difference only becomes visible (~7 %) once the miss rate is low.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.cpu.core import LockstepGroup, TimingCore
from repro.sim.rng import DeterministicRNG
from repro.workloads.base import Workload, touch_record


@dataclass
class MysqlBackingStore:
    """Disk-bound MySQL query service reached over the data-center network.

    The paper's MySQL server holds 400 M x 64 B entries on an x86 node;
    a cache miss costs a network round trip plus a mostly-random disk
    access and query execution.
    """

    #: Average latency of one missed query served by MySQL, ns.
    miss_latency_ns: int = 18_000_000
    #: Network round-trip between the application server and MySQL, ns.
    network_rtt_ns: int = 250_000

    def query_latency_ns(self) -> int:
        return self.miss_latency_ns + self.network_rtt_ns


@dataclass
class RedisCacheConfig:
    """Parameters of the Redis cache service."""

    #: Memory available to the cache (local + borrowed), bytes.
    cache_capacity_bytes: int = 70 * 1024 * 1024
    #: Total number of distinct keys the clients query.
    key_space: int = 1_500_000
    #: Value size per record.
    record_bytes: int = 256
    #: Number of client queries to serve.
    num_queries: int = 10_000
    #: Instructions per query (hash lookup, protocol handling).
    instructions_per_query: int = 800
    #: Fraction of queries that are writes (cache refreshes).
    write_fraction: float = 0.0
    seed: int = 13

    def __post_init__(self) -> None:
        if self.cache_capacity_bytes <= 0 or self.key_space <= 0 or self.num_queries <= 0:
            raise ValueError("capacity, key space and query count must be positive")
        if self.record_bytes <= 0:
            raise ValueError("record size must be positive")

    @property
    def cache_capacity_records(self) -> int:
        return max(1, self.cache_capacity_bytes // self.record_bytes)

    @property
    def working_set_bytes(self) -> int:
        return self.key_space * self.record_bytes


class WarmLru:
    """LRU map from key to cache-memory slot, warmed with a key prefix.

    Behaves exactly like an insertion-ordered dict prefilled with keys
    ``0 .. warm-1`` (key ``k`` in slot ``capacity - 1 - k``) and used as
    an LRU: a touched key becomes the most recently used, and a new key
    takes a never-used slot while any is left, else the least recently
    used key's slot.  The warm keys are not materialised: they stay
    implicit until touched or evicted, so warm-up costs nothing however
    large the cache is.  Untouched warm keys are always older than every
    touched or inserted key, and are evicted in key order.
    """

    def __init__(self, capacity: int, warm: int):
        if not 0 <= warm <= capacity:
            raise ValueError("warm key count must be within [0, capacity]")
        self._capacity = capacity
        self._warm = warm
        #: Warm keys below the cursor have left the implicit prefix.
        self._cursor = 0
        #: Warm keys at or above the cursor that were touched (and so
        #: now live in ``_recent``).
        self._moved = set()
        #: Explicit keys -> slot, least recently used first.
        self._recent: OrderedDict = OrderedDict()
        self._free = list(range(capacity - warm))

    def __contains__(self, key: int) -> bool:
        return key in self._recent or (
            self._cursor <= key < self._warm and key not in self._moved)

    def touch(self, key: int) -> int:
        """Slot of resident ``key``, which becomes the most recently used."""
        recent = self._recent
        if key in recent:
            recent.move_to_end(key)
            return recent[key]
        slot = recent[key] = self._capacity - 1 - key
        self._moved.add(key)
        return slot

    def insert(self, key: int) -> int:
        """Slot for absent ``key``: a free slot, else the LRU key's."""
        slot = self._free.pop() if self._free else self._evict()
        self._recent[key] = slot
        return slot

    def _evict(self) -> int:
        while self._cursor < self._warm:
            key = self._cursor
            self._cursor += 1
            if key in self._moved:
                self._moved.discard(key)
            else:
                return self._capacity - 1 - key
        return self._recent.popitem(last=False)[1]


class RedisCacheWorkload(Workload):
    """LRU key/value cache backed by a MySQL store."""

    name = "redis-cache"

    def __init__(self, config: RedisCacheConfig = None,
                 backing_store: MysqlBackingStore = None,
                 warm: bool = True):
        self.config = config or RedisCacheConfig()
        self.backing_store = backing_store or MysqlBackingStore()
        self.warm = warm

    def _drive(self, core: TimingCore | LockstepGroup) -> Dict[str, float]:
        config = self.config
        rng = DeterministicRNG(config.seed)
        line_bytes = core.line_bytes
        # Pre-populate with an arbitrary prefix of the key space, as the
        # paper measures after "proper initialization and warmup".
        capacity = config.cache_capacity_records
        cache = WarmLru(capacity,
                        min(capacity, config.key_space) if self.warm else 0)
        hits = 0
        misses = 0
        for _ in range(config.num_queries):
            key = rng.uniform_int(0, config.key_space - 1)
            is_write = rng.bernoulli(config.write_fraction)
            core.compute(config.instructions_per_query)
            if key in cache:
                hits += 1
                address = cache.touch(key) * config.record_bytes
                touch_record(core, address, config.record_bytes, line_bytes,
                             is_write=is_write)
            else:
                misses += 1
                core.stall(self.backing_store.query_latency_ns())
                address = cache.insert(key) * config.record_bytes
                # Install the fetched record into cache memory.
                touch_record(core, address, config.record_bytes, line_bytes,
                             is_write=True)
        total = hits + misses
        return dict(queries=total, hits=hits, misses=misses,
                    miss_rate=misses / total if total else 0.0)
