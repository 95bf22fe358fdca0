"""Set-associative write-back cache model.

The prototype's ARM Cortex-A9 uses 32-byte cache lines; CRMA traffic is
generated by cache misses to remote addresses, so the cache model is
the component that decides when a remote access actually leaves the
chip.  The model is functional (tags only, no data) and returns hit /
miss / writeback information plus latency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, List, Optional, Sequence, Union

from repro.sim.stats import StatsRegistry


@dataclass
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int = 512 * 1024
    line_bytes: int = 32
    associativity: int = 8
    hit_latency_ns: int = 6
    #: Extra latency for tag lookup on a miss before the fill is issued.
    miss_penalty_ns: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache size, line size and associativity must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError(
                "cache size must be a multiple of line_bytes * associativity"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class AccessResult:
    """Outcome of a single cache access."""

    hit: bool
    latency_ns: int
    #: Address of an evicted dirty line that must be written back, if any.
    writeback_address: Optional[int] = None
    line_address: int = 0


#: The :meth:`Cache.lookup_many` outcome of an access that hit.
HIT = -1


class Cache:
    """LRU set-associative write-back, write-allocate cache."""

    def __init__(self, config: Optional[CacheConfig] = None, name: str = "cache"):
        self.config = config or CacheConfig()
        self.name = name
        self.stats = StatsRegistry(name)
        # Each set is an OrderedDict mapping tag -> dirty flag, ordered
        # from least to most recently used.
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self.config.num_sets)
        ]
        self._geometry = (self.config.line_bytes, self.config.num_sets,
                          self.config.associativity)
        # Counter handles, bound on first use (None until then) so the
        # registry only ever holds counters that have fired.
        self._c_reads = self._c_writes = self._c_hits = None
        self._c_misses = self._c_writebacks = None

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Look up ``address``; allocate on miss, returning any writeback."""
        (victim,) = self.lookup_many((address,), (is_write,))
        line_address = address // self.config.line_bytes
        if victim == HIT:
            return AccessResult(hit=True, latency_ns=self.config.hit_latency_ns,
                                line_address=line_address)
        return AccessResult(hit=False,
                            latency_ns=self.config.hit_latency_ns
                            + self.config.miss_penalty_ns,
                            writeback_address=victim, line_address=line_address)

    def lookup_many(self, addresses: Sequence[int],
                    writes: Union[bool, Iterable[bool]] = False) -> List[Optional[int]]:
        """Look up ``addresses`` in order, allocating on every miss.

        ``writes`` is one flag for every access or per-access flags.
        Returns one outcome per access: :data:`HIT`, None for a miss that
        evicted no dirty line, or the address of the evicted dirty line
        that must be written back.  A negative address anywhere in the
        batch raises before any access is applied.
        """
        if addresses and min(addresses) < 0:
            raise ValueError(f"negative address: {min(addresses)}")
        line_bytes, num_sets, ways = self._geometry
        sets = self._sets
        stats = self.stats
        c_reads, c_writes = self._c_reads, self._c_writes
        c_hits, c_misses, c_writebacks = self._c_hits, self._c_misses, self._c_writebacks
        flags = repeat(writes) if writes.__class__ is bool else writes
        outcomes: List[Optional[int]] = []
        append = outcomes.append
        # Tallies folded into the counters at the end; each counter is
        # still created at its first event, in event order.
        reads = stores = hits = evictions = 0
        for address, is_write in zip(addresses, flags):
            line_address = address // line_bytes
            tag = line_address // num_sets
            cache_set = sets[line_address % num_sets]
            if is_write:
                stores += 1
                if c_writes is None:
                    c_writes = self._c_writes = stats.counter("writes")
            else:
                reads += 1
                if c_reads is None:
                    c_reads = self._c_reads = stats.counter("reads")

            if tag in cache_set:
                cache_set.move_to_end(tag)
                if is_write:
                    cache_set[tag] = True
                hits += 1
                if c_hits is None:
                    c_hits = self._c_hits = stats.counter("hits")
                append(HIT)
                continue

            if c_misses is None:
                c_misses = self._c_misses = stats.counter("misses")
            victim = None
            if len(cache_set) >= ways:
                victim_tag, victim_dirty = cache_set.popitem(last=False)
                if victim_dirty:
                    victim = ((victim_tag * num_sets + line_address % num_sets)
                              * line_bytes)
                    evictions += 1
                    if c_writebacks is None:
                        c_writebacks = self._c_writebacks = stats.counter("writebacks")
            cache_set[tag] = is_write
            append(victim)
        if reads:
            c_reads.value += reads
        if stores:
            c_writes.value += stores
        if hits:
            c_hits.value += hits
        if len(outcomes) > hits:
            c_misses.value += len(outcomes) - hits
        if evictions:
            c_writebacks.value += evictions
        return outcomes

    def invalidate_range(self, start: int, size: int) -> int:
        """Invalidate all lines overlapping ``[start, start+size)``.

        Used when a memory region is hot-removed or un-shared; returns
        the number of lines invalidated (dirty lines are discarded --
        the sharing protocol flushes before unmapping).
        """
        if size <= 0:
            return 0
        first_line = start // self.config.line_bytes
        last_line = (start + size - 1) // self.config.line_bytes
        invalidated = 0
        for line_address in range(first_line, last_line + 1):
            set_index = line_address % self.config.num_sets
            tag = line_address // self.config.num_sets
            cache_set = self._sets[set_index]
            if tag in cache_set:
                del cache_set[tag]
                invalidated += 1
        self.stats.counter("invalidations").increment(invalidated)
        return invalidated

    @property
    def miss_rate(self) -> float:
        hits = self.stats.counter("hits").value
        misses = self.stats.counter("misses").value
        total = hits + misses
        return misses / total if total else 0.0

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(cache_set) for cache_set in self._sets)
