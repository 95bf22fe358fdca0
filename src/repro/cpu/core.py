"""In-order timing core.

:class:`TimingCore` advances a per-core virtual clock as a workload
invokes its execution primitives:

* :meth:`TimingCore.compute` -- burn CPU cycles (instruction execution
  between memory operations).
* :meth:`TimingCore.read` / :meth:`TimingCore.write` -- blocking memory
  accesses through the node's :class:`MemoryHierarchy`.
* :meth:`TimingCore.read_async` / :meth:`TimingCore.drain` -- the
  asynchronous issue mode used by latency-tolerant software (the
  Scale-out-NUMA-style rewritten applications of Section 4.2.1):
  up to ``max_outstanding`` independent accesses overlap, and the core
  only stalls when the window is full or at an explicit drain point.
* :meth:`TimingCore.stall` -- explicit stall for software overheads
  (system calls, driver paths, user-level library costs).

The core is analytic rather than event-driven: each primitive adds the
appropriate latency to the core's clock.  This keeps multi-million
operation workloads tractable while preserving the latency composition
that the paper's experiments measure.

A :class:`LockstepGroup` drives several cores whose hierarchies share
one cache from a single workload run: each batch is looked up in the
cache once and then served by every member, so one reference stream
evaluates several memory configurations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable, List, Optional, Sequence, Set, Union

from repro.cpu.hierarchy import DRAM, MemoryHierarchy, as_batch
from repro.mem.cache import Cache
from repro.sim.stats import Counter, StatsRegistry

#: Core counter bumped per access, by the level that served it (indexed
#: like :data:`repro.cpu.hierarchy.SOURCES`; DRAM fills are counted only
#: in ``accesses``).
_SOURCE_COUNTERS = ("cache_hits", None, "remote_accesses", "swap_accesses")

#: Items :meth:`TimingCore.execute` takes from a stream per hierarchy
#: batch: large enough to amortise the per-batch set-up, small enough
#: that a whole-run stream never sits in memory.
STREAM_CHUNK = 512


@dataclass
class CpuConfig:
    """Core timing parameters (defaults follow Table 1's Cortex-A9)."""

    clock_mhz: float = 667.0
    #: Average cycles per (non-memory) instruction.
    cycles_per_instruction: float = 1.0
    #: Maximum outstanding asynchronous remote operations.
    max_outstanding: int = 16

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ValueError("clock frequency must be positive")
        if self.max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")

    @property
    def cycle_ns(self) -> float:
        return 1000.0 / self.clock_mhz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.cycle_ns


@dataclass
class ExecutionResult:
    """Summary of one core's execution of a workload."""

    total_time_ns: int
    compute_time_ns: int
    memory_time_ns: int
    stall_time_ns: int
    accesses: int
    cache_hits: int
    remote_accesses: int
    swap_accesses: int

    @property
    def total_time_s(self) -> float:
        return self.total_time_ns / 1e9

    @property
    def memory_fraction(self) -> float:
        if self.total_time_ns == 0:
            return 0.0
        return self.memory_time_ns / self.total_time_ns


class TimingCore:
    """Single in-order core driving a memory hierarchy."""

    def __init__(self, hierarchy: MemoryHierarchy,
                 config: Optional[CpuConfig] = None, name: str = "core"):
        self.hierarchy = hierarchy
        self.config = config or CpuConfig()
        self.name = name
        self.stats = StatsRegistry(name)
        self._now = 0.0
        self._compute_ns = 0.0
        self._memory_ns = 0.0
        self._stall_ns = 0.0
        # Completion times of outstanding async operations (min-heap).
        self._outstanding: List[float] = []
        # Counter handles, bound on first use (None until then) so the
        # registry only ever holds counters that have fired.
        self._c_instructions: Optional[Counter] = None
        self._c_accesses: Optional[Counter] = None
        self._c_sources: List[Optional[Counter]] = [None] * len(_SOURCE_COUNTERS)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now_ns(self) -> int:
        return int(self._now)

    @property
    def line_bytes(self) -> int:
        return self.hierarchy.line_bytes

    def reset(self) -> None:
        """Reset the clock and accumulated time (keeps hierarchy state)."""
        self._now = 0.0
        self._compute_ns = 0.0
        self._memory_ns = 0.0
        self._stall_ns = 0.0
        self._outstanding.clear()

    # ------------------------------------------------------------------
    # Execution primitives
    # ------------------------------------------------------------------
    def compute(self, instructions: float) -> None:
        """Execute ``instructions`` back-to-back ALU instructions."""
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        elapsed = self.config.cycles_to_ns(instructions * self.config.cycles_per_instruction)
        self._now += elapsed
        self._compute_ns += elapsed
        if self._c_instructions is None:
            self._c_instructions = self.stats.counter("instructions")
        self._c_instructions.value += int(instructions)

    def stall(self, nanoseconds: float) -> None:
        """Stall the core for a fixed software/driver overhead."""
        if nanoseconds < 0:
            raise ValueError("stall time must be non-negative")
        self._now += nanoseconds
        self._stall_ns += nanoseconds

    def read(self, address: int) -> int:
        """Blocking load; returns the access latency in ns."""
        return self._batch(None, (address,), False, False, 0)[0]

    def write(self, address: int) -> int:
        """Blocking store; returns the access latency in ns."""
        return self._batch(None, (address,), True, False, 0)[0]

    def read_async(self, address: int) -> int:
        """Non-blocking load used by latency-tolerant code.

        The access is issued immediately; if the outstanding-operation
        window is full the core first stalls until the oldest operation
        completes.  Returns the latency of the individual access.
        """
        return self._batch(None, (address,), False, True, 0)[0]

    def write_async(self, address: int) -> int:
        """Non-blocking store (posted write)."""
        return self._batch(None, (address,), True, True, 0)[0]

    def access_many(self, addresses: Iterable[int],
                    writes: Union[bool, Iterable[bool]] = False,
                    asynchronous: bool = False) -> List[int]:
        """Issue memory accesses back to back; return their latencies.

        Equivalent to calling :meth:`read` / :meth:`write` (or their
        ``_async`` forms) once per address, in order, with no compute in
        between.  ``writes`` is one flag for every access or a sequence
        of per-access flags.  Each latency is added to the clock on its
        own, in access order, so the float clock is the same as for the
        one-at-a-time calls.  If an access raises, the exception
        propagates before the clock or the counters take any of the
        batch.
        """
        return self._batch(None, addresses, writes, asynchronous, 0)

    def execute(self, stream: Iterable[tuple], asynchronous: bool = False,
                stall_ns: float = 0) -> None:
        """Run an interleaved compute/access stream.

        ``stream`` yields ``(instructions, address, is_write)`` per
        access.  Each item is equivalent to ``stall(stall_ns)`` and
        ``compute(instructions)`` -- both skipped when ``instructions``
        is None -- followed by ``read``/``write`` of ``address`` (their
        ``_async`` forms when ``asynchronous``), so clocks and counters
        are bit-identical to those calls made one by one.

        This is the one-member case of :meth:`LockstepGroup.execute`,
        which holds the chunk loop and its exception contract.
        """
        LockstepGroup((self,)).execute(stream, asynchronous, stall_ns)

    def _batch(self, instructions: Optional[Sequence[Optional[float]]],
               addresses: Iterable[int], writes: Union[bool, Iterable[bool]],
               asynchronous: bool, stall_ns: float) -> List[int]:
        """One batch through :func:`_lockstep_batch`; returns its latencies."""
        (latencies,) = _lockstep_batch((self,), self.hierarchy.cache, instructions,
                                       addresses, writes, asynchronous, stall_ns)
        return latencies

    def _apply(self, counts: Set[float], instructions, addresses, writes,
               outcomes: List[Optional[int]], asynchronous: bool,
               stall_ns: float) -> List[int]:
        """Serve one looked-up batch and fold it into the core.

        ``counts`` holds the batch's distinct instruction counts, already
        checked to be non-negative.  Nothing is applied to the core until
        the hierarchy has served the whole batch.
        """
        config = self.config
        elapsed_of = {count: config.cycles_to_ns(count * config.cycles_per_instruction)
                      for count in counts}
        latencies, served = self.hierarchy.serve(addresses, writes, outcomes)
        if not served:
            return latencies
        now = self._now
        compute_ns = self._compute_ns
        memory_ns = self._memory_ns
        stall_total = self._stall_ns
        before = repeat(None) if instructions is None else instructions
        if asynchronous:
            outstanding = self._outstanding
            window = config.max_outstanding
            for count, latency in zip(before, latencies):
                if count is not None:
                    if stall_ns:
                        now += stall_ns
                        stall_total += stall_ns
                    elapsed = elapsed_of[count]
                    now += elapsed
                    compute_ns += elapsed
                if len(outstanding) >= window:
                    oldest = heapq.heappop(outstanding)
                    if oldest > now:
                        memory_ns += oldest - now
                        now = oldest
                heapq.heappush(outstanding, now + latency)
        else:
            for count, latency in zip(before, latencies):
                if count is not None:
                    if stall_ns:
                        now += stall_ns
                        stall_total += stall_ns
                    elapsed = elapsed_of[count]
                    now += elapsed
                    compute_ns += elapsed
                now += latency
                memory_ns += latency
        self._now = now
        self._compute_ns = compute_ns
        self._memory_ns = memory_ns
        self._stall_ns = stall_total
        self._count(instructions, elapsed_of, served)
        return latencies

    def _count(self, instructions, elapsed_of, served: List[int]) -> None:
        """Fold one batch into the core's counters.

        Counters are created on first use, in the order the equivalent
        one-at-a-time calls would create them; only a batch that fires
        one for the first time walks its accesses to find that order.
        """
        counters = self._c_sources
        sources = set(served)
        sources.discard(DRAM)
        if (self._c_accesses is None
                or (elapsed_of and self._c_instructions is None)
                or any(counters[source] is None for source in sources)):
            before = repeat(None) if instructions is None else instructions
            for count, source in zip(before, served):
                if count is not None and self._c_instructions is None:
                    self._c_instructions = self.stats.counter("instructions")
                if self._c_accesses is None:
                    self._c_accesses = self.stats.counter("accesses")
                if source != DRAM and counters[source] is None:
                    counters[source] = self.stats.counter(_SOURCE_COUNTERS[source])
        if elapsed_of:
            self._c_instructions.value += sum(
                int(count) * instructions.count(count) for count in elapsed_of)
        self._c_accesses.value += len(served)
        for source in sources:
            counters[source].value += served.count(source)

    def drain(self) -> None:
        """Wait for every outstanding asynchronous operation."""
        if not self._outstanding:
            return
        last = max(self._outstanding)
        if last > self._now:
            self._memory_ns += last - self._now
            self._now = last
        self._outstanding.clear()

    # ------------------------------------------------------------------
    # Result extraction
    # ------------------------------------------------------------------
    def result(self) -> ExecutionResult:
        """Snapshot of elapsed time and access counts (drains async ops)."""
        self.drain()
        return ExecutionResult(
            total_time_ns=int(self._now),
            compute_time_ns=int(self._compute_ns),
            memory_time_ns=int(self._memory_ns),
            stall_time_ns=int(self._stall_ns),
            accesses=self.stats.counter("accesses").value,
            cache_hits=self.stats.counter("cache_hits").value,
            remote_accesses=self.stats.counter("remote_accesses").value,
            swap_accesses=self.stats.counter("swap_accesses").value,
        )


def _lockstep_batch(cores: Sequence[TimingCore], cache: Cache,
                    instructions: Optional[Sequence[Optional[float]]],
                    addresses: Iterable[int], writes: Union[bool, Iterable[bool]],
                    asynchronous: bool, stall_ns: float) -> List[List[int]]:
    """The one access loop behind every entry point of a core or a group.

    ``instructions`` is None (no compute anywhere) or the per-access
    instruction counts, None for an access with no compute before it.
    The batch is checked, looked up once in the cache the ``cores``
    share, then served and applied by each core in turn.  Returns each
    core's latencies.
    """
    counts = set() if instructions is None else set(instructions)
    counts.discard(None)
    if counts and min(counts) < 0:
        raise ValueError("instruction count must be non-negative")
    addresses, writes = as_batch(addresses, writes)
    outcomes = cache.lookup_many(addresses, writes)
    return [core._apply(counts, instructions, addresses, writes, outcomes,
                        asynchronous, stall_ns) for core in cores]


class LockstepGroup:
    """Several cores driven by one workload run, in lockstep.

    The members' hierarchies share one :class:`~repro.mem.cache.Cache`.
    That cache holds tags only and is driven by addresses alone, so
    every member would see the same hit/miss/victim sequence: the group
    looks each batch up once, and each member then serves the misses
    with its own prefetcher, swap, backend, counters and clock.  Every
    member ends exactly as a solo run of the same calls leaves a core,
    and the shared cache as a solo run leaves its cache.

    A group offers the primitives an analytic workload calls --
    :meth:`compute`, :meth:`stall`, :meth:`access_many`,
    :meth:`execute` and :meth:`drain` -- but no clock read, so a
    workload whose stream depends on timing cannot run on one.
    """

    def __init__(self, cores: Sequence[TimingCore]):
        self.cores = tuple(cores)
        if not self.cores:
            raise ValueError("a lockstep group needs at least one core")
        self.cache = self.cores[0].hierarchy.cache
        if any(core.hierarchy.cache is not self.cache for core in self.cores):
            raise ValueError("the cores of a lockstep group must share one Cache")

    @property
    def line_bytes(self) -> int:
        return self.cache.config.line_bytes

    def compute(self, instructions: float) -> None:
        for core in self.cores:
            core.compute(instructions)

    def stall(self, nanoseconds: float) -> None:
        for core in self.cores:
            core.stall(nanoseconds)

    def drain(self) -> None:
        for core in self.cores:
            core.drain()

    def access_many(self, addresses: Iterable[int],
                    writes: Union[bool, Iterable[bool]] = False,
                    asynchronous: bool = False) -> None:
        """:meth:`TimingCore.access_many` on every member."""
        _lockstep_batch(self.cores, self.cache, None, addresses, writes,
                        asynchronous, 0)

    def execute(self, stream: Iterable[tuple], asynchronous: bool = False,
                stall_ns: float = 0) -> None:
        """:meth:`TimingCore.execute` on every member, from one pass of ``stream``.

        The stream is consumed lazily, :data:`STREAM_CHUNK` items at a
        time, so a whole run never sits in memory.  Whatever raises,
        every earlier chunk has been applied in full to every member and
        the exception propagates.  A chunk the stream raises in, or one
        with a negative instruction count, is not applied at all.  Of a
        chunk where an access raises: the cache has looked up all of it;
        the members before the failing one have applied it in full; the
        failing member's hierarchy has served its accesses before the
        failing one, but its clock and core counters take nothing of the
        chunk; later members have not seen it.
        """
        if stall_ns < 0:
            raise ValueError("stall time must be non-negative")
        cores, cache = self.cores, self.cache
        items = iter(stream)
        while True:
            chunk = list(islice(items, STREAM_CHUNK))
            if not chunk:
                return
            instructions, addresses, writes = zip(*chunk)
            _lockstep_batch(cores, cache, instructions, addresses, writes,
                            asynchronous, stall_ns)
