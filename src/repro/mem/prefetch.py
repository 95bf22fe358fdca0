"""Sequential stream prefetcher.

The prototype's Cortex-A9/PL310 cache hierarchy prefetches sequential
streams, which matters a great deal for the paper's streaming workloads
(Grep, CC, the edge-list scans): successive cache-line fills from a
remote region can be pipelined over the fabric instead of each paying
the full round trip.  The model detects ascending unit-stride line
streams and, while a stream is active, reports a *pipelining factor*:
the number of outstanding fills the prefetcher keeps in flight.  The
memory hierarchy divides the miss latency of stream hits by this factor
(bounded below by the link occupancy, which pipelining cannot remove).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.stats import Counter, StatsRegistry


@dataclass
class PrefetcherConfig:
    """Stream-detection and aggressiveness parameters."""

    #: Number of distinct streams tracked simultaneously.
    num_streams: int = 4
    #: Sequential misses needed before a stream is considered trained.
    training_threshold: int = 2
    #: Outstanding prefetches kept in flight once trained (pipelining factor).
    degree: int = 4

    def __post_init__(self) -> None:
        if self.num_streams <= 0 or self.training_threshold <= 0 or self.degree <= 0:
            raise ValueError("prefetcher parameters must be positive")


class StreamPrefetcher:
    """Unit-stride ascending stream detector."""

    def __init__(self, config: Optional[PrefetcherConfig] = None, name: str = "prefetch"):
        self.config = config or PrefetcherConfig()
        self.name = name
        self.stats = StatsRegistry(name)
        # stream id (allocation order) -> (next expected line, train count)
        self._streams: Dict[int, list] = {}
        self._next_stream_id = 0
        # Counter handles, bound on first use (None until then) so the
        # registry only ever holds counters that have fired.
        self._c_stream_hits: Optional[Counter] = None
        self._c_training_hits: Optional[Counter] = None
        self._c_allocations: Optional[Counter] = None

    def observe_miss(self, line_address: int) -> int:
        """Record a demand miss; return the pipelining factor for it.

        Returns 1 (no benefit) for misses that do not belong to a trained
        stream, and ``config.degree`` for misses the prefetcher had
        already covered.
        """
        if line_address < 0:
            raise ValueError("line address must be non-negative")
        # Hit on an existing stream?
        for state in self._streams.values():
            if line_address == state[0]:
                trained = state[1]
                state[0] = line_address + 1
                state[1] = trained + 1
                # Only misses arriving after the stream was already
                # trained were actually covered by in-flight prefetches.
                if trained >= self.config.training_threshold:
                    if self._c_stream_hits is None:
                        self._c_stream_hits = self.stats.counter("stream_hits")
                    self._c_stream_hits.value += 1
                    return self.config.degree
                if self._c_training_hits is None:
                    self._c_training_hits = self.stats.counter("training_hits")
                self._c_training_hits.value += 1
                return 1
        # Allocate a new stream (replace the oldest).
        self._streams[self._next_stream_id] = [line_address + 1, 1]
        self._next_stream_id += 1
        while len(self._streams) > self.config.num_streams:
            oldest = min(self._streams)
            del self._streams[oldest]
        if self._c_allocations is None:
            self._c_allocations = self.stats.counter("stream_allocations")
        self._c_allocations.value += 1
        return 1

    @property
    def active_streams(self) -> int:
        return len(self._streams)

    def reset(self) -> None:
        self._streams.clear()
