"""Local DRAM timing model.

The prototype nodes carry a 1 GB SODIMM.  The model charges a fixed
access latency per cacheline-sized request plus a bandwidth-derived
transfer time for larger (DMA / page) requests.  It is deliberately a
closed-form timing model rather than a bank-level simulator: every
experiment in the paper contrasts local DRAM latency against *fabric*
latency, which is an order of magnitude larger, so bank-level detail
does not change any conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.stats import StatsRegistry


@dataclass
class DramConfig:
    """Timing and capacity of a node's local DRAM."""

    capacity_bytes: int = 1 * 1024 * 1024 * 1024
    #: Closed-row access latency for a cacheline request, ns.
    access_latency_ns: int = 60
    #: Sustained bandwidth for streaming transfers, GB/s.
    bandwidth_gbps: float = 25.6
    #: Additional latency charged per DMA descriptor (setup cost), ns.
    dma_setup_ns: int = 200

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("DRAM capacity must be positive")
        if self.bandwidth_gbps <= 0:
            raise ValueError("DRAM bandwidth must be positive")


class Dram:
    """Closed-form DRAM latency/bandwidth model."""

    def __init__(self, config: Optional[DramConfig] = None, name: str = "dram"):
        self.config = config or DramConfig()
        self.name = name
        self.stats = StatsRegistry(name)
        # Lazily-bound counter handles: a Dram is built per CRMA channel
        # (one per allocation on the sharded-MN path), so the counters
        # keep their created-on-first-access semantics while repeat
        # accesses skip the registry lookup.
        self._ctr_accesses = self._ctr_bytes = None

    def access_latency_ns(self, size_bytes: int) -> int:
        """Latency of a demand access of ``size_bytes`` (cacheline fill)."""
        if size_bytes <= 0:
            raise ValueError(f"access size must be positive, got {size_bytes}")
        accesses, nbytes = self.access_counters()
        accesses.value += 1
        nbytes.value += size_bytes
        return self.fill_latency_ns(size_bytes)

    def fill_latency_ns(self, size_bytes: int) -> int:
        """Closed-form latency of a ``size_bytes`` demand access, uncounted.

        Batched callers compute it once per request size and count each
        access through :meth:`access_counters`.
        """
        transfer_ns = int(size_bytes * 8 / self.config.bandwidth_gbps)
        return self.config.access_latency_ns + transfer_ns

    def access_counters(self):
        """The ``(accesses, bytes)`` counters, created on first call."""
        if self._ctr_accesses is None:
            self._ctr_accesses = self.stats.counter("accesses")
            self._ctr_bytes = self.stats.counter("bytes")
        return self._ctr_accesses, self._ctr_bytes

    def dma_latency_ns(self, size_bytes: int) -> int:
        """Latency of a DMA transfer of ``size_bytes`` to/from DRAM."""
        if size_bytes <= 0:
            raise ValueError(f"DMA size must be positive, got {size_bytes}")
        self.stats.counter("dma_transfers").increment()
        self.stats.counter("bytes").increment(size_bytes)
        transfer_ns = int(size_bytes * 8 / self.config.bandwidth_gbps)
        return self.config.dma_setup_ns + self.config.access_latency_ns + transfer_ns

    @property
    def capacity_bytes(self) -> int:
        return self.config.capacity_bytes
