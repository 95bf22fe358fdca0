"""CRMA: Cacheline Remote Memory Access channel.

The CRMA channel captures ordinary load/store cache misses whose
physical address falls in a RAMT window, packetises them, and services
them from the donor node's DRAM (Section 5.1.2).  Once a sharing
connection is set up, software accesses remote memory exactly as if it
were local -- the defining transparency property of Venice.

Two classes are provided:

* :class:`CrmaChannel` -- the channel itself: RAMT/TLTLB state plus the
  per-operation latency model over a :class:`FabricPath`.
* :class:`CrmaRemoteBackend` -- adapter implementing the
  :class:`~repro.cpu.hierarchy.RemoteMemoryBackend` protocol so a
  node's :class:`~repro.cpu.hierarchy.MemoryHierarchy` can route misses
  to hot-plugged regions through the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.address import AddressMappingError, RemoteAddressMappingTable, TransportTlb
from repro.core.channels.backend import (
    ClosedFormBackend,
    PendingOp,
    TransportBackend,
    TransportError,
)
from repro.core.channels.path import FabricPath
from repro.core.config import CrmaConfig
from repro.cpu.hierarchy import RemoteMemoryBackend
from repro.fabric.packet import PacketKind
from repro.mem.dram import Dram, DramConfig
from repro.sim.stats import StatsRegistry

#: Payload bytes of a CRMA read request / write acknowledgement packet
#: (address + metadata; the fabric adds its own header).
_REQUEST_PAYLOAD_BYTES = 8


def _closed_form_only(backend: TransportBackend) -> bool:
    """True when an op's latency is a constant per size.

    That holds for the library's closed-form backend (not a subclass,
    which may add side effects) over a path with no shared latency
    cache attached.
    """
    return (type(backend) is ClosedFormBackend
            and getattr(backend.path, "cache", None) is None)


class CrmaChannel:
    """Load/store remote-memory channel between a requester and a donor."""

    def __init__(self, config: Optional[CrmaConfig] = None,
                 path: Optional[FabricPath] = None,
                 donor_dram: Optional[Dram] = None,
                 name: str = "crma",
                 backend: Optional[TransportBackend] = None):
        self.config = config or CrmaConfig()
        self.path = path or FabricPath()
        self.backend = backend or ClosedFormBackend(self.path)
        self.donor_dram = donor_dram or Dram(DramConfig())
        self.name = name
        self.stats = StatsRegistry(name)
        self.ramt = RemoteAddressMappingTable(capacity=self.config.ramt_entries,
                                              name=f"{name}.ramt")
        self.tlb = TransportTlb(capacity=self.config.tltlb_entries)
        # (ops, bytes) counter pairs, bound on first use.
        self._c_reads = self._c_writes = None
        # Size -> (read_ns, write_ns) on the plain closed forms, None
        # when every op must reach the backend (see fixed_latencies_ns).
        self._fixed: Optional[Dict[int, Tuple[int, int]]] = (
            {} if _closed_form_only(self.backend) else None)  # simlint: disable=SIM006 -- one entry per op size, not per op

    # ------------------------------------------------------------------
    # Mapping management (set up by the sharing layer / runtime)
    # ------------------------------------------------------------------
    def map_region(self, local_base: int, size: int, remote_node: int,
                   remote_base: int):
        """Install a RAMT window for a newly hot-plugged remote region."""
        entry = self.ramt.install(local_base=local_base, size=size,
                                  remote_node=remote_node, remote_base=remote_base)
        self.stats.counter("regions_mapped").increment()
        return entry

    def unmap_region(self, entry) -> None:
        """Invalidate a RAMT window (stop-sharing cleanup) and flush the TLB."""
        self.ramt.invalidate(entry)
        self.tlb.flush()
        self.stats.counter("regions_unmapped").increment()

    def translate(self, address: int) -> Tuple[int, int]:
        """Translate a captured local address to (donor node, donor address)."""
        entry = self.tlb.lookup(address)
        if entry is None:
            entry = self.ramt.lookup(address)
            if entry is None:
                raise AddressMappingError(
                    f"{self.name}: address {address:#x} not covered by any RAMT window"
                )
            self.tlb.fill(address, entry)
        return entry.translate(address)

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def read_latency_ns(self, size_bytes: int) -> int:
        """Latency of one remote cacheline fill of ``size_bytes``."""
        if size_bytes <= 0:
            raise ValueError("read size must be positive")
        self._count_read(size_bytes)
        fixed = self.fixed_latencies_ns(size_bytes)
        if fixed is not None:
            return fixed[0]
        return self._read_ns(size_bytes)

    def _read_ns(self, size_bytes: int) -> int:
        transport = self.backend.round_trip_ns(
            _REQUEST_PAYLOAD_BYTES, size_bytes,
            server_ns=self.donor_dram.fill_latency_ns(size_bytes),
            request_kind=PacketKind.CRMA_READ,
            response_kind=PacketKind.CRMA_READ_RESP)
        return (self.config.request_processing_ns
                + transport
                + self.config.response_processing_ns)

    def _count_read(self, size_bytes: int) -> None:
        """Count one fill of ``size_bytes`` here and at the donor DRAM."""
        if self._c_reads is None:
            self._c_reads = (self.stats.counter("reads"),
                             self.stats.counter("read_bytes"))
        reads, read_bytes = self._c_reads
        reads.value += 1
        read_bytes.value += size_bytes
        accesses, dram_bytes = self.donor_dram.access_counters()
        accesses.value += 1
        dram_bytes.value += size_bytes

    def fixed_latencies_ns(self, size_bytes: int) -> Optional[Tuple[int, int]]:
        """``(read_ns, write_ns)`` of ``size_bytes`` ops when they are constants.

        They are on the plain closed-form backend over a path with no
        shared latency cache: each size is computed once, and every op
        still updates the per-op counters.  Any other backend returns
        None here and is asked on every op: event backends send packets,
        and a cached path counts a cache lookup per query.
        """
        fixed = self._fixed
        if fixed is None:
            return None
        latencies = fixed.get(size_bytes)
        if latencies is None:
            latencies = fixed[size_bytes] = (self._read_ns(size_bytes),
                                             self._write_ns(size_bytes))
        return latencies

    def submit_read(self, size_bytes: int,
                    deadline_ns: Optional[int] = None) -> PendingOp:
        """Submit one remote cacheline fill without driving the fabric.

        Event-backend only: the read's request packet is injected and a
        :class:`~repro.core.channels.backend.PendingOp` handle returned,
        so any number of requesters' reads can be driven together with
        :meth:`~repro.core.channels.backend.EventTransport.drive_all`
        and genuinely contend on shared links.  ``op.latency_ns`` then
        matches what :meth:`read_latency_ns` would have returned.
        ``deadline_ns`` bounds the transport time: past it the op fails
        with :class:`~repro.core.channels.backend.OpTimeoutError`
        instead of waiting forever on a faulted fabric.
        """
        if size_bytes <= 0:
            raise ValueError("read size must be positive")
        submit = getattr(self.backend, "submit_round_trip", None)
        if submit is None:
            raise TransportError(
                f"{self.name}: submitted (overlappable) reads require "
                "the event transport backend")
        self._count_read(size_bytes)
        op = submit(_REQUEST_PAYLOAD_BYTES, size_bytes,
                    server_ns=self.donor_dram.fill_latency_ns(size_bytes),
                    request_kind=PacketKind.CRMA_READ,
                    response_kind=PacketKind.CRMA_READ_RESP,
                    deadline_ns=deadline_ns)
        op.overhead_ns += (self.config.request_processing_ns
                           + self.config.response_processing_ns)
        return op

    def write_latency_ns(self, size_bytes: int) -> int:
        """Latency of one remote write (posted: retires once packetised)."""
        if size_bytes <= 0:
            raise ValueError("write size must be positive")
        if self._c_writes is None:
            self._c_writes = (self.stats.counter("writes"),
                              self.stats.counter("write_bytes"))
        writes, write_bytes = self._c_writes
        writes.value += 1
        write_bytes.value += size_bytes
        fixed = self.fixed_latencies_ns(size_bytes)
        if fixed is not None:
            return fixed[1]
        return self._write_ns(size_bytes)

    def _write_ns(self, size_bytes: int) -> int:
        # The store retires when the packet has been accepted by the
        # channel: RAMT lookup + packetisation + link serialization.
        return (self.config.request_processing_ns
                + self.backend.posted_send_ns(size_bytes,
                                              packet_kind=PacketKind.CRMA_WRITE))

    def small_write_latency_ns(self, size_bytes: int) -> int:
        """End-to-end delivery latency of a small CRMA write.

        Used by the inter-channel collaboration mechanism: credit
        updates written through CRMA become visible at the receiver
        after one full one-way traversal.
        """
        if size_bytes <= 0:
            raise ValueError("write size must be positive")
        return (self.config.request_processing_ns
                + self.backend.one_way_ns(size_bytes,
                                          packet_kind=PacketKind.CRMA_WRITE)
                + self.donor_dram.config.access_latency_ns)


class CrmaRemoteBackend(RemoteMemoryBackend):
    """Adapter: serve a memory hierarchy's remote misses via CRMA."""

    def __init__(self, channel: CrmaChannel):
        self.channel = channel

    def remote_read_latency_ns(self, size_bytes: int) -> int:
        return self.channel.read_latency_ns(size_bytes)

    def remote_write_latency_ns(self, size_bytes: int) -> int:
        return self.channel.write_latency_ns(size_bytes)
