"""Physical layer: point-to-point links.

A :class:`PhysicalLink` models one direction of a serial link: packets
occupy the link for their serialization time (wire bytes over the link
bandwidth) and arrive at the far end after an additional propagation /
PHY latency.  The prototype's programmable-logic throughput caps and
inserted delays (Section 4.2) are modelled by the ``bandwidth_gbps``
and ``extra_delay_ns`` knobs.

Hot-path design notes
---------------------
Transmission is a callback chain: :meth:`PhysicalLink.offer` starts
serializing immediately when the link is idle, and :meth:`_tx_complete`
chains straight into the next queued packet's serialization at the same
timestamp.  A packet therefore costs exactly two scheduled events on the
link (serialization end, delivery) and zero allocations on the accepted
path -- the acceptance :class:`SimEvent` is only materialised for
senders blocked on a full queue.  When the link is idle the datalink
layer goes one step further and folds its own processing delay into the
serialization event via :meth:`PhysicalLink.reserve_fused_tx` (the
busy-horizon fold), skipping the intermediate hand-off event entirely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.resources import SimEvent
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import StatsRegistry
from repro.fabric.packet import Packet


@dataclass
class LinkConfig:
    """Static parameters of a physical link.

    Defaults mirror Table 1: 5 Gbps serial links with a 1.4 us
    end-to-end point-to-point latency, the bulk of which the paper
    attributes to the PHY.  ``phy_latency_ns`` is the one-way
    propagation + SerDes latency; serialization time is computed from
    the packet size and ``bandwidth_gbps``.
    """

    bandwidth_gbps: float = 5.0
    phy_latency_ns: int = 1250
    extra_delay_ns: int = 0
    bit_error_rate: float = 0.0
    queue_capacity: int = 64

    #: Memo of wire_bytes -> serialization time.  Traffic clusters into a
    #: handful of packet size classes, so every size is computed once and
    #: then answered from the dict; the cache invalidates itself when
    #: ``bandwidth_gbps`` is reassigned (experiments mutate configs).
    _serialization_cache: Dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _cache_bandwidth: float = field(
        default=0.0, init=False, repr=False, compare=False)

    def serialization_ns(self, wire_bytes: int) -> int:
        """Time to clock ``wire_bytes`` onto the link (memoized)."""
        if self._cache_bandwidth != self.bandwidth_gbps:
            self._serialization_cache.clear()
            self._cache_bandwidth = self.bandwidth_gbps
        cache = self._serialization_cache
        try:
            return cache[wire_bytes]
        except KeyError:
            pass
        if wire_bytes <= 0:
            value = 0
        else:
            value = max(1, int(round(wire_bytes * 8 / self.bandwidth_gbps)))
        cache[wire_bytes] = value
        return value

    def packet_latency_ns(self, wire_bytes: int) -> int:
        """Uncontended one-way latency for a packet of ``wire_bytes``."""
        return self.serialization_ns(wire_bytes) + self.phy_latency_ns + self.extra_delay_ns


@dataclass
class RouterConfig:
    """Parameters of an external (off-chip) one-level router.

    Section 4.2.2 inserts such a router between two resource-sharing
    nodes (Figure 6): every crossing pays the router's forwarding
    latency plus one more PHY crossing of ``link``.
    """

    #: Internal forwarding latency (lookup + crossbar + scheduling), ns.
    forwarding_latency_ns: int = 300
    #: Link configuration of the router's ports.  The router sits in the
    #: same rack, so its extra hop crosses a short electrical link rather
    #: than another full-length optical run; the default therefore uses a
    #: much smaller PHY latency than the node-to-node links.
    link: LinkConfig = field(default_factory=lambda: LinkConfig(phy_latency_ns=300))


class PhysicalLink:
    """One direction of a serial point-to-point link.

    Packets are transmitted in FIFO order; the link is busy for the
    serialization time of each packet, then the packet is delivered to
    the registered sink after the propagation latency.  Corruption is
    injected according to ``bit_error_rate`` and flagged on the packet
    so the datalink layer's CRC check can catch it.
    """

    __slots__ = ("sim", "config", "name", "rng", "stats", "_ctr_offered",
                 "_ctr_busy_ns", "_ctr_sent", "_ctr_bytes", "_ctr_corrupted",
                 "_ctr_admin_faulted", "_send_name", "_tx_queue",
                 "_tx_waiters", "_tx_busy", "_sink", "_call_after",
                 "_admin_up")

    def __init__(self, sim: Simulator, config: LinkConfig, name: str = "link",
                 rng: Optional[DeterministicRNG] = None):
        if config.queue_capacity <= 0:
            # A zero-slot queue would strand blocked senders forever:
            # waiters are only admitted when a queued packet starts
            # serializing.
            raise ValueError(
                f"queue_capacity must be positive, got {config.queue_capacity}")
        self.sim = sim
        self.config = config
        self.name = name
        self.rng = rng or DeterministicRNG(0)
        self.stats = StatsRegistry(name)
        (self._ctr_offered, self._ctr_busy_ns, self._ctr_sent,
         self._ctr_bytes, self._ctr_corrupted,
         self._ctr_admin_faulted) = self.stats.bind_counters(
            "packets_offered", "busy_ns", "packets_sent", "bytes_sent",
            "packets_corrupted", "packets_faulted_admin_down")
        self._send_name = f"{name}.txq.put"
        #: Accepted packets waiting for the serializer (excludes the one
        #: in service); bounded by ``config.queue_capacity``.
        self._tx_queue: Deque[Packet] = deque()
        #: Blocked senders: (packet, acceptance event), FIFO.
        self._tx_waiters: Deque[Tuple[Packet, SimEvent]] = deque()
        self._tx_busy = False
        self._sink: Optional[Callable[[Packet], None]] = None
        #: Scheduler entry point bound once; two calls per packet.
        self._call_after = sim.call_after
        #: Administrative state (fault injection).  A downed link keeps
        #: transmitting -- the serializer and the propagation pipeline
        #: are modelled as unaware of the fault -- but every packet it
        #: delivers while down arrives corrupted, so the far end's CRC
        #: check NAKs it into the datalink replay path.
        self._admin_up = True

    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Register the receive callback at the far end of the link."""
        self._sink = sink

    # ------------------------------------------------------------------
    # Administrative state (fault injection)
    # ------------------------------------------------------------------
    @property
    def admin_up(self) -> bool:
        """False while a fault campaign holds this link down."""
        return self._admin_up

    def set_admin_down(self) -> None:
        """Fail the link: every delivery while down arrives corrupted.

        Packets already in flight are faulted too -- delivery, not
        acceptance, is the corruption point -- so a flap injected
        mid-transfer produces real CRC/NAK replay storms at the far-end
        datalink instead of silently draining the pipeline.
        """
        self._admin_up = False

    def set_admin_up(self) -> None:
        """Restore the link; subsequent deliveries are clean again."""
        self._admin_up = True

    @property
    def queue_depth(self) -> int:
        """Packets accepted but not yet being serialized."""
        return len(self._tx_queue)

    def offer(self, packet: Packet) -> Optional[SimEvent]:
        """Accept ``packet`` for transmission.

        Returns ``None`` when the packet is accepted immediately (link
        idle, or transmit-queue space available) -- no event allocated.
        When the queue is full, the packet joins the blocked-sender FIFO
        and the returned :class:`SimEvent` fires when a queued packet
        starts serializing and frees its slot for this one (the
        backpressure point for upper layers, which register a callback
        with :meth:`SimEvent.add_waiter`).
        """
        self._ctr_offered.value += 1
        if not self._tx_busy:
            self._tx_busy = True
            # _tx_start inlined (hot path: one call less per packet).
            serialization = self.config.serialization_ns(packet.wire_bytes)
            self._ctr_busy_ns.value += serialization
            self._call_after(serialization, self._tx_complete, packet)
            return None
        if len(self._tx_queue) < self.config.queue_capacity:
            self._tx_queue.append(packet)
            return None
        event = SimEvent(self.sim, name=self._send_name)
        self._tx_waiters.append((packet, event))
        return event

    def reserve_fused_tx(self, packet: Packet) -> Optional[int]:
        """Reserve the idle serializer for a fused upstream event.

        The busy-horizon fold: when the link is idle at enqueue time,
        the upstream layer already knows the packet's full dwell time
        (its own processing delay plus this link's serialization), so it
        schedules **one** event straight to :meth:`_tx_complete` instead
        of an intermediate hand-off event into :meth:`offer`.  This
        method does the acceptance bookkeeping of that elided hop --
        marks the serializer busy and accounts the offered/busy-time
        counters -- and returns the serialization time to fold into the
        caller's delay.  Returns ``None`` when the link is busy; the
        caller then falls back to the two-event path.

        Model note: the reservation starts at enqueue time, so another
        sender offering during the upstream processing window queues
        behind this packet instead of grabbing the serializer first.
        Clean-path timing is identical; only contended interleavings at
        that sub-window granularity shift (see benchmarks/README).
        """
        if self._tx_busy:
            return None
        self._tx_busy = True
        self._ctr_offered.value += 1
        serialization = self.config.serialization_ns(packet.wire_bytes)
        self._ctr_busy_ns.value += serialization
        return serialization

    def busy_fraction(self) -> float:
        """Fraction of elapsed time the link spent serializing packets."""
        if self.sim.now == 0:
            return 0.0
        return self._ctr_busy_ns.value / self.sim.now

    # ------------------------------------------------------------------
    # Transmit callback chain
    # ------------------------------------------------------------------
    def _tx_complete(self, packet: Packet) -> None:
        config = self.config
        wire_bytes = packet.wire_bytes
        self._ctr_sent.value += 1
        self._ctr_bytes.value += wire_bytes
        if config.bit_error_rate > 0.0:
            error_probability = min(
                1.0, config.bit_error_rate * wire_bytes * 8
            )
            if self.rng.bernoulli(error_probability):
                packet.corrupted = True
                self._ctr_corrupted.increment()
        self._call_after(config.phy_latency_ns + config.extra_delay_ns,
                         self._deliver, packet)
        queue = self._tx_queue
        if queue:
            # Chain straight into the next serialization; a freed queue
            # slot admits the oldest blocked sender.
            nxt = queue.popleft()
            if self._tx_waiters:
                waiting_packet, event = self._tx_waiters.popleft()
                queue.append(waiting_packet)
                event.succeed(None)
            serialization = config.serialization_ns(nxt.wire_bytes)
            self._ctr_busy_ns.value += serialization
            self._call_after(serialization, self._tx_complete, nxt)
        else:
            self._tx_busy = False

    def _deliver(self, packet: Packet) -> None:
        packet.hops += 1
        if not self._admin_up:
            if not packet.corrupted:
                packet.corrupted = True
                self._ctr_admin_faulted.value += 1
        if self._sink is None:
            self.stats.counter("packets_dropped_no_sink").increment()
            return
        self._sink(packet)
