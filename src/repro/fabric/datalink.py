"""Datalink layer: point-to-point reliable transmission.

Implements the mechanisms described in Section 5.1.1:

* **Credit-based flow control** -- the sender holds a credit pool sized
  to the receiver's buffer; each packet consumes one credit and the
  receiver returns credits as its buffers drain.
* **CRC error detection** on the receiver side, with a **replay
  mechanism** on the sender side: packets are kept in a retransmission
  window until acknowledged, and NAKed (corrupted) packets are resent.

Hot-path design notes
---------------------
Both directions are callback chains; a clean packet
costs two scheduled events at this layer (sender processing, receiver
processing) plus an amortised fraction of one coalesced credit-return
flush.  When the forward link is idle at enqueue time the sender
processing event is *folded* into the serialization event (the
busy-horizon fold, :meth:`PhysicalLink.reserve_fused_tx`): both delays
are fixed at enqueue, so one fused event covers processing +
serialization and the uncontended per-hop event count drops by one.
The sender takes its credit synchronously when one is available
(:meth:`CreditPool.try_take`, no event allocated) and only joins the
pool's waiter FIFO when stalled; the receiver serialises processing
through a busy flag and a deque.  Credit returns go through
:meth:`CreditPool.schedule_replenish`, which batches every credit freed
within one return-latency window into a single wakeup pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

from repro.sim.engine import SanitizerError, Simulator
from repro.sim.resources import CreditPool
from repro.sim.stats import StatsRegistry
from repro.fabric.packet import Packet
from repro.fabric.phy import PhysicalLink


@dataclass
class DataLinkConfig:
    """Parameters of one datalink endpoint pair."""

    #: Receiver buffer capacity in packets; also the sender credit count.
    credits: int = 16
    #: Latency of credit-return notifications (piggybacked acks), ns.
    credit_return_latency_ns: int = 100
    #: Processing latency added by the datalink logic per packet, ns.
    processing_latency_ns: int = 20
    #: Maximum replay attempts before the link declares a fault.
    max_replays: int = 8
    #: Credit returns accrue until this many are owed (or the receive
    #: pipeline idles, whichever comes first) and then flush as one
    #: coalesced replenish -- modelling piggybacked/batched ack frames.
    #: The effective threshold is clamped to half the credit window so
    #: batching can never withhold enough credits to stall a sender
    #: forever; the idle flush covers the tail of every burst.
    credit_batch: int = 8


class DataLink:
    """Reliable, flow-controlled transmission over a pair of links.

    One ``DataLink`` instance represents the sender side of a
    unidirectional datalink; credit returns and acknowledgements travel
    over the reverse physical link supplied as ``reverse_link`` (or are
    modelled with a fixed latency when operating without one).
    """

    __slots__ = ("sim", "config", "name", "forward_link", "reverse_link",
                 "stats", "_ctr_sent", "_ctr_received", "_ctr_crc_errors",
                 "_ctr_overflows", "_ctr_replays", "_ctr_replay_misses",
                 "_ctr_link_faults", "_ctr_credits_returned", "credits",
                 "_sink", "_processing_ns", "_call_after", "_rx_queue",
                 "_rx_busy", "_pending_replay", "_replay_attempts",
                 "_next_sequence", "_credits_owed", "_credit_batch",
                 "_sf_pending", "_sanitize")

    def __init__(self, sim: Simulator, forward_link: PhysicalLink,
                 config: Optional[DataLinkConfig] = None, name: str = "datalink",
                 reverse_link: Optional[PhysicalLink] = None):
        self.sim = sim
        self.config = config or DataLinkConfig()
        self.name = name
        self.forward_link = forward_link
        self.reverse_link = reverse_link
        self.stats = StatsRegistry(name)
        (self._ctr_sent, self._ctr_received, self._ctr_crc_errors,
         self._ctr_overflows, self._ctr_replays, self._ctr_replay_misses,
         self._ctr_link_faults, self._ctr_credits_returned) = \
            self.stats.bind_counters(
                "packets_sent", "packets_received", "crc_errors",
                "buffer_overflows", "replays", "replay_misses",
                "link_faults", "credits_returned")
        self.credits = CreditPool(sim, initial=self.config.credits, name=f"{name}.credits")
        self._sink: Optional[Callable[[Packet], None]] = None
        self._processing_ns = self.config.processing_latency_ns
        #: Scheduler entry point bound once; several calls per packet.
        self._call_after = sim.call_after
        #: Receiver buffer: packets waiting for the (serialised) receive
        #: processing stage; bounded by ``config.credits``.
        self._rx_queue: Deque[Packet] = deque()
        self._rx_busy = False
        self._pending_replay: Dict[int, Packet] = {}
        #: Replay attempts per in-flight sequence; pruned on delivery so
        #: the tracking stays bounded by the credit window (the previous
        #: per-sequence stats counters grew one entry per replayed packet
        #: for the lifetime of the link).
        self._replay_attempts: Dict[int, int] = {}
        self._next_sequence = 0
        #: Credits owed to the sender but not yet flushed to the pool.
        self._credits_owed = 0
        self._credit_batch = max(1, min(self.config.credit_batch,
                                        self.config.credits // 2))
        #: Packets between send_and_forget's credit request and grant.
        self._sf_pending: Deque[Packet] = deque()
        self._sanitize = bool(getattr(sim, "sanitize", False))
        forward_link.connect(self._on_packet_arrival)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Register the upper-layer receive callback on the far side."""
        self._sink = sink

    def send_and_forget(self, packet: Packet) -> None:
        """Transmit one packet asynchronously (the per-hop fast path).

        A callback chain: the credit is taken synchronously when
        available (no event, no allocation) and a stalled packet joins
        the pool's waiter FIFO, so packets take sequence numbers strictly
        in call order.  Delivery to the remote sink happens
        asynchronously, after any replays.  ``try_take`` is inlined here
        -- this runs once per packet per hop.
        """
        pool = self.credits
        # _sf_pending must be empty too: after a coalesced flush grants a
        # parked packet, the grant callback is still in the ready queue
        # while the pool already shows free credits -- taking one inline
        # here would let this packet overtake the parked one and invert
        # the FIFO sequence/transmission order.
        if not self._sf_pending and not pool._waiters and pool._credits >= 1:
            pool._credits -= 1
            pool.total_taken += 1
            packet.sequence = sequence = self._next_sequence
            self._next_sequence = sequence + 1
            self._pending_replay[sequence] = packet
            # Busy-horizon fold: when the forward link is idle right
            # now, processing + serialization are both fixed, so one
            # fused event replaces the processing hand-off (see
            # PhysicalLink.reserve_fused_tx).  The _tx_busy peek saves
            # the guaranteed-to-fail reservation call on contended
            # links, where this path runs once per packet.
            link = self.forward_link
            serialization = (None if link._tx_busy
                             else link.reserve_fused_tx(packet))
            if serialization is not None:
                self._ctr_sent.value += 1
                self._call_after(self._processing_ns + serialization,
                                 link._tx_complete, packet)
            else:
                self._call_after(self._processing_ns, self._sf_processed,
                                 packet)
        else:
            # Joins the FIFO behind every earlier taker and counts the
            # stall; _sf_pending pairs packets with grant callbacks in
            # the same order the pool grants them.
            event = pool.take(1)
            self._sf_pending.append(packet)
            event.add_waiter(self._sf_granted)

    def _sf_granted(self, _value=None) -> None:
        packet = self._sf_pending.popleft()
        packet.sequence = sequence = self._next_sequence
        self._next_sequence = sequence + 1
        self._pending_replay[sequence] = packet
        link = self.forward_link
        serialization = (None if link._tx_busy
                         else link.reserve_fused_tx(packet))
        if serialization is not None:
            self._ctr_sent.value += 1
            self._call_after(self._processing_ns + serialization,
                             link._tx_complete, packet)
        else:
            self._call_after(self._processing_ns, self._sf_processed, packet)

    def _sf_processed(self, packet: Packet) -> None:
        pending = self.forward_link.offer(packet)
        if pending is None:
            self._ctr_sent.value += 1
        else:
            pending.add_waiter(self._sf_sent)

    def _sf_sent(self, _value=None) -> None:
        self._ctr_sent.value += 1

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _on_packet_arrival(self, packet: Packet) -> None:
        # The receiver-side CRC-16 over the packet signature detects
        # injected wire corruption.  A corrupted packet's observed CRC
        # (the signature CRC xor a non-zero error syndrome) never
        # matches and a clean packet's always does, so the per-packet
        # check reduces exactly to the corruption flag and the CRC
        # itself is never computed.
        if packet.corrupted:
            self._ctr_crc_errors.value += 1
            self._request_replay(packet)
            return
        if self._rx_busy:
            if len(self._rx_queue) >= self.config.credits:
                # Credit accounting should make this impossible; count
                # it so tests can assert the invariant.
                self._ctr_overflows.value += 1
                self._request_replay(packet)
                return
            self._rx_queue.append(packet)
        else:
            self._rx_busy = True
            self._call_after(self._processing_ns, self._rx_done, packet)
        self._ctr_received.value += 1

    def _rx_done(self, packet: Packet) -> None:
        """Receive processing complete: ack, return credit, deliver up."""
        self._pending_replay.pop(packet.sequence, None)
        if self._replay_attempts:
            # Only non-empty when replays are in flight (lossy links).
            self._replay_attempts.pop(packet.sequence, None)
        owed = self._credits_owed + 1
        self._ctr_credits_returned.value += 1
        queue = self._rx_queue
        if queue:
            # Batch while the pipeline stays busy: a stalled sender is
            # guaranteed a flush because its un-returned credits keep
            # the pipeline fed until the threshold trips.
            if owed >= self._credit_batch:
                self._flush_credits(owed)
            else:
                self._credits_owed = owed
            self._call_after(self._processing_ns, self._rx_done,
                             queue.popleft())
        else:
            # Flush-on-idle: never leave owed credits stranded when the
            # burst (or the whole simulation) quiesces.
            self._flush_credits(owed)
            self._rx_busy = False
        if self._sink is not None:
            self._sink(packet)
        else:
            self.stats.counter("packets_dropped_no_sink").increment()

    def replay_attempts(self, sequence: int) -> int:
        """Replay attempts recorded for an in-flight sequence (0 if none)."""
        return self._replay_attempts.get(sequence, 0)

    def tracked_replay_sequences(self) -> int:
        """Number of sequences with live replay-attempt tracking."""
        return len(self._replay_attempts)

    def _request_replay(self, packet: Packet) -> None:
        self._ctr_replays.value += 1
        original = self._pending_replay.get(packet.sequence)
        if original is None:
            self._ctr_replay_misses.value += 1
            return
        attempts = self._replay_attempts.get(packet.sequence, 0) + 1
        self._replay_attempts[packet.sequence] = attempts
        if self._sanitize and len(self._replay_attempts) > self.config.credits:
            raise SanitizerError(
                f"{self.name}: replay-attempt tracking holds "
                f"{len(self._replay_attempts)} sequences, more than the "
                f"{self.config.credits}-credit window allows "
                "(unpruned replay counters)")
        if attempts > self.config.max_replays:
            self._ctr_link_faults.value += 1
            # Abandonment must leave no residue: the retransmission
            # window entry and attempt counter are pruned (they used to
            # leak forever), and the credit the packet consumed at send
            # time is returned -- the receiver's buffer slot is free, it
            # just never held a clean copy.  Without the return, every
            # abandoned packet permanently shrank the sender's window
            # until a long fault campaign deadlocked the link.
            self._pending_replay.pop(packet.sequence, None)
            self._replay_attempts.pop(packet.sequence, None)
            self._ctr_credits_returned.value += 1
            self._flush_credits(self._credits_owed + 1)
            return
        retry = Packet(
            src=original.src,
            dst=original.dst,
            kind=original.kind,
            payload_bytes=original.payload_bytes,
            address=original.address,
            sequence=original.sequence,
            flow_id=original.flow_id,
            payload=original.payload,
        )
        # Replays bypass credit acquisition: the receiver reserved the
        # buffer slot when the (corrupted) packet first consumed a credit.
        self.sim.call_after(
            self.config.credit_return_latency_ns, self._start_replay, retry
        )

    def _start_replay(self, packet: Packet) -> None:
        # Retransmissions share the transmit queue's backpressure: when
        # the queue is full the replay parks in the link's blocked-sender
        # FIFO and is admitted as slots free -- nothing to do after
        # acceptance, so the returned event (if any) needs no waiter.
        self.forward_link.offer(packet)

    def _flush_credits(self, owed: int) -> None:
        self._credits_owed = 0
        latency = self.config.credit_return_latency_ns
        if self.reverse_link is not None:
            latency += self.reverse_link.config.phy_latency_ns
        # Coalesced: every credit in the batch rides a single replenish
        # event (one wakeup pass) instead of one event each.
        self.credits.schedule_replenish(owed, delay=latency)
