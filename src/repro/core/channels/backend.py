"""Transport backends: how a channel operation turns into latency.

Every transport channel (CRMA, RDMA, QPair) describes its operations in
terms of five primitive *transport ops* -- one-way delivery, a
request/response round trip, a posted (fire-and-forget) send, link
occupancy, and a chunked stream.  A :class:`TransportBackend` decides
how those ops are costed:

* :class:`ClosedFormBackend` answers from the channel's
  :class:`~repro.core.channels.path.FabricPath` closed forms -- exactly
  the latencies the seed experiments and the cluster sweeps (through
  :class:`~repro.core.channels.path.CachedFabricPath` and the shared
  :class:`~repro.cluster.latency_cache.ClusterLatencyCache`) have always
  used.  It models an *uncontended* fabric by construction.
* :class:`EventBackend` executes each op as real credit-flow-controlled
  packets over the event-driven fabric (PHY + datalink + switch stacks)
  and returns *measured* simulated time.  Several channels of one
  system share a single :class:`EventTransport` -- one
  :class:`~repro.sim.engine.Simulator` and one fabric -- so their
  packets contend with each other and with any
  :class:`CrossTrafficDriver` background flows on the same links.

The split mirrors the modelled-cost versus executed-task distinction of
HPX-style runtimes: the same channel API answers either from a formula
or from execution, and contention-sensitive experiments pick per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fabric.packet import Packet, PacketKind
from repro.sim.engine import SanitizerError

#: Simulated time driven per scheduling slice while background traffic
#: keeps the event queue non-empty (see :meth:`EventTransport.drive`).
#: Sized to a few uncontended round trips: a slice much larger than one
#: op would burn wall clock simulating background flows long past the
#: op's completion; much smaller wastes slice-polling overhead.
_TIME_SLICE_NS = 5_000


class TransportError(RuntimeError):
    """Raised when an event-backend operation cannot complete."""


class OpTimeoutError(TransportError):
    """A transport op missed its per-op deadline.

    Raised by :attr:`PendingOp.latency_ns` (and ``drive_until``) after
    the deadline timer fired: the op's expect handlers were cancelled,
    its packets written off as ``timed_out``, and the handle resolved
    as failed.  Typed separately from :class:`TransportError` so churn
    experiments can distinguish a deadline miss (retryable) from a
    structural failure (lost packet on a drained fabric).
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff resubmit policy for timed-out ops.

    Attempt ``k`` (1-based) that times out is relaunched after
    ``backoff_ns * multiplier**(k-1)`` of simulated time, up to
    ``max_attempts`` total submissions; the outer op then fails with
    the last attempt's :class:`OpTimeoutError`.
    """

    max_attempts: int = 3
    backoff_ns: int = 50_000
    multiplier: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("a retry policy needs at least one attempt")
        if self.backoff_ns < 0:
            raise ValueError("backoff must be non-negative")
        if self.multiplier < 1:
            raise ValueError("backoff multiplier must be at least 1")

    def backoff_for(self, attempt: int) -> int:
        """Backoff before relaunching after failed attempt ``attempt``."""
        return self.backoff_ns * self.multiplier ** (attempt - 1)


class TransportBackend:
    """Costing strategy for the primitive transport operations.

    ``kind`` is ``"closed_form"`` or ``"event"``; channels and
    experiments branch on behaviour only through these five ops, never
    on the kind itself.
    """

    kind = "abstract"

    def one_way_ns(self, payload_bytes: int,
                   packet_kind: PacketKind = PacketKind.QPAIR_DATA) -> int:
        """Latency of delivering one packet of ``payload_bytes``."""
        raise NotImplementedError

    def round_trip_ns(self, request_bytes: int, response_bytes: int,
                      server_ns: int = 0,
                      request_kind: PacketKind = PacketKind.CRMA_READ,
                      response_kind: PacketKind = PacketKind.CRMA_READ_RESP) -> int:
        """Request/response latency with ``server_ns`` of donor-side service."""
        raise NotImplementedError

    def posted_send_ns(self, payload_bytes: int,
                       packet_kind: PacketKind = PacketKind.CRMA_WRITE) -> int:
        """Local acceptance cost of a posted (fire-and-forget) packet."""
        raise NotImplementedError

    def occupancy_ns(self, payload_bytes: int,
                     packet_kind: PacketKind = PacketKind.QPAIR_DATA) -> int:
        """Minimum spacing between back-to-back packets on the route."""
        raise NotImplementedError

    def stream_ns(self, chunk_bytes: int, chunks: int, last_chunk_bytes: int,
                  per_chunk_server_ns: int, lanes: int = 1,
                  double_buffering: bool = True,
                  packet_kind: PacketKind = PacketKind.RDMA_CHUNK) -> int:
        """Latency of a chunked bulk transfer (RDMA-style pipeline)."""
        raise NotImplementedError


class ClosedFormBackend(TransportBackend):
    """Answer every transport op from the fabric path's closed forms.

    This backend reproduces the pre-refactor channel arithmetic exactly,
    including memoization: when the path is a
    :class:`~repro.core.channels.path.CachedFabricPath` its latency
    queries keep flowing through the shared cluster cache.
    """

    kind = "closed_form"

    def __init__(self, path):
        self.path = path

    def one_way_ns(self, payload_bytes, packet_kind=PacketKind.QPAIR_DATA):
        return self.path.one_way_latency_ns(payload_bytes)

    def round_trip_ns(self, request_bytes, response_bytes, server_ns=0,
                      request_kind=PacketKind.CRMA_READ,
                      response_kind=PacketKind.CRMA_READ_RESP):
        return (self.path.one_way_latency_ns(request_bytes)
                + server_ns
                + self.path.one_way_latency_ns(response_bytes))

    def posted_send_ns(self, payload_bytes, packet_kind=PacketKind.CRMA_WRITE):
        # A posted operation retires once packetised and clocked onto the
        # link; off-chip interface logic is still crossed at both ends.
        return (self.path.serialization_ns(payload_bytes)
                + 2 * self.path.endpoint_overhead_ns)

    def occupancy_ns(self, payload_bytes, packet_kind=PacketKind.QPAIR_DATA):
        return self.path.packet_occupancy_ns(payload_bytes)

    def stream_ns(self, chunk_bytes, chunks, last_chunk_bytes,
                  per_chunk_server_ns, lanes=1, double_buffering=True,
                  packet_kind=PacketKind.RDMA_CHUNK):
        lanes = max(1, lanes)
        link_ns = self.path.packet_occupancy_ns(chunk_bytes) // lanes
        first_chunk_ns = (self.path.one_way_latency_ns(chunk_bytes)
                          + per_chunk_server_ns)
        if double_buffering:
            steady_state_ns = max(link_ns, per_chunk_server_ns)
        else:
            steady_state_ns = link_ns + per_chunk_server_ns
        remaining = max(0, chunks - 1)
        total = first_chunk_ns + remaining * steady_state_ns
        # The final (possibly short) chunk only occupies the link for its
        # own size; without double buffering the last steady-state step
        # shrinks accordingly.
        if remaining and last_chunk_bytes < chunk_bytes and not double_buffering:
            total -= (self.path.packet_occupancy_ns(chunk_bytes)
                      - self.path.packet_occupancy_ns(last_chunk_bytes))
        return total


class PendingOp:
    """Future-like handle for one in-flight transport op.

    Returned by the :class:`EventTransport` ``submit_*`` primitives (and
    the channel-level ``submit_*`` wrappers).  The handle stays
    ``done == False`` until some ``drive_until`` / ``drive_all`` call
    advances the shared simulator far enough for the op's completion
    handler to fire; ``result_ns`` is then the transport-measured
    simulated time and ``latency_ns`` adds the channel's constant
    processing overheads (``overhead_ns``), giving the same number the
    blocking channel APIs return.
    """

    __slots__ = ("done", "failed", "error", "result_ns", "overhead_ns",
                 "label", "attempts", "deadline_ns", "_expected",
                 "_timeout_handle", "_on_resolved")

    def __init__(self, label: str = ""):
        self.done = False
        #: True once the op failed (deadline miss); ``error`` then holds
        #: the typed exception ``latency_ns`` / ``drive_until`` raise.
        self.failed = False
        self.error: Optional[TransportError] = None
        self.result_ns = 0
        #: Constant (non-transport) cost the owning channel adds on top
        #: of the measured transport time, e.g. request/response
        #: processing; filled in by the channel-level submit wrappers.
        self.overhead_ns = 0
        self.label = label
        #: Submissions consumed (retry wrappers count their relaunches).
        self.attempts = 1
        #: Per-op deadline in ns of simulated time from submission, or
        #: ``None`` for the pre-churn wait-forever behaviour.
        self.deadline_ns: Optional[int] = None
        #: Packet ids whose expect handlers belong to this op; the
        #: timeout path cancels exactly these.
        self._expected: List[int] = []
        self._timeout_handle: Optional[list] = None
        #: Resolution hook (retry wrappers); fired once on complete/fail.
        self._on_resolved: Optional[Callable[["PendingOp"], None]] = None

    @property
    def resolved(self) -> bool:
        """True once the op completed or failed; drivers stop waiting."""
        return self.done or self.failed

    def complete(self, result_ns: int) -> None:
        self.done = True
        self.result_ns = result_ns

    def fail(self, error: TransportError) -> None:
        self.failed = True
        self.error = error

    @property
    def latency_ns(self) -> int:
        """Full op latency (transport measurement + channel overheads)."""
        if self.failed:
            raise self.error
        if not self.done:
            raise TransportError(
                f"transport op {self.label or '<unnamed>'} has not "
                "completed; drive it first (drive_until/drive_all)")
        return self.result_ns + self.overhead_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self.done:
            state = f"done, {self.result_ns} ns"
        elif self.failed:
            state = f"failed, {self.error}"
        else:
            state = "in flight"
        return f"PendingOp({self.label!r}, {state})"


#: Backwards-compatible alias (the handle used to be module-private).
_PendingOp = PendingOp


class EventTransport:
    """Shared event-fabric executor: one per system.

    Owns the local-ejection sink of every switch and dispatches
    deliveries to per-packet handlers, so any number of channels (and
    background traffic drivers) multiplex over one simulator without
    stealing each other's packets.

    Operation driving is split in two halves.  The ``submit_*``
    primitives inject an op's packets and return a future-like
    :class:`PendingOp` handle *without* advancing the simulator; any
    number of submitted ops from different requesters then genuinely
    interleave -- queueing behind each other on shared links -- when a
    single ``drive_all`` (or ``drive_until``) call advances the shared
    simulator once for all of them.  The blocking ``measure_*`` API is
    kept as thin submit+drive wrappers, so a lone op behaves exactly as
    it did when driving was synchronous one-op-at-a-time.
    """

    def __init__(self, fabric, time_slice_ns: int = _TIME_SLICE_NS):
        self.fabric = fabric
        self.sim = fabric.sim
        self.time_slice_ns = time_slice_ns
        #: Deliveries routed per packet id; unmatched packets fall through
        #: to ``unmatched`` (counted, not fatal -- e.g. stray replays).
        self._handlers: Dict[int, Callable[[Packet], None]] = {}
        #: Live background sources (cross-traffic drivers).  While any
        #: are active the event queue never drains, so ops are driven in
        #: bounded time slices instead of to idleness.
        self._background = 0
        self.unmatched = 0
        self.ops_completed = 0
        #: Ops that missed their per-op deadline (typed OpTimeoutError).
        self.ops_timed_out = 0
        #: Expect handlers cancelled by deadline timers.  These packets
        #: are written off: still in flight (late deliveries land in
        #: ``unmatched``) or already lost to a counted drop, either way
        #: no longer awaited -- the ``timed_out`` lifecycle category.
        self.packets_timed_out = 0
        self._sanitize = bool(getattr(self.sim, "sanitize", False))
        #: Lifecycle ledger (sanitize mode only): every packet handed to
        #: :meth:`inject` must eventually reach :meth:`_deliver` or a
        #: counted drop; :meth:`check_packet_lifecycle` audits the books
        #: whenever the fabric goes idle.
        self.packets_injected = 0
        self.packets_delivered = 0
        # Sorted attach order: dict order is insertion order, which here
        # depends on fabric construction history; local-sink attachment
        # must not be another place ordering can leak in from.
        for node_id in sorted(fabric.switches):
            fabric.switches[node_id].attach_local_sink(self._deliver)

    # ------------------------------------------------------------------
    # Packet plumbing
    # ------------------------------------------------------------------
    def _deliver(self, packet: Packet) -> None:
        if self._sanitize:
            self.packets_delivered += 1
        handler = self._handlers.pop(packet.packet_id, None)
        if handler is not None:
            handler(packet)
        else:
            self.unmatched += 1

    def expect(self, packet: Packet, handler: Callable[[Packet], None]) -> None:
        """Register the delivery handler for ``packet``."""
        self._handlers[packet.packet_id] = handler

    def cancel_expected(self, packet_id: int) -> bool:
        """Drop the delivery handler for ``packet_id`` (if registered).

        The packet itself may still be in flight; once delivered it
        falls through to the ``unmatched`` counter.  Returns whether a
        handler was actually removed.
        """
        return self._handlers.pop(packet_id, None) is not None

    @property
    def expected_packets(self) -> int:
        """Packets with a registered delivery handler (leak canary)."""
        return len(self._handlers)

    def drain_quiet(self) -> None:
        """Run the fabric to idleness and assert no handler leaked.

        Only valid while no background source is registered (a loaded
        fabric never drains).  After the drain every injected packet has
        been delivered, so a non-empty expected-packet map means some
        producer registered handlers it never cleaned up -- the
        stale-handler leak long sweeps must not accumulate.
        """
        if self._background:
            raise TransportError(
                "cannot quiet-drain while background traffic is "
                "registered; stop the cross-traffic drivers first")
        self.sim.run_until_idle()
        if self._handlers:
            raise TransportError(
                f"{len(self._handlers)} expected-packet handlers "
                "survived a quiet drain (stale-handler leak)")

    def inject(self, packet: Packet) -> None:
        """Hand a packet to its source node's switch."""
        if self._sanitize:
            self.packets_injected += 1
        self.fabric.switches[packet.src].inject(packet)

    def check_packet_lifecycle(self) -> None:
        """Audit packet conservation; only meaningful on an idle fabric.

        Every packet this transport injected must be accounted for:
        delivered to a local sink, abandoned after exhausting replays
        (``link_faults``), dropped by an admin-down switch (the
        ``timed_out`` / churn category), or dropped at a detached sink.
        Anything else means a packet evaporated inside the fabric.  With
        no background sources registered the expected-handler map must
        also be empty at idleness -- a survivor is a stale-handler leak
        (deadline timers cancel their op's handlers, so timed-out ops
        leave none behind).
        """
        fabric = self.fabric
        dropped = 0
        for key in sorted(fabric.datalinks):
            counters = fabric.datalinks[key].stats.counters
            for name in ("link_faults", "packets_dropped_no_sink"):
                counter = counters.get(name)
                if counter is not None:
                    dropped += counter.value
        for key in sorted(fabric.links):
            counter = fabric.links[key].stats.counters.get(
                "packets_dropped_no_sink")
            if counter is not None:
                dropped += counter.value
        for node_id in sorted(fabric.switches):
            counters = fabric.switches[node_id].stats.counters
            for name in ("packets_dropped_no_sink",
                         "packets_dropped_admin_down"):
                counter = counters.get(name)
                if counter is not None:
                    dropped += counter.value
        if self.packets_injected != self.packets_delivered + dropped:
            raise SanitizerError(
                f"packet lifecycle violated: {self.packets_injected} "
                f"injected != {self.packets_delivered} delivered + "
                f"{dropped} dropped (a packet was lost or double-"
                "delivered inside the fabric)")
        if self._background == 0 and self._handlers:
            raise SanitizerError(
                f"{len(self._handlers)} expected-packet handlers "
                "survived an idle fabric (stale-handler leak)")

    def add_background_source(self) -> None:
        self._background += 1

    def remove_background_source(self) -> None:
        if self._background <= 0:
            raise TransportError("no background source registered")
        self._background -= 1

    @property
    def contended(self) -> bool:
        """True while background traffic keeps the fabric loaded."""
        return self._background > 0

    # ------------------------------------------------------------------
    # Op driving
    # ------------------------------------------------------------------
    def drive_all(self, ops: Sequence[PendingOp]) -> List[int]:
        """Advance the shared simulator until every op in ``ops`` completes.

        This is the overlap primitive: all submitted ops advance
        together through one simulator run, so packets from different
        requesters interleave and queue behind each other instead of
        executing in artificial isolation.  Returns the transport-level
        ``result_ns`` of each op, in ``ops`` order.

        Without background traffic the queue drains once the ops (and
        any piggybacking posted packets) finish, so one
        ``run_until_idle`` suffices.  With background traffic the queue
        normally never empties; the ops are driven in fixed
        simulated-time slices so control returns between slices to
        detect completion.  Slices that dispatch nothing are fine --
        ``run(until=...)`` still advances the clock towards far-future
        timers (long server turnarounds, slow noise relaunches) -- so
        the only true stall is an *empty* queue with some op incomplete:
        its packet was lost.
        """
        sim = self.sim
        pending = [op for op in ops if not op.resolved]
        while pending:
            if self._background == 0:
                # Deadline timers live in the event queue, so a lossy
                # fabric (downed links, failed routers) still resolves
                # every op: run_until_idle advances to the deadline and
                # the timeout fails the op instead of hanging here.
                sim.run_until_idle()
                pending = [op for op in pending if not op.resolved]
                if pending:
                    raise TransportError(
                        "event fabric drained without completing "
                        f"{len(pending)} transport op(s) (packet lost "
                        "or sink detached)")
                if self._sanitize:
                    self.check_packet_lifecycle()
            else:
                sim.run(until=sim.now + self.time_slice_ns)
                pending = [op for op in pending if not op.resolved]
                if pending and len(sim) == 0:
                    raise TransportError(
                        "event fabric drained without completing "
                        f"{len(pending)} transport op(s) (packet lost "
                        "or sink detached) while background traffic "
                        "was registered")
        return [op.result_ns for op in ops]

    def drive_until(self, op: PendingOp) -> int:
        """Advance the shared simulator until ``op`` (alone) resolves.

        Raises the op's typed error (:class:`OpTimeoutError` for a
        deadline miss) when it resolved as failed.
        """
        self.drive_all((op,))
        if op.failed:
            raise op.error
        return op.result_ns

    #: Backwards-compatible alias for the pre-split single-op driver.
    drive = drive_until

    def _resolve(self, op: PendingOp) -> None:
        callback, op._on_resolved = op._on_resolved, None
        if callback is not None:
            callback(op)

    def _finish(self, op: PendingOp, result_ns: int) -> None:
        if op.failed:
            # A straggler completion path (scheduled server turnaround,
            # stream service) outlived the deadline; the op already
            # failed and its result must not be rewritten.
            return
        if op._timeout_handle is not None:
            self.sim.cancel(op._timeout_handle)
            op._timeout_handle = None
        op._expected.clear()
        op.complete(result_ns)
        self.ops_completed += 1
        self._resolve(op)

    # ------------------------------------------------------------------
    # Per-op deadlines
    # ------------------------------------------------------------------
    def _arm_deadline(self, op: PendingOp,
                      deadline_ns: Optional[int]) -> None:
        if deadline_ns is None:
            return
        if deadline_ns <= 0:
            raise ValueError("op deadline must be positive")
        op.deadline_ns = deadline_ns
        op._timeout_handle = self.sim.call_after(deadline_ns,
                                                 self._timeout, op)

    def _timeout(self, op: PendingOp) -> None:
        if op.resolved:  # completion and timeout raced at one timestamp
            return
        op._timeout_handle = None
        # Cancel exactly this op's outstanding expect handlers; packets
        # still in flight are written off as timed_out and any late
        # delivery lands in the (counted, non-fatal) unmatched bucket.
        for packet_id in op._expected:
            if self.cancel_expected(packet_id):
                self.packets_timed_out += 1
        op._expected.clear()
        self.ops_timed_out += 1
        op.fail(OpTimeoutError(
            f"transport op {op.label or '<unnamed>'} missed its "
            f"{op.deadline_ns} ns deadline (attempt {op.attempts})"))
        self._resolve(op)

    # ------------------------------------------------------------------
    # Retries
    # ------------------------------------------------------------------
    def submit_with_retry(self, submit: Callable[[], PendingOp],
                          retry: RetryPolicy,
                          label: str = "") -> PendingOp:
        """Submit an op with exponential-backoff resubmission on timeout.

        ``submit`` is a zero-argument factory launching one attempt
        (typically a channel ``submit_*`` closure with a per-attempt
        ``deadline_ns``).  The returned outer handle resolves when an
        attempt completes -- ``result_ns`` measured from the *first*
        submission, so backoff waits count as op latency -- or fails
        with the last attempt's :class:`OpTimeoutError` once
        ``retry.max_attempts`` submissions all timed out.
        """
        outer = PendingOp(label=label or "retry")
        start = self.sim.now

        def attempt_resolved(inner: PendingOp) -> None:
            if inner.done:
                self._finish(outer, self.sim.now - start)
                return
            if outer.attempts >= retry.max_attempts:
                outer.fail(inner.error)
                self._resolve(outer)
                return
            outer.attempts += 1
            self.sim.call_after(retry.backoff_for(outer.attempts - 1),
                                relaunch)

        def relaunch(_value=None) -> None:
            inner = submit()
            inner.attempts = outer.attempts
            inner._on_resolved = attempt_resolved

        first = submit()
        first._on_resolved = attempt_resolved
        return outer

    # ------------------------------------------------------------------
    # Submitted primitive ops (inject now, drive later)
    # ------------------------------------------------------------------
    def submit_one_way(self, src: int, dst: int, payload_bytes: int,
                       packet_kind: PacketKind,
                       deadline_ns: Optional[int] = None) -> PendingOp:
        op = PendingOp(label=f"one_way {src}->{dst}")
        start = self.sim.now
        packet = Packet(src=src, dst=dst, kind=packet_kind,
                        payload_bytes=payload_bytes, created_at=start)
        self.expect(packet,
                    lambda _p: self._finish(op, self.sim.now - start))
        op._expected.append(packet.packet_id)
        self._arm_deadline(op, deadline_ns)
        self.inject(packet)
        return op

    def submit_round_trip(self, src: int, dst: int, request_bytes: int,
                          response_bytes: int, server_ns: int,
                          request_kind: PacketKind,
                          response_kind: PacketKind,
                          deadline_ns: Optional[int] = None) -> PendingOp:
        op = PendingOp(label=f"round_trip {src}->{dst}")
        start = self.sim.now
        request = Packet(src=src, dst=dst, kind=request_kind,
                         payload_bytes=request_bytes, created_at=start)

        def on_response(_packet: Packet) -> None:
            self._finish(op, self.sim.now - start)

        def send_response(_value=None) -> None:
            if op.failed:
                # The requester gave up while the server turnaround was
                # pending; suppress the reply so no orphan handler (or
                # packet nobody awaits) enters the fabric.
                return
            response = Packet(src=dst, dst=src, kind=response_kind,
                              payload_bytes=response_bytes,
                              payload=request.packet_id)
            self.expect(response, on_response)
            op._expected.append(response.packet_id)
            self.inject(response)

        def on_request(_packet: Packet) -> None:
            # Donor-side service (e.g. the DRAM access) delays the reply.
            if server_ns > 0:
                self.sim.call_after(server_ns, send_response)
            else:
                send_response()

        self.expect(request, on_request)
        op._expected.append(request.packet_id)
        self._arm_deadline(op, deadline_ns)
        self.inject(request)
        return op

    def submit_occupancy(self, src: int, dst: int, payload_bytes: int,
                         packet_kind: PacketKind,
                         deadline_ns: Optional[int] = None) -> PendingOp:
        """Delivery spacing of two back-to-back packets (pipelined cost)."""
        op = PendingOp(label=f"occupancy {src}->{dst}")
        arrivals: List[int] = []

        def on_delivery(_packet: Packet) -> None:
            arrivals.append(self.sim.now)
            if len(arrivals) == 2:
                self._finish(op, arrivals[1] - arrivals[0])

        for _ in range(2):
            packet = Packet(src=src, dst=dst, kind=packet_kind,
                            payload_bytes=payload_bytes)
            self.expect(packet, on_delivery)
            op._expected.append(packet.packet_id)
            self.inject(packet)
        self._arm_deadline(op, deadline_ns)
        return op

    def submit_stream(self, src: int, dst: int, chunk_sizes: Sequence[int],
                      per_chunk_server_ns: int,
                      packet_kind: PacketKind,
                      deadline_ns: Optional[int] = None) -> PendingOp:
        """Makespan of a chunked transfer: inject-all, credit-paced.

        All chunks are offered to the fabric at once; the datalink
        credit machinery paces them onto the wire.  Each delivered chunk
        starts its donor-side service (DMA into the donor's DRAM); the
        op completes when the last service finishes, so services overlap
        the link exactly as double-buffered descriptors do.
        """
        op = PendingOp(label=f"stream {src}->{dst}")
        start = self.sim.now
        remaining = len(chunk_sizes)
        if remaining == 0:
            self._finish(op, 0)
            return op

        def service_done(_value=None) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                self._finish(op, self.sim.now - start)

        def on_chunk(_packet: Packet) -> None:
            if per_chunk_server_ns > 0:
                self.sim.call_after(per_chunk_server_ns, service_done)
            else:
                service_done()

        for size in chunk_sizes:
            chunk = Packet(src=src, dst=dst, kind=packet_kind,
                           payload_bytes=size, created_at=start)
            self.expect(chunk, on_chunk)
            op._expected.append(chunk.packet_id)
            self.inject(chunk)
        self._arm_deadline(op, deadline_ns)
        return op

    # ------------------------------------------------------------------
    # Blocking measured ops (submit + drive, the pre-split API)
    # ------------------------------------------------------------------
    def measure_one_way(self, src: int, dst: int, payload_bytes: int,
                        packet_kind: PacketKind) -> int:
        return self.drive_until(self.submit_one_way(src, dst, payload_bytes,
                                                    packet_kind))

    def measure_round_trip(self, src: int, dst: int, request_bytes: int,
                           response_bytes: int, server_ns: int,
                           request_kind: PacketKind,
                           response_kind: PacketKind) -> int:
        return self.drive_until(self.submit_round_trip(
            src, dst, request_bytes, response_bytes, server_ns,
            request_kind, response_kind))

    def measure_occupancy(self, src: int, dst: int, payload_bytes: int,
                          packet_kind: PacketKind) -> int:
        return self.drive_until(self.submit_occupancy(src, dst, payload_bytes,
                                                      packet_kind))

    def measure_stream(self, src: int, dst: int, chunk_sizes: Sequence[int],
                       per_chunk_server_ns: int,
                       packet_kind: PacketKind) -> int:
        return self.drive_until(self.submit_stream(src, dst, chunk_sizes,
                                                   per_chunk_server_ns,
                                                   packet_kind))

    def post(self, src: int, dst: int, payload_bytes: int,
             packet_kind: PacketKind) -> None:
        """Inject a fire-and-forget packet (load-bearing, not awaited)."""
        packet = Packet(src=src, dst=dst, kind=packet_kind,
                        payload_bytes=payload_bytes, created_at=self.sim.now)
        # No handler: delivery falls through to the unmatched counter.
        self.inject(packet)


class EventBackend(TransportBackend):
    """Execute transport ops as packets between two fabric endpoints.

    One instance per channel (it knows the channel's src/dst node pair
    and fabric path); the heavy state -- simulator, fabric, delivery
    dispatch -- lives in the shared :class:`EventTransport`.

    Modelling notes: the event fabric is single-lane per direction, so
    ``stream_ns`` ignores lane striping and always overlaps donor-side
    services with the link (the double-buffered pipeline); and a posted
    send is charged its closed-form local acceptance cost while the
    packet itself still crosses -- and loads -- the fabric.
    """

    kind = "event"

    def __init__(self, transport: EventTransport, src: int, dst: int, path):
        self.transport = transport
        self.src = src
        self.dst = dst
        self.path = path
        #: Local (non-transport) costs share the closed-form source of
        #: truth, so the two backends can never drift apart on them.
        self._closed_form = ClosedFormBackend(path)

    def one_way_ns(self, payload_bytes, packet_kind=PacketKind.QPAIR_DATA):
        return self.transport.measure_one_way(self.src, self.dst,
                                              payload_bytes, packet_kind)

    def round_trip_ns(self, request_bytes, response_bytes, server_ns=0,
                      request_kind=PacketKind.CRMA_READ,
                      response_kind=PacketKind.CRMA_READ_RESP):
        return self.transport.measure_round_trip(
            self.src, self.dst, request_bytes, response_bytes, server_ns,
            request_kind, response_kind)

    def posted_send_ns(self, payload_bytes, packet_kind=PacketKind.CRMA_WRITE):
        self.transport.post(self.src, self.dst, payload_bytes, packet_kind)
        return self._closed_form.posted_send_ns(payload_bytes, packet_kind)

    def occupancy_ns(self, payload_bytes, packet_kind=PacketKind.QPAIR_DATA):
        return self.transport.measure_occupancy(self.src, self.dst,
                                                payload_bytes, packet_kind)

    def stream_ns(self, chunk_bytes, chunks, last_chunk_bytes,
                  per_chunk_server_ns, lanes=1, double_buffering=True,
                  packet_kind=PacketKind.RDMA_CHUNK):
        return self.transport.drive_until(self.submit_stream(
            chunk_bytes, chunks, last_chunk_bytes, per_chunk_server_ns,
            lanes=lanes, double_buffering=double_buffering,
            packet_kind=packet_kind))

    # ------------------------------------------------------------------
    # Submitted (overlappable) ops
    # ------------------------------------------------------------------
    def submit_one_way(self, payload_bytes,
                       packet_kind=PacketKind.QPAIR_DATA,
                       deadline_ns=None) -> PendingOp:
        return self.transport.submit_one_way(self.src, self.dst,
                                             payload_bytes, packet_kind,
                                             deadline_ns=deadline_ns)

    def submit_round_trip(self, request_bytes, response_bytes, server_ns=0,
                          request_kind=PacketKind.CRMA_READ,
                          response_kind=PacketKind.CRMA_READ_RESP,
                          deadline_ns=None) -> PendingOp:
        return self.transport.submit_round_trip(
            self.src, self.dst, request_bytes, response_bytes, server_ns,
            request_kind, response_kind, deadline_ns=deadline_ns)

    def submit_occupancy(self, payload_bytes,
                         packet_kind=PacketKind.QPAIR_DATA,
                         deadline_ns=None) -> PendingOp:
        return self.transport.submit_occupancy(self.src, self.dst,
                                               payload_bytes, packet_kind,
                                               deadline_ns=deadline_ns)

    def submit_stream(self, chunk_bytes, chunks, last_chunk_bytes,
                      per_chunk_server_ns, lanes=1, double_buffering=True,
                      packet_kind=PacketKind.RDMA_CHUNK,
                      deadline_ns=None) -> PendingOp:
        # The event fabric is single-lane and always overlaps donor-side
        # services with the link.  Silently measuring a differently
        # configured stream would report model mismatch as if it were
        # queueing delay, so unsupported knobs are rejected loudly (the
        # same pattern as the platform's off-chip/router guards).
        if lanes > 1:
            raise ValueError(
                "the event fabric is single-lane per direction; "
                "lane-striped streams are a closed-form knob")
        if not double_buffering:
            raise ValueError(
                "the event fabric always pipelines chunk services "
                "(double buffering); serialised streams are a "
                "closed-form knob")
        sizes = [chunk_bytes] * max(0, chunks - 1) + [last_chunk_bytes]
        return self.transport.submit_stream(self.src, self.dst, sizes,
                                            per_chunk_server_ns, packet_kind,
                                            deadline_ns=deadline_ns)


class CrossTrafficDriver:
    """Closed-loop background flows keeping a shared fabric loaded.

    Each ``(src, dst)`` flow keeps ``window`` packets circulating: a
    delivered packet re-injects its successor after ``turnaround_ns``.
    Because the flows only advance while transport ops drive the shared
    simulator, the background load is deterministic and exactly
    contemporaneous with the measured operations -- the event-backend
    equivalent of the open-loop noise waves the contention sweeps use.
    """

    def __init__(self, transport: EventTransport,
                 flows: Sequence[Tuple[int, int]], payload_bytes: int = 256,
                 window: int = 4, turnaround_ns: int = 200,
                 packet_kind: PacketKind = PacketKind.RDMA_CHUNK):
        if window < 1:
            raise ValueError("each cross-traffic flow needs a window >= 1")
        if turnaround_ns < 0:
            raise ValueError("turnaround must be non-negative")
        self.transport = transport
        self.flows = list(flows)
        self.payload_bytes = payload_bytes
        self.window = window
        self.turnaround_ns = turnaround_ns
        self.packet_kind = packet_kind
        self.packets_sent = 0
        self.active = False
        #: Circulating packets per flow; start() only tops flows up to
        #: ``window``, so stop()/start() cycles cannot inflate the load
        #: beyond the configured depth.
        self._in_flight: Dict[Tuple[int, int], int] = {
            flow: 0 for flow in self.flows}
        #: Undelivered noise packets (id -> flow).  Mirrors the expect
        #: handlers this driver holds in the transport, so stop() can
        #: prune exactly its own registrations.
        self._pending: Dict[int, Tuple[int, int]] = {}
        if self.flows:
            self.start()

    def start(self) -> None:
        if self.active:
            return
        self.active = True
        self.transport.add_background_source()
        for src, dst in self.flows:
            for _ in range(self.window - self._in_flight[(src, dst)]):
                self._launch(src, dst)

    def stop(self) -> None:
        """Stop re-injecting and prune this driver's expect handlers.

        In-flight noise packets are abandoned: their handlers are
        removed from the transport (so long sweeps that cycle many
        drivers over one transport cannot grow the expected-packet map
        unboundedly) and the packets drain through the fabric as
        unmatched deliveries on the next driven ops.
        """
        if not self.active:
            return
        self.active = False
        self.transport.remove_background_source()
        # Sorted ids: pruning must not depend on dict insertion history
        # (ids are globally allocated, so insertion order here reflects
        # every flow's interleaving, not this driver's).
        for packet_id in sorted(self._pending):
            if self.transport.cancel_expected(packet_id):
                self._in_flight[self._pending[packet_id]] -= 1
        self._pending.clear()

    def _launch(self, src: int, dst: int) -> None:
        packet = Packet(src=src, dst=dst, kind=self.packet_kind,
                        payload_bytes=self.payload_bytes,
                        created_at=self.transport.sim.now)
        self.packets_sent += 1
        self._in_flight[(src, dst)] += 1
        self._pending[packet.packet_id] = (src, dst)
        self.transport.expect(packet, self._relaunch)
        self.transport.inject(packet)

    def _relaunch(self, packet: Packet) -> None:
        self._in_flight[(packet.src, packet.dst)] -= 1
        self._pending.pop(packet.packet_id, None)
        if not self.active:
            return
        sim = self.transport.sim
        if self.turnaround_ns > 0:
            sim.call_after(self.turnaround_ns, self._relaunch_now, packet)
        else:
            self._relaunch_now(packet)

    def _relaunch_now(self, packet: Packet) -> None:
        if self.active:
            self._launch(packet.src, packet.dst)
