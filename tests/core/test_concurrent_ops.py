"""Overlap semantics of the submit/drive transport split.

Submitted ops from concurrent requesters must genuinely share sim time
(completion span materially below the sum of serialized spans on
disjoint routes), contend for real on shared routes, stay byte-identical
across dispatch cores, and never leak expected-packet
handlers across cross-traffic driver lifecycles.
"""

import json

import pytest

from repro.core.channels.backend import PendingOp, TransportError
from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem
from repro.experiments.common import ExperimentPlatform
from repro.sim import engine

LINE = 64


def _event_system(num_nodes=8, topology="fat_tree"):
    return VeniceSystem.build(
        VeniceConfig(num_nodes=num_nodes, topology=topology),
        transport_backend="event")


# ----------------------------------------------------------------------
# Overlap on disjoint routes
# ----------------------------------------------------------------------
def test_two_round_trips_on_disjoint_routes_overlap():
    # Same-leaf pairs of different fat-tree leaves: no shared links.
    serial = _event_system()
    first = serial.qpair_channel(0, 1).round_trip_latency_ns(16, LINE)
    second = serial.qpair_channel(4, 5).round_trip_latency_ns(16, LINE)

    concurrent = _event_system()
    transport = concurrent.event_transport()
    op_a = concurrent.qpair_channel(0, 1).submit_round_trip(16, LINE)
    op_b = concurrent.qpair_channel(4, 5).submit_round_trip(16, LINE)
    transport.drive_all([op_a, op_b])

    # Disjoint routes: neither op sees the other, so per-op latencies
    # match the serialized measurements exactly...
    assert op_a.latency_ns == first
    assert op_b.latency_ns == second
    # ...but they shared sim time: the completion span is materially
    # below the sum of the serialized spans.
    assert transport.sim.now < 0.6 * (first + second)


def test_four_concurrent_borrowers_disjoint_routes_materially_faster():
    # The acceptance bar: N >= 4 concurrent requesters on disjoint
    # routes (one same-leaf pair per 16-node fat-tree leaf) complete in
    # materially less sim time than the same ops serialized.
    pairs = [(0, 1), (4, 5), (8, 9), (12, 13)]

    serial = _event_system(16)
    for src, dst in pairs:
        serial.crma_channel(src, dst).read_latency_ns(LINE)
    serialized_span = serial.event_transport().sim.now

    concurrent = _event_system(16)
    transport = concurrent.event_transport()
    ops = [concurrent.crma_channel(src, dst).submit_read(LINE)
           for src, dst in pairs]
    transport.drive_all(ops)

    assert all(op.done for op in ops)
    assert transport.sim.now < 0.5 * serialized_span


# ----------------------------------------------------------------------
# Contention on shared routes
# ----------------------------------------------------------------------
def test_concurrent_ops_on_shared_route_queue_behind_each_other():
    # Star: every read response towards a requester leaves donor 0
    # through the same donor->hub link, so concurrent reads must see
    # queueing the serialized driver cannot produce.
    serial = _event_system(topology="star")
    baseline = serial.crma_channel(1, 0).read_latency_ns(LINE)

    concurrent = _event_system(topology="star")
    transport = concurrent.event_transport()
    ops = [concurrent.crma_channel(requester, 0).submit_read(LINE)
           for requester in (1, 2, 3)]
    transport.drive_all(ops)

    latencies = [op.latency_ns for op in ops]
    assert min(latencies) >= baseline
    assert max(latencies) > baseline


# ----------------------------------------------------------------------
# Determinism across dispatch cores
# ----------------------------------------------------------------------
def _concurrent_batch_fingerprint():
    system = _event_system(num_nodes=8, topology="star")
    transport = system.event_transport()
    ops = []
    for index in range(6):
        src = system.node_ids[index]
        dst = system.node_ids[(index + 1) % len(system.node_ids)]
        ops.append(system.crma_channel(src, dst).submit_read(LINE))
        ops.append(system.qpair_channel(src, dst).submit_round_trip(16, LINE))
    transport.drive_all(ops)
    fabric = transport.fabric
    return json.dumps({
        "results": [op.result_ns for op in ops],
        "now": transport.sim.now,
        "events": transport.sim.events_processed,
        "links": {link.name: link.stats.snapshot()
                  for link in fabric.links.values()},
        "switches": {switch.name: switch.stats.snapshot()
                     for switch in fabric.switches.values()},
    }, sort_keys=True)


@pytest.mark.skipif(engine._load_ccore() is None,
                    reason="compiled dispatch core not built "
                           "(python -m repro.sim._ccore_build)")
def test_concurrent_dispatch_identical_across_cores(monkeypatch):
    monkeypatch.setenv("SIM_CORE", "py")
    baseline = _concurrent_batch_fingerprint()
    monkeypatch.setenv("SIM_CORE", "c")
    assert _concurrent_batch_fingerprint() == baseline


# ----------------------------------------------------------------------
# PendingOp handle semantics
# ----------------------------------------------------------------------
def test_pending_op_latency_requires_completion():
    platform = ExperimentPlatform(backend="event")
    op = platform.crma_channel().submit_read(LINE)
    assert isinstance(op, PendingOp) and not op.done
    with pytest.raises(TransportError):
        _ = op.latency_ns
    platform.event_transport().drive_until(op)
    assert op.done
    assert op.latency_ns == op.result_ns + op.overhead_ns


def test_submitted_latency_matches_blocking_api():
    blocking = ExperimentPlatform(backend="event")
    values = (blocking.crma_channel().read_latency_ns(LINE),
              blocking.qpair_channel().round_trip_latency_ns(16, LINE),
              blocking.qpair_channel().message_latency_ns(LINE),
              blocking.rdma_channel().transfer_latency_ns(4096))

    submitted = ExperimentPlatform(backend="event")
    transport = submitted.event_transport()
    submits = (lambda: submitted.crma_channel().submit_read(LINE),
               lambda: submitted.qpair_channel().submit_round_trip(16, LINE),
               lambda: submitted.qpair_channel().submit_message(LINE),
               lambda: submitted.rdma_channel().submit_transfer(4096))
    # Submitted then driven one at a time (nothing else in flight), a
    # submitted op measures exactly what the blocking op does.
    measured = []
    for submit in submits:
        op = submit()
        transport.drive_until(op)
        measured.append(op.latency_ns)
    assert tuple(measured) == values


def test_channel_submit_requires_event_backend():
    platform = ExperimentPlatform()  # closed-form
    with pytest.raises(TransportError):
        platform.crma_channel().submit_read(LINE)
    with pytest.raises(TransportError):
        platform.qpair_channel().submit_round_trip(16, LINE)
    with pytest.raises(TransportError):
        platform.qpair_channel().submit_message(LINE)
    with pytest.raises(TransportError):
        platform.rdma_channel().submit_transfer(4096)


def test_drive_all_detects_lost_packets():
    system = _event_system(topology="star")
    transport = system.event_transport()
    op = system.crma_channel(1, 0).submit_read(LINE)
    for switch in transport.fabric.switches.values():
        switch.attach_local_sink(lambda packet: None)
    with pytest.raises(TransportError):
        transport.drive_all([op])


# ----------------------------------------------------------------------
# Expected-packet handler hygiene
# ----------------------------------------------------------------------
def test_cross_traffic_stop_prunes_expected_handlers():
    platform = ExperimentPlatform(backend="event")
    driver = platform.start_cross_traffic(window=4)
    transport = platform.event_transport()
    platform.crma_channel().read_latency_ns(LINE)
    # Noise packets are still circulating with registered handlers...
    assert transport.expected_packets > 0
    unmatched_before = transport.unmatched
    driver.stop()
    # ...which stop() prunes in full: the abandoned packets drain as
    # unmatched deliveries and the map is empty after a quiet drain.
    assert transport.expected_packets == 0
    transport.drain_quiet()
    assert transport.expected_packets == 0
    assert transport.unmatched >= unmatched_before


def test_driver_cycling_does_not_grow_the_handler_map():
    # The long-sweep pattern: many drivers over one transport.  Without
    # stop() pruning, every cycle would leave its in-flight window of
    # handlers behind.
    platform = ExperimentPlatform(backend="event")
    transport = platform.event_transport()
    for cycle in range(5):
        driver = platform.start_cross_traffic(window=3)
        platform.crma_channel().read_latency_ns(LINE)
        driver.stop()
        assert transport.expected_packets == 0, f"leak after cycle {cycle}"
    transport.drain_quiet()


def test_drain_quiet_rejects_background_and_detects_leaks():
    from repro.fabric.packet import Packet, PacketKind

    platform = ExperimentPlatform(backend="event")
    transport = platform.event_transport()
    driver = platform.start_cross_traffic(window=1)
    with pytest.raises(TransportError):
        transport.drain_quiet()
    driver.stop()
    # A handler registered for a packet that is never injected is
    # exactly the stale-handler leak the drain must flag.
    stale = Packet(src=0, dst=1, kind=PacketKind.QPAIR_DATA,
                   payload_bytes=LINE)
    transport.expect(stale, lambda packet: None)
    with pytest.raises(TransportError):
        transport.drain_quiet()
    assert transport.cancel_expected(stale.packet_id)
    transport.drain_quiet()
