"""Unit tests for the physical link layer."""

import pytest

from repro.fabric.packet import HEADER_BYTES, Packet, PacketKind
from repro.fabric.phy import LinkConfig, PhysicalLink
from repro.sim.resources import SimEvent
from repro.sim.rng import DeterministicRNG


def make_packet(payload=32):
    return Packet(src=0, dst=1, kind=PacketKind.CRMA_READ, payload_bytes=payload)


def test_serialization_time_scales_with_size():
    config = LinkConfig(bandwidth_gbps=5.0)
    assert config.serialization_ns(100) > config.serialization_ns(10)
    # 5 Gbps = 0.625 bytes per ns -> 100 bytes take 160 ns.
    assert config.serialization_ns(100) == pytest.approx(160, abs=1)


def test_packet_latency_includes_phy_and_extra_delay():
    config = LinkConfig(phy_latency_ns=1000, extra_delay_ns=200)
    latency = config.packet_latency_ns(64)
    assert latency == config.serialization_ns(64) + 1200


def test_default_point_to_point_latency_matches_table1():
    """Table 1: P2P latency 1.4 us for a cacheline-sized transfer."""
    config = LinkConfig()
    latency = config.packet_latency_ns(64 + HEADER_BYTES)
    assert 1200 <= latency <= 1600


def test_link_delivers_packet_after_latency(sim):
    config = LinkConfig()
    link = PhysicalLink(sim, config)
    received = []
    link.connect(lambda packet: received.append((packet, sim.now)))
    link.offer(make_packet())
    sim.run_until_idle()
    assert len(received) == 1
    packet, arrival = received[0]
    assert arrival == config.packet_latency_ns(packet.wire_bytes)
    assert packet.hops == 1


def test_link_is_fifo_and_serialises(sim):
    link = PhysicalLink(sim, LinkConfig())
    received = []
    link.connect(lambda packet: received.append(packet.packet_id))
    first = make_packet()
    second = make_packet()
    link.offer(first)
    link.offer(second)
    sim.run_until_idle()
    assert received == [first.packet_id, second.packet_id]
    assert link.stats.counter("packets_sent").value == 2


def test_link_without_sink_counts_drops(sim):
    link = PhysicalLink(sim, LinkConfig())
    link.offer(make_packet())
    sim.run_until_idle()
    assert link.stats.counter("packets_dropped_no_sink").value == 1


def test_bit_errors_flag_packets(sim):
    config = LinkConfig(bit_error_rate=1.0)
    link = PhysicalLink(sim, config, rng=DeterministicRNG(1))
    received = []
    link.connect(received.append)
    link.offer(make_packet())
    sim.run_until_idle()
    assert received[0].corrupted is True
    assert link.stats.counter("packets_corrupted").value == 1


def test_error_free_link_never_corrupts(sim):
    link = PhysicalLink(sim, LinkConfig(bit_error_rate=0.0))
    received = []
    link.connect(received.append)
    for _ in range(20):
        link.offer(make_packet())
    sim.run_until_idle()
    assert all(not packet.corrupted for packet in received)


def test_zero_capacity_queue_rejected_at_construction(sim):
    # A zero-slot transmit queue would strand blocked senders forever
    # (waiters are only admitted when a queued packet starts serializing).
    with pytest.raises(ValueError):
        PhysicalLink(sim, LinkConfig(queue_capacity=0))


def test_busy_fraction_reflects_utilisation(sim):
    link = PhysicalLink(sim, LinkConfig())
    link.connect(lambda packet: None)
    for _ in range(5):
        link.offer(make_packet(payload=1024))
    sim.run_until_idle()
    assert 0.0 < link.busy_fraction() <= 1.0


def test_offer_blocks_on_a_full_queue_and_admits_fifo(sim):
    config = LinkConfig(queue_capacity=1)
    link = PhysicalLink(sim, config)
    received = []
    link.connect(lambda packet: received.append((packet.packet_id, sim.now)))
    packets = [make_packet() for _ in range(4)]
    serialization = config.serialization_ns(packets[0].wire_bytes)

    # Idle link: serializes at once.  One queue slot: accepted too.
    assert link.offer(packets[0]) is None
    assert link.offer(packets[1]) is None
    assert link.queue_depth == 1
    # Full queue: each further sender gets an acceptance event.
    admitted = []
    for index in (2, 3):
        event = link.offer(packets[index])
        assert isinstance(event, SimEvent)
        event.add_waiter(
            lambda _value, index=index: admitted.append((index, sim.now)))
    sim.run(until=serialization - 1)
    assert admitted == []

    sim.run_until_idle()
    # A blocked sender is admitted when a queued packet starts
    # serializing and frees its slot: oldest first, one per packet.
    assert admitted == [(2, serialization), (3, 2 * serialization)]
    arrival = config.packet_latency_ns(packets[0].wire_bytes)
    assert received == [(packet.packet_id, arrival + index * serialization)
                        for index, packet in enumerate(packets)]
    assert link.stats.counter("packets_offered").value == 4
    assert link.stats.counter("packets_sent").value == 4
    assert link.queue_depth == 0
